// The SMP substrate: N real OS threads, each bound to one simulated CPU
// (see cpu.h). Work — hook fires, sched ticks, map churn — is submitted to
// a target CPU and runs there, in submission order, on that CPU's one
// thread: placement, as RSS steers a flow to one RX queue that NAPI polls
// on its own CPU. Nothing migrates, so what a CPU's clock and per-CPU
// state see depends only on what was submitted to it. Drain() is the
// quiescence barrier every aggregate read (clocks, counters, dmesg)
// happens behind.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/simkern/cpu.h"
#include "src/xbase/types.h"

namespace simkern {

class CpuPool {
 public:
  // `owner` is the Kernel the worker threads bind their CPUs to.
  CpuPool(const void* owner, xbase::u32 num_cpus);
  ~CpuPool();
  CpuPool(const CpuPool&) = delete;
  CpuPool& operator=(const CpuPool&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  xbase::u32 num_cpus() const { return num_cpus_; }

  // Runs `fn` on `cpu` (cpu0 if out of range), after everything submitted
  // to that CPU before it. A task must not wait on work queued behind it
  // on its own CPU.
  void Submit(xbase::u32 cpu, std::function<void()> fn);

  // Blocks until every submitted task has finished executing. The barrier
  // the harnesses put between a storm burst and its invariant checks.
  void Drain();

  // Per-CPU accounting (read at quiescent points).
  xbase::u64 executed_on(xbase::u32 cpu) const {
    return queues_[cpu]->executed.load(std::memory_order_relaxed);
  }
  // Always 0: Submit places work, so no CPU takes another's. Kept only
  // because the repository benchmark still reports smp.stolen_share.
  xbase::u64 stolen_by(xbase::u32 /*cpu*/) const { return 0; }

 private:
  struct alignas(64) CpuQueue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> tasks;
    std::atomic<xbase::u64> executed{0};
  };

  void WorkerMain(xbase::u32 cpu);
  void FinishTask();

  const void* owner_;
  xbase::u32 num_cpus_;
  std::vector<std::unique_ptr<CpuQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<xbase::u64> pending_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace simkern
