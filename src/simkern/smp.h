// The SMP substrate: N real OS threads, each bound to one simulated CPU
// (see cpu.h). Work — hook fires, sched ticks, map churn — is submitted to
// a target CPU's queue; an idle CPU steals from the back of a loaded
// sibling's queue, so a storm of fires spreads across the machine the way
// softirq load does. Drain() is the quiescence barrier every aggregate
// read (clocks, counters, dmesg) happens behind.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
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

  // Enqueue work for a specific CPU (it may still be stolen by an idle
  // sibling — affinity is a preference, not a pin).
  void Submit(xbase::u32 cpu, std::function<void()> fn);

  // Blocks until every submitted task has finished executing. The barrier
  // the harnesses put between a storm burst and its invariant checks.
  void Drain();

  // Per-CPU accounting (read at quiescent points).
  xbase::u64 executed_on(xbase::u32 cpu) const {
    return stats_[cpu].executed.load(std::memory_order_relaxed);
  }
  // Tasks this CPU took from another CPU's queue.
  xbase::u64 stolen_by(xbase::u32 cpu) const {
    return stats_[cpu].stolen.load(std::memory_order_relaxed);
  }

 private:
  struct CpuQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };
  struct alignas(64) CpuStats {
    std::atomic<xbase::u64> executed{0};
    std::atomic<xbase::u64> stolen{0};
  };

  void WorkerMain(xbase::u32 cpu);
  // Pops one task: own queue front first, then steal from the back of the
  // most loaded sibling. Returns false when nothing is runnable.
  bool TakeTask(xbase::u32 cpu, std::function<void()>& out);
  void FinishTask();

  const void* owner_;
  xbase::u32 num_cpus_;
  std::vector<std::unique_ptr<CpuQueue>> queues_;
  std::array<CpuStats, kMaxCpus> stats_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<xbase::u64> pending_{0};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace simkern
