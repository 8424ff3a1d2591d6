// The Kernel façade: owns every subsystem, the simulated clock, the dmesg
// ring and the crash state. Both extension frameworks (ebpf and safex) run
// against a Kernel instance; experiment harnesses construct one per trial so
// crashes are isolated and observable.
//
// SMP: the kernel runs KernelConfig::num_cpus simulated CPUs. Per-CPU state
// (clock timeline, RCU reader slot, runqueue, extension scope, held-lock
// accounting) is resolved through the calling thread's CPU binding (cpu.h):
// the main thread and any unbound thread execute as cpu0, so single-CPU
// callers see exactly the historical behaviour. StartCpus() spins up a
// CpuPool of real worker threads — one per simulated CPU — that harnesses
// submit hook fires and ticks to; a task runs on the CPU it names.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/simkern/callgraph.h"
#include "src/simkern/clock.h"
#include "src/simkern/cpu.h"
#include "src/simkern/lock.h"
#include "src/simkern/mem.h"
#include "src/simkern/net.h"
#include "src/simkern/object.h"
#include "src/simkern/rcu.h"
#include "src/simkern/sched.h"
#include "src/simkern/smp.h"
#include "src/simkern/subsys.h"
#include "src/simkern/task.h"
#include "src/simkern/version.h"
#include "src/xbase/status.h"

namespace simkern {

enum class KernelState : xbase::u8 {
  kRunning,
  kOopsed,    // a BUG/oops was hit; the kernel keeps limping (like a real
              // oops with panic_on_oops=0) but the incident is recorded
  kPanicked,  // unrecoverable
};

struct KernelConfig {
  KernelVersion version = kV5_18;
  bool unprivileged_bpf_disabled = true;  // the v5.15+ default the paper cites
  // Simulated SMP width, clamped to [1, kMaxCpus]. Default matches the
  // retired compile-time constant so per-CPU map layouts and existing
  // experiments are unchanged.
  xbase::u32 num_cpus = 4;
};

struct OopsRecord {
  xbase::u64 at_ns;
  std::string message;
  // Who was on-CPU when the oops was raised ("" = kernel proper). Set from
  // the extension scope, so a supervisor can attribute the incident to the
  // offending attachment instead of blaming the hook or the kernel.
  std::string attribution;
  bool recovered = false;
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config = {});
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel();

  // --- components -----------------------------------------------------
  SimMemory& mem() { return mem_; }
  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  ObjectTable& objects() { return objects_; }
  RcuState& rcu() { return rcu_; }
  LockTable& locks() { return locks_; }
  TaskTable& tasks() { return tasks_; }
  // The calling thread's CPU's runqueue (cpu0 for unbound threads).
  RunQueue& runqueue() { return *runqueues_[current_cpu()]; }
  RunQueue& runqueue(xbase::u32 cpu) {
    return *runqueues_[cpu < num_cpus() ? cpu : 0];
  }
  NetState& net() { return net_; }
  CallGraph& callgraph() { return callgraph_; }
  const KernelConfig& config() const { return config_; }
  KernelVersion version() const { return config_.version; }
  xbase::u32 num_cpus() const { return config_.num_cpus; }

  // --- SMP ----------------------------------------------------------------
  // Starts one worker thread per simulated CPU (idempotent). Arms the
  // memory table's reader/writer lock first, so the single-threaded
  // dispatch path never pays for locking it is not using.
  void StartCpus();
  void StopCpus();
  CpuPool* cpus() { return pool_.get(); }
  // True once StartCpus has run: concurrency-aware structures (map table,
  // memory) switch their guards on.
  bool smp_active() const {
    return smp_active_.load(std::memory_order_acquire);
  }

  // --- crash machinery --------------------------------------------------
  // Records an oops. Every KERNEL_FAULT status produced by a subsystem
  // should be routed through here so the incident lands in dmesg.
  void Oops(const std::string& message);
  void Panic(const std::string& message);
  // Routes a non-OK status: KERNEL_FAULT becomes an oops; other codes pass
  // through untouched. Returns the status for chaining.
  xbase::Status Route(xbase::Status status);

  KernelState state() const {
    return state_.load(std::memory_order_acquire);
  }
  bool crashed() const { return state() != KernelState::kRunning; }
  // Read at quiescent points (oops recording is internally locked).
  const std::vector<OopsRecord>& oopses() const { return oopses_; }

  // --- recoverable-oops plumbing -----------------------------------------
  // While an extension scope is open *and* oops recovery is enabled, an
  // oops raised on-CPU is recorded and attributed to the scope's label but
  // does not transition the kernel out of kRunning: the faulting extension
  // is killed by its caller (the supervisor), not the whole machine. This
  // models the containment half of the paper's §3 proposal; a panic is
  // always fatal regardless.
  void set_oops_recovery(bool enabled) {
    oops_recovery_.store(enabled, std::memory_order_release);
  }
  bool oops_recovery() const {
    return oops_recovery_.load(std::memory_order_acquire);
  }

  // Opens/closes the attribution scope on the calling thread's CPU (one
  // level per CPU: extensions do not nest across hooks, but each CPU runs
  // its own extension concurrently). EndExtensionScope returns how many
  // oopses were raised while this CPU's scope was open. Takes the label by
  // const reference and copies into the retained string so the
  // steady-state dispatch path reuses its capacity instead of allocating
  // per fire.
  void BeginExtensionScope(const std::string& label);
  xbase::u32 EndExtensionScope();

  // --- CPU affinity -------------------------------------------------------
  // Which simulated CPU the calling thread is executing as. Helpers
  // (bpf_get_smp_processor_id) and per-CPU map addressing read this. The
  // binding is thread-local (ThisThreadCpuBinding): CpuPool workers bind
  // at startup, and every other thread resolves to cpu0 unless it binds
  // itself.
  xbase::u32 current_cpu() const {
    return BoundCpuFor(this, config_.num_cpus);
  }

  // --- dmesg -------------------------------------------------------------
  // Printk is internally locked: admission workers log loads concurrently
  // with the caller thread. Reading dmesg() still requires the writers to
  // be quiescent (tests read it after draining the pipeline).
  void Printk(const std::string& line);
  const std::deque<std::string>& dmesg() const { return dmesg_; }

  // --- convenience bootstrap ---------------------------------------------
  // Populates a believable runtime environment: a handful of tasks (one
  // current), established sockets, and an sk_buff to attach programs to.
  xbase::Status BootstrapWorkload();

  // Task exit, end to end: removes the task from every CPU's runqueue and
  // the task table (unmapping its struct and stack, releasing its
  // identity).
  xbase::Status RemoveTask(xbase::u32 pid);

 private:
  // One CPU's extension-attribution scope; only the thread bound to that
  // CPU touches it.
  struct alignas(64) CpuScope {
    bool open = false;
    std::string label;
    xbase::u32 oopses = 0;
  };

  KernelConfig config_;
  SimMemory mem_;
  SimClock clock_;
  ObjectTable objects_;
  RcuState rcu_;
  LockTable locks_;
  TaskTable tasks_;
  std::vector<std::unique_ptr<RunQueue>> runqueues_;
  NetState net_;
  CallGraph callgraph_;
  std::atomic<KernelState> state_{KernelState::kRunning};
  std::mutex oops_mu_;
  std::vector<OopsRecord> oopses_;
  std::mutex dmesg_mu_;
  std::deque<std::string> dmesg_;
  std::atomic<bool> oops_recovery_{false};
  std::vector<CpuScope> scopes_;
  std::unique_ptr<CpuPool> pool_;
  std::atomic<bool> smp_active_{false};
};

}  // namespace simkern
