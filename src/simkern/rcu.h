// Read-copy-update simulation with the stall detector that the §2.2
// termination experiment trips. eBPF programs run inside an RCU read-side
// critical section; holding it for more than the kernel's 21-second stall
// timeout (CONFIG_RCU_CPU_STALL_TIMEOUT) is the failure the paper
// demonstrates with nested bpf_loop.
//
// SMP: reader state is per-CPU (the thread bound to a CPU owns its slot;
// see cpu.h), and SynchronizeRcu is a genuine cross-CPU grace period — it
// blocks the calling thread until every other CPU's read-side section has
// drained, exactly like the real kernel. Calling it from inside one's own
// read-side section is still the immediate self-deadlock KernelFault.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "src/simkern/clock.h"
#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace simkern {

inline constexpr xbase::u64 kRcuStallTimeoutNs = 21 * kNsPerSec;

struct RcuStall {
  xbase::u64 detected_at_ns;
  xbase::u64 held_for_ns;
  std::string holder;
};

class RcuState {
 public:
  // Binds reader slots to `owner` (the Kernel). Unconfigured state stays
  // single-CPU (all threads resolve to slot 0).
  void Configure(const void* owner, xbase::u32 num_cpus);

  // Enter/exit a read-side critical section on the calling thread's CPU.
  // Nesting is allowed, like the kernel's; the stall clock starts at the
  // outermost lock.
  void ReadLock(const SimClock& clock, std::string holder);
  xbase::Status ReadUnlock();

  // Read-side state of the calling thread's CPU.
  bool InCriticalSection() const { return depth() > 0; }
  int depth() const {
    return slots_[Bound()].depth.load(std::memory_order_relaxed);
  }
  xbase::u64 HeldForNs(const SimClock& clock) const;

  // Any CPU inside a read-side section right now.
  bool AnyReader() const;

  // Polled by the simulated tick (the interpreter calls this periodically,
  // mirroring the scheduler-tick origin of real stall warnings). Records a
  // stall at most once per critical section.
  void CheckStall(const SimClock& clock);

  const std::vector<RcuStall>& stalls() const { return stalls_; }

  // Grace period: KernelFault if the caller is inside its own read-side
  // section (would deadlock — preemption-off semantics). Otherwise blocks
  // (wall clock) until every remote reader drains; a grace period that
  // fails to complete within the wedge timeout is a KernelFault too.
  xbase::Status SynchronizeRcu();

  // Completed grace periods (the ordering witness the cross-CPU tests
  // assert on: a synchronize that returned has incremented this *after*
  // the blocking reader exited).
  xbase::u64 grace_periods() const {
    return grace_periods_.load(std::memory_order_acquire);
  }

 private:
  // One CPU's reader state. `depth` is written only by the owning thread
  // (single-writer) and read by synchronizers; the cold fields are only
  // touched by the owning thread.
  struct alignas(64) ReaderSlot {
    std::atomic<int> depth{0};
    xbase::u64 locked_at_ns = 0;
    bool stall_reported = false;
    std::string holder;
  };

  xbase::u32 Bound() const { return BoundCpuFor(owner_, num_cpus_); }

  std::array<ReaderSlot, kMaxCpus> slots_;
  const void* owner_ = nullptr;
  xbase::u32 num_cpus_ = 1;
  std::atomic<xbase::u64> grace_periods_{0};
  // Readers skip the condvar entirely unless a synchronizer is waiting.
  std::atomic<int> sync_waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::mutex stalls_mu_;
  std::vector<RcuStall> stalls_;
};

}  // namespace simkern
