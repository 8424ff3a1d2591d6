// Hook points: where extensions attach and get invoked by kernel events.
// Both frameworks attach here — verified eBPF programs and signed safex
// extensions side by side — so experiments can drive identical event
// streams through both and compare verdicts, cost and failure modes.
//
// A fire isolates attachments from each other: one failing attachment cannot
// abort or skip the remaining attachments on its hook, and with a
// Supervisor configured every abnormal outcome (panic, watchdog, stack
// overflow, attributed oops, resource leak) is charged to the offending
// attachment, quarantined attachments are skipped, and the hook family's
// fixed fallback policy stands in for what they would have said.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/loader.h"
#include "src/core/supervisor.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/loader.h"
#include "src/simkern/cpu.h"
#include "src/xbase/ids.h"
#include "src/xbase/rwlock.h"

namespace safex {

enum class HookPoint : xbase::u8 {
  kXdpIngress,     // per packet; verdict: XDP_DROP(1)/XDP_PASS(2)
  kSyscallEnter,   // per syscall; verdict: 0 allow, nonzero deny-errno
  kSchedSwitch,    // tracing; verdict ignored
  kSchedPickNext,  // scheduler: verdict = pid to dispatch (0 = yield)
  kLsmFileOpen,    // access control; verdict: 0 allow, nonzero deny-errno
};
inline constexpr xbase::usize kHookPointCount = 5;

// How a family folds its served attachments' verdicts into the aggregate.
enum class VerdictCombine : xbase::u8 {
  kAnyDropWins,         // any XDP_DROP(1) drops
  kFirstNonzeroDenies,  // the first nonzero verdict denies with that errno
  kFirstServedDecides,  // the first served attachment's verdict stands
  kIgnored,             // verdicts are recorded, never aggregated
};

// Everything that differs between hook families: one row per HookPoint, so
// a new family is an enumerator plus a row.
struct HookFamily {
  HookPoint hook;
  std::string_view name;
  xbase::u64 neutral;  // the aggregate before any attachment speaks
  VerdictCombine combine;
  // A failed or skipped attachment denies with this errno (fail closed);
  // 0 fails open — for the pick hook, the scheduler core's round-robin
  // default policy then picks.
  xbase::u64 fail_closed_errno;
  // The only program type allowed here and, conversely, the only hook
  // that type may attach to; nullopt admits every type no row owns.
  std::optional<ebpf::ProgType> owner;
  bool skb_ctx;  // the fire context is skb meta
};

inline constexpr std::array<HookFamily, kHookPointCount> kHookFamilies = {{
    {HookPoint::kXdpIngress, "xdp_ingress", /*XDP_PASS*/ 2,
     VerdictCombine::kAnyDropWins, 0, std::nullopt, true},
    {HookPoint::kSyscallEnter, "syscall_enter", 0,
     VerdictCombine::kFirstNonzeroDenies, 0, std::nullopt, false},
    {HookPoint::kSchedSwitch, "sched_switch", 0, VerdictCombine::kIgnored,
     0, std::nullopt, false},
    {HookPoint::kSchedPickNext, "sched_pick_next", 0,
     VerdictCombine::kFirstServedDecides, 0, ebpf::ProgType::kSchedExt,
     false},
    {HookPoint::kLsmFileOpen, "lsm_file_open", 0,
     VerdictCombine::kFirstNonzeroDenies, /*EPERM*/ 1, ebpf::ProgType::kLsm,
     false},
}};

constexpr bool HookFamiliesInEnumOrder() {
  for (xbase::usize i = 0; i < kHookPointCount; ++i) {
    if (static_cast<xbase::usize>(kHookFamilies[i].hook) != i) {
      return false;
    }
  }
  return true;
}
static_assert(HookFamiliesInEnumOrder(),
              "kHookFamilies needs one row per HookPoint, in enum order");

constexpr const HookFamily& FamilyOf(HookPoint hook) {
  return kHookFamilies[static_cast<xbase::usize>(hook)];
}

constexpr std::string_view HookPointName(HookPoint hook) {
  return FamilyOf(hook).name;
}

struct HookVerdict {
  bool from_safex = false;
  xbase::u32 attachment_id = 0;
  xbase::u64 value = 0;
  xbase::Status status;  // non-OK if the program/extension failed
  bool skipped = false;  // the breaker refused the invocation
  ExtHealth health = ExtHealth::kHealthy;  // after this fire
  // Simulated time the attachment consumed (deadline attribution).
  xbase::u64 cost_ns = 0;
};

struct HookFireReport {
  std::vector<HookVerdict> verdicts;
  // Aggregate: packets — dropped if any attachment said DROP; syscalls —
  // denied with the first nonzero errno; scheduler — the first served
  // attachment's pick stands.
  xbase::u64 verdict = 0;
  bool denied = false;
  // Attachment whose verdict became the aggregate (scheduler hooks);
  // 0 when no served attachment decided.
  xbase::u32 decider = 0;
  // Per-fire accounting (availability measurements key off these).
  xbase::u32 served = 0;   // ran to completion with an OK status
  xbase::u32 failed = 0;   // ran but ended with a non-OK status
  xbase::u32 skipped = 0;  // refused by quarantine/eviction
};

struct HookRegistryConfig {
  // Health/containment layer; null runs the unsupervised baseline (one bad
  // attachment can poison its hook or the kernel, as before).
  Supervisor* supervisor = nullptr;
  // Execution options handed to every eBPF attachment run (engine
  // selection, executing CPU, tracing). Defaults to the threaded engine.
  ebpf::ExecOptions exec_options;
};

class HookRegistry {
 public:
  HookRegistry(ebpf::Bpf& bpf, ebpf::Loader& bpf_loader,
               ExtLoader& ext_loader, const HookRegistryConfig& config = {})
      : bpf_(bpf),
        bpf_loader_(bpf_loader),
        ext_loader_(ext_loader),
        config_(config) {}

  // Attach a loaded eBPF program / safex extension to a hook. Returns an
  // attachment id; attaching the same target to the same hook twice is
  // AlreadyExists.
  xbase::Result<xbase::u32> AttachProgram(HookPoint hook, xbase::u32 prog_id);
  xbase::Result<xbase::u32> AttachExtension(HookPoint hook,
                                            xbase::u32 ext_id);
  // Removes the attachment. Taking the table's writer side waits for every
  // fire in flight, so once Detach returns no fire can still be running the
  // attachment (the kernel's synchronize_rcu before bpf_prog_put): the
  // target is unpinned — Unload may follow at once — and its supervisor
  // record dropped only after that wait.
  xbase::Status Detach(xbase::u32 attachment_id);

  // Fires every attachment in attach order with the given context address
  // (skb meta for XDP; a per-event ctx block otherwise). Clears and refills
  // a caller-owned report, so vector capacity survives across fires. The
  // fire walks the hook's attachment table under the reader side of the
  // striped table lock: no per-fire index vector, no per-attachment copies,
  // no lookup of the target or of its health record by id.
  //
  // Safe to call concurrently from any thread. SMP callers submit the fire
  // to a CpuPool themselves, so it runs on the named CPU's worker against
  // that CPU's clock, percpu map slots and scratch, and pass a report slot
  // indexed by the executing CPU (kernel.current_cpu(), the CPU the fire
  // was submitted to), read only after the pool's Drain.
  void FireInto(HookPoint hook, simkern::Addr ctx_addr,
                HookFireReport& report);

  xbase::usize AttachedCount(HookPoint hook) const;
  xbase::usize AttachedCountTotal() const;

  HookRegistryConfig& config() { return config_; }
  Supervisor* supervisor() { return config_.supervisor; }
  xbase::RwLockStats table_lock_stats() const { return table_lock_.stats(); }

 private:
  struct Attachment {
    xbase::u32 id = 0;
    HookPoint hook = HookPoint::kXdpIngress;
    bool is_safex = false;
    xbase::u32 target_id = 0;
    // The target, resolved at attach time. The attach pin keeps it loaded
    // and Detach's grace period keeps it from being unpinned under a fire.
    const ebpf::LoadedProgram* program = nullptr;
    const LoadedExtension* extension = nullptr;
    // The supervisor's health record (null when unsupervised); valid until
    // Detach forgets it, after the same grace period.
    ExtRecord* record = nullptr;
    // Precomputed extension-scope label ("bpf:3(xdp_ingress)"), so the
    // fire path never runs StrFormat.
    std::string scope_label;
  };

  // The one attach path behind AttachProgram/AttachExtension.
  xbase::Result<xbase::u32> Attach(HookPoint hook, bool is_safex,
                                   xbase::u32 target_id);
  // Called with table_lock_ held (either side).
  xbase::usize AttachedCountLocked() const;

  // Runs one attachment, fully contained: never throws, never returns
  // early, and under supervision repairs any kernel state (refcounts,
  // locks, RCU depth) the attachment leaked before reporting the failure.
  HookVerdict RunAttachment(const Attachment& attachment,
                            simkern::Addr ctx_addr);

  // Per-CPU repair scratch (leak detection is count/journal-gated, so the
  // vectors stay empty — and allocation-free — on the happy path). Only
  // the bound CPU's thread touches its slot, so no locking.
  struct alignas(64) FireScratch {
    std::vector<simkern::LockId> locks_before;
    std::vector<simkern::LockId> locks_after;
    std::vector<std::pair<simkern::ObjectId, xbase::s64>> ref_net;
  };

  ebpf::Bpf& bpf_;
  ebpf::Loader& bpf_loader_;
  ExtLoader& ext_loader_;
  HookRegistryConfig config_;
  // Per-hook attachment tables, in attach order, and the id allocator.
  // Attach/Detach edit them under the writer side of table_lock_; fires
  // read them under the reader side, one stripe per thread.
  xbase::StripedRwLock table_lock_;
  std::array<std::vector<Attachment>, kHookPointCount> by_hook_;
  xbase::IdAllocator ids_;
  std::array<FireScratch, simkern::kMaxCpus> scratch_;
};

}  // namespace safex
