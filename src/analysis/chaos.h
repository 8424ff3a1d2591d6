// Deterministic chaos harness: drives randomized load / attach / invoke /
// fault-toggle / detach / clock-advance sequences against a supervised
// kernel and asserts the survival invariants after every single step —
// kernel alive, RCU balanced and stall-free, no held locks, no leaked
// refcounts, supervisor state consistent. Everything derives from one
// xbase::Rng seed, so any failure replays bit-identically from the seed
// printed in the failure message (`tools/chaos --seed N --ops M`).
//
// The hostile corpus spans both frameworks deliberately: signed safex
// extensions that panic, hog the watchdog, overflow the stack and throw
// foreign exceptions, and *verifier-approved* eBPF programs whose bugs live
// below the verifier's horizon (the §2.2 sys_bpf union-NULL crash, leak-
// and deadlock-exploits enabled by injected Table 1 defects). Surviving
// the storm is the paper's availability claim, demonstrated rather than
// asserted.
#pragma once

#include <string>

#include "src/analysis/storm.h"
#include "src/ebpf/interp.h"
#include "src/xbase/types.h"

namespace analysis {

struct ChaosConfig {
  xbase::u64 seed = 1;
  xbase::u64 ops = 10000;
  // Simulated CPUs. >1 turns every fire op into a cross-CPU burst: the
  // fires run concurrently on real CPU-bound threads (with fault toggles
  // racing them), and the survival invariants are asserted machine-wide at
  // the post-burst quiescence barrier. Replayable: the op sequence still
  // derives from the seed; only intra-burst interleaving varies.
  xbase::u32 cpus = 1;
  // Round-robin fault toggling (guarantees every registry defect is active
  // at some point once enough toggle ops have fired).
  bool toggle_faults = true;
  // Execution engine every hook fire runs attached programs on — the storm
  // is engine-agnostic by construction, so both must survive it. The
  // supervisor always runs with the default SupervisorConfig.
  ebpf::ExecEngine engine = ebpf::ExecEngine::kThreaded;
};

struct ChaosStats : storm::Stats {
  xbase::u64 fires = 0;
  xbase::u64 attachments_served = 0;
  xbase::u64 attachments_failed = 0;
  xbase::u64 attachments_skipped = 0;
  xbase::u64 loads_ok = 0;
  xbase::u64 loads_rejected = 0;
  xbase::u64 unloads = 0;
  xbase::usize fault_catalog_size = 0;
};

struct ChaosReport {
  bool ok = false;
  // On failure: which invariant broke, at which op, doing what.
  std::string failure;
  ChaosStats stats;

  bool all_faults_covered() const {
    return stats.faults_ever_injected == stats.fault_catalog_size;
  }
};

ChaosReport RunChaos(const ChaosConfig& config);

}  // namespace analysis
