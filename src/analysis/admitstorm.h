// Deterministic concurrency storm for the admission pipeline: a driver
// thread pumps rounds of asynchronous submissions — duplicate programs (to
// force coalescing), distinct programs, verifier-rejected programs, signed
// and rogue safex artifacts — at a live AdmissionService while toggling
// fault-registry defects mid-flight, then drains and checks the pipeline
// invariants after every round:
//
//   - every ticket resolved, admitted ids unique and findable;
//   - loader population matches the storm's own accounting;
//   - metrics conserve: submitted == completed == admitted + rejected,
//     cache hits + misses == program submissions, every miss published;
//   - at a settled fault epoch the (possibly cached) service verdict for a
//     corpus program is identical to a direct single-threaded Prepare —
//     status, verification stats, and the installed program's lowering
//     counters against a Prepare without elision;
//   - unload of unattached programs always succeeds; the kernel is alive.
//
// The submission schedule is a pure function of the seed, so a failed CI
// run replays with `tools/admitstorm --seed N`. Worker interleavings are
// not reproducible — the invariants are chosen to hold under all of them
// (TSan owns the data-race half of the argument).
#pragma once

#include <string>

#include "src/ebpf/interp.h"
#include "src/xbase/types.h"

namespace analysis {

struct AdmitStormConfig {
  xbase::u64 seed = 1;
  xbase::u64 rounds = 16;
  xbase::u64 ops_per_round = 96;
  xbase::usize workers = 4;
  // Deliberately smaller than ops_per_round so the bounded queue's blocking
  // backpressure is exercised every round.
  xbase::usize queue_capacity = 32;
  bool cache_enabled = true;
  bool toggle_faults = true;
  // Engine for the post-drain execution probes. kThreaded additionally
  // cross-checks every probe against the legacy interpreter (r0 and insn
  // counts must agree).
  ebpf::ExecEngine engine = ebpf::ExecEngine::kThreaded;
};

struct AdmitStormStats {
  xbase::u64 rounds_executed = 0;
  xbase::u64 submissions = 0;       // bpf + ext, async storm only
  xbase::u64 bpf_submissions = 0;   // includes consistency probes
  xbase::u64 ext_submissions = 0;
  xbase::u64 admitted = 0;
  xbase::u64 rejected = 0;
  xbase::u64 unloads = 0;
  xbase::u64 fault_toggles = 0;
  xbase::u64 consistency_probes = 0;
  xbase::u64 exec_probes = 0;
  // Final pipeline metrics (from AdmissionService::Metrics()).
  xbase::u64 cache_hits = 0;
  xbase::u64 cache_misses = 0;
  xbase::u64 coalesced_waits = 0;
  xbase::u64 uncacheable = 0;
  xbase::u64 verify_runs = 0;
  xbase::u64 queue_depth_peak = 0;
};

struct AdmitStormReport {
  bool ok = false;
  // On failure: which invariant broke, after which round's drain.
  std::string failure;
  xbase::u64 failed_at_round = 0;
  AdmitStormStats stats;
};

AdmitStormReport RunAdmitStorm(const AdmitStormConfig& config);

}  // namespace analysis
