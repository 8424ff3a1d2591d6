// Deterministic scheduler chaos harness: drives randomized tick / attach /
// detach / sched-fault-toggle / task-create / task-exit / clock-advance
// sequences against a supervised SchedCore and asserts after every single
// step the storm kit's survival check (storm.h) plus the scheduling
// invariants — runqueue entries live and duplicate-free, every supervised
// tick with runnable tasks dispatching one, and no runnable task waiting
// unboundedly.
// Everything derives from one xbase::Rng seed, so any failure replays
// bit-identically from the seed printed in the failure message
// (`tools/schedstorm --seed N --ops M`).
//
// The policy corpus is deliberately hostile: honest sched_ext programs that
// misbehave only when a sched.* helper defect is injected underneath them
// (stall-loop, invalid-pid, runnable-filter, crash-on-pick), an actively
// malicious double-picking policy, a constant-garbage policy, and signed
// safex extensions that yield or panic on pick. Surviving the storm — every
// runnable task keeps progressing no matter what the pick policy does — is
// the availability claim for the scheduler hook family.
#pragma once

#include <string>
#include <vector>

#include "src/analysis/storm.h"
#include "src/xbase/types.h"

namespace analysis {

struct SchedStormConfig {
  xbase::u64 seed = 1;
  xbase::u64 ops = 10000;
  // Simulated CPUs. >1 runs one SchedCore per CPU (Linux-style per-CPU
  // runqueues, same kernel/hooks/supervisor underneath): every tick op
  // becomes a cross-CPU burst of concurrent ticks on real CPU-bound
  // threads, with fault toggles racing the in-flight picks, and the
  // invariants asserted machine-wide (all queues, all clocks) at the
  // post-burst quiescence barrier. Replayable: the op sequence still
  // derives from the seed; only intra-burst interleaving varies.
  xbase::u32 cpus = 1;
  // Round-robin toggling of the four sched.* helper defects.
  bool toggle_faults = true;
};

struct SchedStormStats : storm::Stats {
  xbase::u64 ticks = 0;
  xbase::u64 dispatches = 0;
  xbase::u64 ext_picks = 0;
  xbase::u64 default_picks = 0;
  xbase::u64 fallback_picks = 0;
  xbase::u64 yields = 0;
  xbase::u64 deadline_misses = 0;
  xbase::u64 invalid_picks = 0;
  xbase::u64 starvation_events = 0;
  xbase::u64 task_creates = 0;
  xbase::u64 task_exits = 0;
  xbase::u64 max_wait_seen_ns = 0;
};

struct SchedStormReport {
  bool ok = false;
  // On failure: which invariant broke, at which op, doing what.
  std::string failure;
  SchedStormStats stats;
};

SchedStormReport RunSchedStorm(const SchedStormConfig& config);

// --check-faults mode: for each injectable scheduler fault class, a fresh
// supervised rig with the matched witness policy must *detect* the fault
// (the right FailureKind charged to the right attachment) and *contain* it
// (every tick still dispatches; the kernel stays alive; a starved task is
// rescued). Clean-baseline legs assert no false positives.
struct SchedFaultCheck {
  std::string name;      // fault id, or "clean.<policy>" for baselines
  bool passed = false;
  std::string detail;    // what was expected vs. observed on failure
};

std::vector<SchedFaultCheck> RunSchedFaultChecks();

}  // namespace analysis
