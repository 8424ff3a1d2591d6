// permstorm: seeded randomized triage for the access-control census.
// Every op samples one admission cell (helper x program type x privilege x
// kernel version), probes the live enforcement layers (verifier gate,
// runtime dispatch gate, periodically the loader privilege gate), and
// compares the observation against a fault-adjusted model: the declared
// contract from staticcheck/permcheck, transformed by whichever perm
// defects the storm currently has injected. A divergence the active fault
// set explains is a confirmed gap (the storm found the injected bug); a
// divergence with no fault active is a false positive and fails the storm
// immediately. Surviving seeds 1/42/1337 clean is the zero-false-positive
// claim for the census.
//
// Everything derives from one xbase::Rng seed, so any failure replays
// bit-identically (`tools/permstorm --seed N --ops M`).
#pragma once

#include <string>

#include "src/xbase/types.h"

namespace analysis {

struct PermStormConfig {
  xbase::u64 seed = 1;
  xbase::u64 ops = 10000;
  // Round-robin toggling of the three missing-permission-check defects;
  // off = every divergence is a false positive.
  bool toggle_faults = true;
};

struct PermStormStats {
  xbase::u64 ops_executed = 0;
  xbase::u64 cells_probed = 0;
  xbase::u64 verifier_admits = 0;
  xbase::u64 verifier_denials = 0;
  xbase::u64 runtime_denials = 0;
  xbase::u64 loader_probes = 0;
  xbase::u64 loader_denials = 0;
  // Divergences from the clean contract explained by an active fault: the
  // storm re-finding the injected gap.
  xbase::u64 gaps_confirmed = 0;
  xbase::u64 gaps_confirmed_writing = 0;  // gap in front of a mutator
  xbase::u64 fault_toggles = 0;
  xbase::usize faults_ever_injected = 0;  // distinct perm defects enabled
};

struct PermStormReport {
  bool ok = false;
  // On failure: which cell diverged, at which op, what was expected.
  std::string failure;
  PermStormStats stats;
};

PermStormReport RunPermStorm(const PermStormConfig& config);

}  // namespace analysis
