// permstorm: seeded randomized triage for the helper access-control census.
//
//   permstorm                 one storm with the default seed/op count
//   permstorm --seed N        replay a specific seed
//   permstorm --ops M         number of sampled admission cells (default
//                             10000)
//   permstorm --no-faults     never inject perm defects: any divergence
//                             from the contract is a false positive
//   permstorm --check-faults  per-fault-class census detection matrix
//                             instead of a storm (plus clean baselines)
//   permstorm --quiet         print only the verdict line
//
// Every storm is a pure function of its flags, so any failure printed by a
// test or CI leg replays bit-identically from the replay line it prints.
// Exit status: 0 all probes matched the model, 1 something diverged, 2
// usage.
#include <cstdio>

#include "src/analysis/permaudit.h"
#include "src/analysis/stormmain.h"
#include "src/xbase/strfmt.h"

namespace {

void PrintStats(const analysis::PermStormStats& stats) {
  std::printf("  cells probed          %llu over %llu ops\n",
              static_cast<unsigned long long>(stats.cells_probed),
              static_cast<unsigned long long>(stats.ops_executed));
  std::printf("  verifier gate         %llu admits, %llu denials\n",
              static_cast<unsigned long long>(stats.verifier_admits),
              static_cast<unsigned long long>(stats.verifier_denials));
  std::printf("  dispatch gate         %llu denials\n",
              static_cast<unsigned long long>(stats.runtime_denials));
  std::printf("  loader gate           %llu probes, %llu denials\n",
              static_cast<unsigned long long>(stats.loader_probes),
              static_cast<unsigned long long>(stats.loader_denials));
  std::printf("  injected gaps found   %llu (%llu in front of writing "
              "helpers); %llu fault toggles (%zu of 3 perm defects "
              "enabled at some point)\n",
              static_cast<unsigned long long>(stats.gaps_confirmed),
              static_cast<unsigned long long>(
                  stats.gaps_confirmed_writing),
              static_cast<unsigned long long>(stats.fault_toggles),
              stats.faults_ever_injected);
}

int RunFaultChecks() {
  std::printf("permstorm: missing-permission-check detection matrix\n");
  const std::vector<analysis::PermFaultCheck> checks =
      analysis::RunPermFaultChecks();
  bool all_passed = true;
  for (const analysis::PermFaultCheck& check : checks) {
    std::printf("  %-36s %s\n", check.name.c_str(),
                check.passed ? "detected" : "FAIL");
    std::printf("    %s\n", check.detail.c_str());
    if (!check.passed) {
      all_passed = false;
    }
  }
  if (!all_passed) {
    std::printf("permstorm: FAIL — a missing-permission-check class "
                "escaped the census or was misattributed\n");
    return 1;
  }
  std::printf("permstorm: OK — every perm fault class detected and "
              "attributed to its layer; clean censuses gap-free\n");
  return 0;
}

analysis::storm::Outcome Run(const analysis::PermStormConfig& config,
                             bool quiet) {
  const analysis::PermStormReport report = analysis::RunPermStorm(config);
  if (!quiet) {
    PrintStats(report.stats);
  }
  if (!report.ok) {
    return {1, report.failure};
  }
  return {0, xbase::StrFormat(
                 "every probed admission cell matched the fault-adjusted "
                 "contract after each of %llu ops (zero false positives)",
                 static_cast<unsigned long long>(report.stats.ops_executed))};
}

}  // namespace

int main(int argc, char** argv) {
  return analysis::storm::Main<analysis::PermStormConfig>(
      {"permstorm", analysis::storm::PermStormFlags(), Run, RunFaultChecks,
       {}},
      argc, argv);
}
