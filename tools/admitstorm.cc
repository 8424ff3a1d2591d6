// admitstorm: deterministic concurrency storm for the admission pipeline.
//
//   admitstorm                     one storm with the default seed
//   admitstorm --seed N            replay a specific submission schedule
//   admitstorm --rounds R          drain rounds (default 16)
//   admitstorm --ops M             submissions per round (default 96)
//   admitstorm --workers W         admission worker threads (default 4)
//   admitstorm --queue Q           bounded queue capacity (default 32)
//   admitstorm --no-cache          run with the verdict cache disabled
//   admitstorm --no-faults         leave the fault registry alone
//   admitstorm --engine E          engine for post-drain exec probes:
//                                  threaded (default, cross-checked against
//                                  legacy) or legacy
//   admitstorm --quiet             print only the verdict line
//
// The submission schedule is a pure function of the flags; the pipeline
// invariants (see src/analysis/admitstorm.h) are checked after every
// round's drain and hold under any worker interleaving. CI runs seeds
// 1/42/1337 under ThreadSanitizer. Exit status: 0 every invariant held,
// 1 an invariant broke, 2 usage error.
#include <cstdio>

#include "src/analysis/stormmain.h"
#include "src/xbase/strfmt.h"

namespace {

void PrintStats(const analysis::AdmitStormStats& stats) {
  std::printf("  rounds                %llu\n",
              static_cast<unsigned long long>(stats.rounds_executed));
  std::printf("  submissions           %llu (%llu bpf, %llu ext, "
              "%llu settled-epoch probes)\n",
              static_cast<unsigned long long>(stats.submissions),
              static_cast<unsigned long long>(stats.bpf_submissions),
              static_cast<unsigned long long>(stats.ext_submissions),
              static_cast<unsigned long long>(stats.consistency_probes));
  std::printf("  verdicts              %llu admitted, %llu rejected; "
              "%llu unloads\n",
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.unloads));
  std::printf("  fault toggles         %llu (racing the workers)\n",
              static_cast<unsigned long long>(stats.fault_toggles));
  std::printf("  exec probes           %llu\n",
              static_cast<unsigned long long>(stats.exec_probes));
  std::printf("  verdict cache         %llu hits (%llu coalesced), "
              "%llu misses, %llu uncacheable\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.coalesced_waits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.uncacheable));
  std::printf("  verifier runs         %llu (vs %llu program submissions)\n",
              static_cast<unsigned long long>(stats.verify_runs),
              static_cast<unsigned long long>(stats.bpf_submissions));
  std::printf("  peak queue depth      %llu\n",
              static_cast<unsigned long long>(stats.queue_depth_peak));
}

analysis::storm::Outcome Run(const analysis::AdmitStormConfig& config,
                             bool quiet) {
  const analysis::AdmitStormReport report = analysis::RunAdmitStorm(config);
  if (!quiet) {
    PrintStats(report.stats);
  }
  if (!report.ok) {
    return {1, xbase::StrFormat(
                   "%s (after round %llu)", report.failure.c_str(),
                   static_cast<unsigned long long>(report.failed_at_round))};
  }
  return {0, xbase::StrFormat(
                 "every pipeline invariant held after each of %llu drains "
                 "(tickets resolved, ids unique, metrics conserved, verdicts "
                 "consistent)",
                 static_cast<unsigned long long>(
                     report.stats.rounds_executed))};
}

}  // namespace

int main(int argc, char** argv) {
  return analysis::storm::Main<analysis::AdmitStormConfig>(
      {"admitstorm", analysis::storm::AdmitStormFlags(), Run, {}, {}}, argc,
      argv);
}
