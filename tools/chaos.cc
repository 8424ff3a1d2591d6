// chaos: deterministic chaos harness for the supervised extension stack.
//
//   chaos                      one run with the default seed/op count
//   chaos --seed N             replay a specific seed
//   chaos --ops M              number of randomized operations (default 10000)
//   chaos --no-faults          leave the fault registry alone (calm mode)
//   chaos --cpus N             cross-CPU storm: every fire op bursts two
//                              fires per CPU on real CPU-bound threads,
//                              each tallied on its executing CPU, fault
//                              toggles race the in-flight fires, and after
//                              the post-burst Drain every fire must have
//                              run and served + failed + skipped must equal
//                              2·N·(attachments on the hook), alongside the
//                              machine-wide invariants
//   chaos --engine E           execution engine for hook fires:
//                              threaded (default) or legacy
//   chaos --quiet              print only the verdict line
//
// Every run is a pure function of its flags, so any failure printed by a
// test or CI leg replays from the replay line it prints (single-CPU runs
// bit-identically; see --cpus). Exit status: 0 all invariants held every
// step, 1 an invariant broke, 2 usage error.
#include <cstdio>

#include "src/analysis/stormmain.h"
#include "src/xbase/strfmt.h"

namespace {

void PrintStats(const analysis::ChaosStats& stats) {
  std::printf("  ops executed          %llu\n",
              static_cast<unsigned long long>(stats.ops_executed));
  std::printf("  hook fires            %llu (served %llu, failed %llu, "
              "skipped %llu)\n",
              static_cast<unsigned long long>(stats.fires),
              static_cast<unsigned long long>(stats.attachments_served),
              static_cast<unsigned long long>(stats.attachments_failed),
              static_cast<unsigned long long>(stats.attachments_skipped));
  std::printf("  loads                 %llu ok, %llu rejected; %llu unloads\n",
              static_cast<unsigned long long>(stats.loads_ok),
              static_cast<unsigned long long>(stats.loads_rejected),
              static_cast<unsigned long long>(stats.unloads));
  std::printf("  attach/detach         %llu / %llu\n",
              static_cast<unsigned long long>(stats.attaches),
              static_cast<unsigned long long>(stats.detaches));
  std::printf("  fault toggles         %llu (%zu of %zu defects enabled at "
              "some point)\n",
              static_cast<unsigned long long>(stats.fault_toggles),
              stats.faults_ever_injected, stats.fault_catalog_size);
  std::printf("  oopses contained      %llu\n",
              static_cast<unsigned long long>(stats.oopses_contained));
  analysis::storm::PrintSupervisor(stats);
  std::printf("  simulated time        %.3f ms\n",
              static_cast<double>(stats.final_sim_time_ns) / 1e6);
}

analysis::storm::Outcome Run(const analysis::ChaosConfig& config,
                             bool quiet) {
  const analysis::ChaosReport report = analysis::RunChaos(config);
  if (!quiet) {
    PrintStats(report.stats);
  }
  if (!report.ok) {
    return {1, report.failure};
  }
  return {0, xbase::StrFormat(
                 "every invariant held after each of %llu ops (kernel "
                 "alive, refcounts/locks/RCU balanced, supervisor "
                 "consistent)",
                 static_cast<unsigned long long>(report.stats.ops_executed))};
}

}  // namespace

int main(int argc, char** argv) {
  return analysis::storm::Main<analysis::ChaosConfig>(
      {"chaos", analysis::storm::ChaosFlags(), Run, {}, {}}, argc, argv);
}
