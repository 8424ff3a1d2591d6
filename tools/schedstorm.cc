// schedstorm: deterministic chaos harness for the scheduler hook family.
//
//   schedstorm                 one storm with the default seed/op count
//   schedstorm --seed N        replay a specific seed
//   schedstorm --ops M         number of randomized operations (default 10000)
//   schedstorm --cpus N        cross-CPU storm: one scheduler core per
//                              simulated CPU, tick bursts run concurrently
//                              on real CPU-bound threads, fault toggles
//                              race the in-flight picks, invariants are
//                              asserted machine-wide at the burst barrier
//   schedstorm --no-faults     leave the sched fault registry alone
//   schedstorm --check-faults  per-fault-class detection/containment matrix
//                              instead of a storm (plus clean baselines)
//   schedstorm --quiet         print only the verdict line
//
// Every storm is a pure function of its flags, so any failure printed by a
// test or CI leg replays from the replay line it prints.
// Exit status: 0 all invariants/checks held, 1 something broke, 2 usage.
#include <cstdio>

#include "src/analysis/stormmain.h"
#include "src/xbase/strfmt.h"

namespace {

void PrintStats(const analysis::SchedStormStats& stats) {
  std::printf("  ops executed          %llu (%llu ticks)\n",
              static_cast<unsigned long long>(stats.ops_executed),
              static_cast<unsigned long long>(stats.ticks));
  std::printf("  dispatches            %llu (ext %llu, default %llu, "
              "fallback %llu, yields %llu)\n",
              static_cast<unsigned long long>(stats.dispatches),
              static_cast<unsigned long long>(stats.ext_picks),
              static_cast<unsigned long long>(stats.default_picks),
              static_cast<unsigned long long>(stats.fallback_picks),
              static_cast<unsigned long long>(stats.yields));
  std::printf("  contained faults      %llu deadline misses, %llu invalid "
              "picks, %llu starvation events, %llu oopses\n",
              static_cast<unsigned long long>(stats.deadline_misses),
              static_cast<unsigned long long>(stats.invalid_picks),
              static_cast<unsigned long long>(stats.starvation_events),
              static_cast<unsigned long long>(stats.oopses_contained));
  std::printf("  attach/detach         %llu / %llu; %llu fault toggles "
              "(%zu of 4 sched defects enabled at some point)\n",
              static_cast<unsigned long long>(stats.attaches),
              static_cast<unsigned long long>(stats.detaches),
              static_cast<unsigned long long>(stats.fault_toggles),
              stats.faults_ever_injected);
  std::printf("  tasks                 %llu created, %llu exited\n",
              static_cast<unsigned long long>(stats.task_creates),
              static_cast<unsigned long long>(stats.task_exits));
  analysis::storm::PrintSupervisor(stats);
  std::printf("  max runnable wait     %.3f ms\n",
              static_cast<double>(stats.max_wait_seen_ns) / 1e6);
  std::printf("  simulated time        %.3f ms\n",
              static_cast<double>(stats.final_sim_time_ns) / 1e6);
}

int RunFaultChecks() {
  std::printf("schedstorm: fault detection/containment matrix\n");
  const std::vector<analysis::SchedFaultCheck> checks =
      analysis::RunSchedFaultChecks();
  bool all_passed = true;
  for (const analysis::SchedFaultCheck& check : checks) {
    std::printf("  %-32s %s\n", check.name.c_str(),
                check.passed ? "contained" : "FAIL");
    if (!check.passed) {
      std::printf("    %s\n", check.detail.c_str());
      all_passed = false;
    }
  }
  if (!all_passed) {
    std::printf("schedstorm: FAIL — a fault class escaped detection or "
                "containment\n");
    return 1;
  }
  std::printf("schedstorm: OK — every sched fault class detected, "
              "attributed and contained; clean policies charge-free\n");
  return 0;
}

analysis::storm::Outcome Run(const analysis::SchedStormConfig& config,
                             bool quiet) {
  const analysis::SchedStormReport report = analysis::RunSchedStorm(config);
  if (!quiet) {
    PrintStats(report.stats);
  }
  if (!report.ok) {
    return {1, report.failure};
  }
  return {0, xbase::StrFormat(
                 "every invariant held after each of %llu ops (kernel "
                 "alive, runqueue sane, every runnable task kept "
                 "progressing)",
                 static_cast<unsigned long long>(report.stats.ops_executed))};
}

}  // namespace

int main(int argc, char** argv) {
  return analysis::storm::Main<analysis::SchedStormConfig>(
      {"schedstorm", analysis::storm::SchedStormFlags(), Run, RunFaultChecks,
       {}},
      argc, argv);
}
