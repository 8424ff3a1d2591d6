// SCHED — task progress under a faulty pick policy, supervised (watchdog
// deadline + pick validation + starvation detector + round-robin fail-over)
// vs unsupervised (the extension's verdict is law). For each injectable
// scheduler fault class the bench runs the matched witness policy for a
// fixed number of ticks and measures whether every runnable task kept
// progressing in the second half of the run. The supervised scheduler must
// keep 100% of tasks progressing under every fault; the unsupervised one
// stalls the CPU, starves the hidden task, or loses the kernel outright.
//
// Exits nonzero if the availability gate fails; `--json PATH` also writes
// the table's rows to the BENCH_sched.json artifact.
#include <map>
#include <string_view>
#include <vector>

#include "bench/harness.h"
#include "src/analysis/workloads.h"
#include "src/core/sched.h"
#include "src/core/supervisor.h"
#include "src/ebpf/fault.h"
#include "src/xbase/strfmt.h"

namespace {

constexpr int kTicks = 400;
constexpr xbase::u64 kBoundNs = 10 * simkern::kNsPerMs;

struct Scenario {
  const char* name;         // JSON-stable scenario key
  std::string_view fault;   // injected defect ("" = clean)
  xbase::Result<ebpf::Program> (*policy)();
};

const Scenario kScenarios[] = {
    {"clean", {}, analysis::BuildSchedPickLongestWaiting},
    {"stall_loop", ebpf::kFaultSchedStallLoop,
     analysis::BuildSchedPickViaDefault},
    {"pick_invalid_pid", ebpf::kFaultSchedPickInvalidPid,
     analysis::BuildSchedPickFirst},
    {"runnable_filter", ebpf::kFaultSchedRunnableFilter,
     analysis::BuildSchedPickLongestWaiting},
    {"crash_on_pick", ebpf::kFaultSchedCrashOnPick,
     analysis::BuildSchedPickLongestWaiting},
};

struct Outcome {
  bool kernel_survived = false;
  double dispatch_rate = 0;    // fraction of ticks that ran a task
  double progressed_pct = 0;   // % of tasks that ran in the second half
  double max_wait_ms = 0;      // longest wait ever observed
  xbase::u64 contained = 0;    // failures detected & charged (supervised)
};

Outcome RunScenario(const Scenario& scenario, bool supervised) {
  simkern::KernelConfig kernel_config;
  kernel_config.version = simkern::kV6_12;
  kernel_config.unprivileged_bpf_disabled = false;
  safex::System rig(kernel_config,
                    supervised ? std::optional(safex::SupervisorConfig{})
                               : std::nullopt);
  safex::SchedConfig sched_config;
  sched_config.supervised = supervised;
  sched_config.starvation_bound_ns = kBoundNs;
  safex::SchedCore sched(rig.kernel, *rig.hooks, sched_config);
  if (!sched.Init().ok()) {
    return Outcome{};
  }

  if (!scenario.fault.empty()) {
    rig.bpf.faults().Inject(scenario.fault);
  }
  const auto prog_id = rig.loader.Load(scenario.policy().value()).value();
  (void)rig.hooks->AttachProgram(safex::HookPoint::kSchedPickNext, prog_id)
      .value();

  // The unsupervised loop has no reclaim pass; seed the queue honestly.
  const std::vector<xbase::u32> pids = rig.kernel.tasks().Pids();
  for (xbase::u32 pid : pids) {
    (void)rig.kernel.runqueue().Enqueue(pid, rig.kernel.clock().now_ns());
  }

  Outcome outcome;
  std::map<xbase::u32, xbase::u64> runs_at_half;
  for (int tick = 0; tick < kTicks; ++tick) {
    (void)sched.Tick();
    const double wait_ms =
        static_cast<double>(rig.kernel.runqueue().MaxWaitNs(
            rig.kernel.clock().now_ns())) /
        1e6;
    if (wait_ms > outcome.max_wait_ms) {
      outcome.max_wait_ms = wait_ms;
    }
    if (tick == kTicks / 2 - 1) {
      for (xbase::u32 pid : pids) {
        runs_at_half[pid] = rig.kernel.runqueue().StatsOf(pid).runs;
      }
    }
  }

  outcome.kernel_survived = !rig.kernel.crashed();
  outcome.dispatch_rate =
      static_cast<double>(sched.stats().dispatches) / kTicks;
  // A task "progresses" only if it ran during the second half of the run,
  // on a kernel that is still alive — a dead kernel schedules nobody.
  int progressed = 0;
  if (outcome.kernel_survived) {
    for (xbase::u32 pid : pids) {
      if (rig.kernel.runqueue().StatsOf(pid).runs > runs_at_half[pid]) {
        ++progressed;
      }
    }
  }
  outcome.progressed_pct =
      100.0 * progressed / static_cast<double>(pids.size());
  outcome.contained = supervised ? rig.supervisor->failures() : 0;
  return outcome;
}

struct Row {
  const Scenario* scenario;
  Outcome supervised;
  Outcome unsupervised;
};

// Counts the rows that break the availability gate.
int Violations(const std::vector<Row>& rows) {
  int violations = 0;
  for (const Row& row : rows) {
    // The supervised scheduler must keep every task progressing on a live
    // kernel, clean or faulted.
    const bool supervised_ok = row.supervised.kernel_survived &&
                               row.supervised.progressed_pct >= 100.0;
    // Every fault must visibly hurt the unsupervised scheduler — stall,
    // starvation or a dead kernel. (The clean leg must hurt nobody.)
    const bool faulted = !row.scenario->fault.empty();
    const bool unsupervised_ok =
        faulted == (row.unsupervised.progressed_pct < 100.0);
    violations += supervised_ok && unsupervised_ok ? 0 : 1;
  }
  return violations;
}

// Prints the outcome's table line and records it as a row.
void Report(harness::Bench& bench, const char* name, const char* mode,
            const Outcome& outcome) {
  std::printf("%-18s | %-12s | %-8s | %7.1f%% | %9.1f%% | %8.2f | %9llu\n",
              name, mode, outcome.kernel_survived ? "intact" : "CRASHED",
              100.0 * outcome.dispatch_rate, outcome.progressed_pct,
              outcome.max_wait_ms,
              static_cast<unsigned long long>(outcome.contained));
  bench.Row({{"name", name},
             {"mode", mode},
             {"kernel_survived", outcome.kernel_survived},
             {"dispatch_rate", outcome.dispatch_rate},
             {"tasks_progressed_pct", outcome.progressed_pct},
             {"max_wait_ms", outcome.max_wait_ms},
             {"failures_contained", outcome.contained}});
}

}  // namespace

int main(int argc, char** argv) {
  harness::Bench bench("sched_availability", argc, argv);
  harness::Title(xbase::StrFormat(
      "Task progress under faulty pick policies (%d scheduler ticks)",
      kTicks));
  std::printf("%-18s | %-12s | %-8s | %8s | %10s | %8s | %9s\n", "fault",
              "mode", "kernel", "dispatch", "progressed", "max wait",
              "contained");
  harness::Rule(100);
  std::vector<Row> rows;
  for (const Scenario& scenario : kScenarios) {
    Row row;
    row.scenario = &scenario;
    row.supervised = RunScenario(scenario, true);
    row.unsupervised = RunScenario(scenario, false);
    Report(bench, scenario.name, "supervised", row.supervised);
    Report(bench, scenario.name, "unsupervised", row.unsupervised);
    rows.push_back(row);
  }
  harness::Rule(100);
  harness::Note("progressed = % of tasks that ran during the second half "
                "of the run on a live kernel; max wait in ms");
  harness::Note("every witness policy is verifier-APPROVED sched_ext "
                "bytecode: the defects live in the helpers, below the "
                "verifier's horizon, or in the policy's intent");
  const int violations = Violations(rows);
  bench.Gate("availability", "scenarios violating", violations, 0,
             violations == 0);
  return bench.Finish();
}
