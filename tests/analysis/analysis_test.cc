// Analysis-layer tests: the figure/table generators must reproduce the
// paper's published numbers (exactly for Table 1, within tolerance for the
// Figure 3 distribution, in shape for the growth curves).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/bugdb.h"
#include "src/analysis/callgraph.h"
#include "src/analysis/growth.h"
#include "src/analysis/matrix.h"
#include "src/analysis/storm.h"
#include "src/analysis/stormmain.h"
#include "src/analysis/trafficgen.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/verifier.h"

namespace analysis {
namespace {

TEST(BugDbTest, CensusMatchesPaperTable1Exactly) {
  const auto census = BugCensus();
  const auto row = [&](const char* category) {
    return census.at(category);
  };
  EXPECT_EQ(row("Arbitrary read/write").total, 3);
  EXPECT_EQ(row("Arbitrary read/write").helper, 1);
  EXPECT_EQ(row("Arbitrary read/write").verifier, 2);
  EXPECT_EQ(row("Deadlock/Hang").total, 2);
  EXPECT_EQ(row("Integer overflow/underflow").total, 2);
  EXPECT_EQ(row("Integer overflow/underflow").helper, 2);
  EXPECT_EQ(row("Kernel pointer leak").total, 5);
  EXPECT_EQ(row("Kernel pointer leak").verifier, 5);
  EXPECT_EQ(row("Memory leak").total, 2);
  EXPECT_EQ(row("Null-pointer dereference").total, 7);
  EXPECT_EQ(row("Null-pointer dereference").helper, 6);
  EXPECT_EQ(row("Out-of-bound access").total, 7);
  EXPECT_EQ(row("Out-of-bound access").verifier, 6);
  EXPECT_EQ(row("Reference count leak").total, 1);
  EXPECT_EQ(row("Use-after-free").total, 2);
  EXPECT_EQ(row("Misc").total, 9);
  EXPECT_EQ(row("Total").total, 40);
  EXPECT_EQ(row("Total").helper, 18);
  EXPECT_EQ(row("Total").verifier, 22);
}

TEST(BugDbTest, EveryBugYearInStudyWindow) {
  for (const BugEntry& bug : BugDatabase()) {
    EXPECT_GE(bug.year, 2021) << bug.reference;
    EXPECT_LE(bug.year, 2022) << bug.reference;
  }
}

TEST(BugDbTest, ModeledBugsReferenceRealFaultIds) {
  const auto modeled = ModeledBugs();
  EXPECT_GE(modeled.size(), 10u);
  for (const BugEntry& bug : modeled) {
    bool found = false;
    for (const ebpf::FaultInfo& info : ebpf::FaultRegistry::Catalog()) {
      if (info.id == bug.fault_id) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << bug.fault_id;
  }
}

TEST(GrowthTest, VerifierLocSeriesMatchesFig2Shape) {
  const auto series = VerifierLocSeries();
  ASSERT_EQ(series.size(), 10u);
  // Monotone.
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].value, series[i - 1].value);
  }
  // Endpoint magnitudes: ~2k in 2014 (paper), extended past the paper's
  // 2022 window (~12k) to the v6.12 sched_ext point.
  EXPECT_NEAR(static_cast<double>(series.front().value), 2400, 600);
  EXPECT_NEAR(static_cast<double>(series.back().value), 12500, 1500);
  EXPECT_EQ(series.front().year, 2014);
  EXPECT_EQ(series.back().year, 2024);
}

TEST(GrowthTest, HelperSeriesGrowsSteadily) {
  simkern::Kernel kernel;
  ebpf::Bpf bpf(kernel);
  const auto series = HelperCountSeries(bpf.helpers());
  ASSERT_EQ(series.size(), 10u);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].value, series[i - 1].value);
  }
  // Paper: ~50 per two years at 1:1; our registry is ~1:3 scale.
  const double rate = HelpersPerTwoYears(series);
  EXPECT_GT(rate, 10.0);
  EXPECT_LT(rate, 30.0);
}

TEST(CallgraphTest, DistributionMatchesFig3) {
  simkern::Kernel kernel;
  ebpf::Bpf bpf(kernel);
  const ComplexitySummary summary =
      AnalyzeHelperComplexity(bpf.helpers(), kernel);
  ASSERT_GE(summary.total_helpers, 75u);
  // Paper: 52.2 % of helpers reach >= 30 functions; 34.5 % reach >= 500.
  EXPECT_NEAR(summary.fraction_ge_30, 0.522, 0.06);
  EXPECT_NEAR(summary.fraction_ge_500, 0.345, 0.04);
  // bpf_sys_bpf is the heaviest (paper: 4845 nodes; ours 4801).
  EXPECT_EQ(summary.helpers.front().name, "bpf_sys_bpf");
  EXPECT_NEAR(static_cast<double>(summary.max_nodes), 4845, 100);
  // Trivial helpers exist (bpf_get_current_pid_tgid calls nothing).
  EXPECT_EQ(summary.min_nodes, 1u);
}

TEST(MatrixTest, PropertiesSplitLanguageRuntimeSupervision) {
  const auto& matrix = SafetyMatrix();
  ASSERT_EQ(matrix.size(), 7u);
  int language = 0, runtime = 0, supervision = 0;
  for (const SafetyProperty& row : matrix) {
    if (row.enforcement == "Language safety") {
      ++language;
    } else if (row.enforcement == "Runtime protection") {
      ++runtime;
    } else if (row.enforcement == "Supervision") {
      ++supervision;
    }
    EXPECT_FALSE(row.probe.empty());
  }
  EXPECT_EQ(language, 3);  // exactly the paper's split...
  EXPECT_EQ(runtime, 3);
  EXPECT_EQ(supervision, 1);  // ...plus the availability row beyond it
}

TEST(WorkloadsTest, AllBuildersProduceVerifiableOrIntentionallyBadProgs) {
  simkern::Kernel kernel;
  ebpf::Bpf bpf(kernel);
  ASSERT_TRUE(kernel.BootstrapWorkload().ok());
  ebpf::MapSpec spec;
  spec.type = ebpf::MapType::kArray;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 4;
  spec.name = "w";
  const int fd = bpf.maps().Create(spec).value();

  // These must all at least *build*.
  EXPECT_TRUE(BuildSysBpfNullCrash().ok());
  EXPECT_TRUE(BuildNestedLoopStall(fd, 3, 16).ok());
  EXPECT_TRUE(BuildArbitraryReadExploit(fd, 64).ok());
  EXPECT_TRUE(BuildJmp32BoundsExploit(fd).ok());
  EXPECT_TRUE(BuildPtrLeakExploit(fd).ok());
  EXPECT_TRUE(BuildDoubleSpinLock(fd).ok());
  EXPECT_TRUE(BuildSkLookupNoRelease().ok());
  EXPECT_TRUE(BuildSkLookupWithRelease().ok());
  EXPECT_TRUE(BuildGetTaskStackErrorPath().ok());
  EXPECT_TRUE(BuildTaskStorageNullOwner(fd).ok());
  EXPECT_TRUE(BuildArrayOverflowExploit(fd, 3).ok());
  EXPECT_TRUE(BuildJitHijackVictim().ok());
  EXPECT_TRUE(BuildStraightLine(100).ok());
  EXPECT_TRUE(BuildBranchDiamonds(4).ok());
  EXPECT_TRUE(BuildCountedLoop(10).ok());
  EXPECT_TRUE(BuildPacketCounter(fd).ok());

  // And the well-formed ones must verify on a default kernel.
  ebpf::VerifyOptions opts;
  opts.version = kernel.version();
  opts.faults = &bpf.faults();
  for (const auto& prog :
       {BuildSysBpfNullCrash(), BuildNestedLoopStall(fd, 2, 8),
        BuildGetTaskStackErrorPath(), BuildTaskStorageNullOwner(fd),
        BuildArrayOverflowExploit(fd, 3), BuildJitHijackVictim(),
        BuildStraightLine(64), BuildBranchDiamonds(6),
        BuildCountedLoop(32), BuildPacketCounter(fd),
        BuildSkLookupWithRelease()}) {
    ASSERT_TRUE(prog.ok());
    auto result = ebpf::Verify(prog.value(), bpf.maps(), bpf.helpers(),
                               opts);
    EXPECT_TRUE(result.ok())
        << prog.value().name << ": " << result.status().ToString();
  }
}

TEST(VerifierFeatureTest, TablePropertiesHold) {
  const auto& table = ebpf::VerifierFeatureTable();
  EXPECT_EQ(table.size(), 17u);
  // Versions are sorted.
  for (size_t i = 1; i < table.size(); ++i) {
    EXPECT_LE(table[i - 1].introduced, table[i].introduced);
  }
  // The bpf2bpf pass carries the "500 lines" the paper quotes [45].
  bool found = false;
  for (const auto& info : table) {
    if (info.name == "bpf2bpf") {
      EXPECT_EQ(info.linux_loc, 500u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Budget steps at the documented versions.
  EXPECT_EQ(ebpf::InsnBudgetAtVersion(simkern::kV3_18), 65'536u);
  EXPECT_EQ(ebpf::InsnBudgetAtVersion(simkern::kV4_14), 131'072u);
  EXPECT_EQ(ebpf::InsnBudgetAtVersion(simkern::kV5_2), 1'000'000u);
}

// ---- storm driver: every tool's replay line parses back to its config ----

// Formats the replay line of `config` — which must set every flag to a
// non-default value — parses it back through the driver, and requires
// every flag's field to come out equal.
template <typename Config>
void ExpectReplayRoundTrip(std::string_view tool,
                           const storm::FlagTable<Config>& flags,
                           const Config& config) {
  const std::string line = storm::ReplayLine(tool, flags, config);
  std::vector<std::string_view> words;
  for (std::size_t start = 0; start < line.size();) {
    const std::size_t end = std::min(line.find(' ', start), line.size());
    words.push_back(std::string_view(line).substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(words.front(), tool);
  Config parsed;
  ASSERT_TRUE(storm::Parse(flags, std::span(words).subspan(1), parsed))
      << line;
  for (const storm::Flag<Config>& flag : flags) {
    EXPECT_NE(storm::Values(flag, config), storm::Values(flag, Config{}))
        << "--" << flag.name << " left at its default";
    EXPECT_EQ(storm::Values(flag, parsed), storm::Values(flag, config))
        << "--" << flag.name << " lost in: " << line;
  }
}

TEST(StormDriverTest, EveryToolsReplayLineRoundTrips) {
  ChaosConfig chaos;
  chaos.seed = 7;
  chaos.ops = 123;
  chaos.cpus = 3;
  chaos.toggle_faults = false;
  chaos.engine = ebpf::ExecEngine::kLegacy;
  ExpectReplayRoundTrip("chaos", storm::ChaosFlags(), chaos);

  SchedStormConfig sched;
  sched.seed = 7;
  sched.ops = 123;
  sched.cpus = 3;
  sched.toggle_faults = false;
  ExpectReplayRoundTrip("schedstorm", storm::SchedStormFlags(), sched);

  AdmitStormConfig admit;
  admit.seed = 7;
  admit.rounds = 5;
  admit.ops_per_round = 17;
  admit.workers = 2;
  admit.queue_capacity = 9;
  admit.cache_enabled = false;
  admit.toggle_faults = false;
  admit.engine = ebpf::ExecEngine::kLegacy;
  ExpectReplayRoundTrip("admitstorm", storm::AdmitStormFlags(), admit);

  PermStormConfig perm;
  perm.seed = 7;
  perm.ops = 123;
  perm.toggle_faults = false;
  ExpectReplayRoundTrip("permstorm", storm::PermStormFlags(), perm);

  TrafficConfig traffic;
  traffic.seed = 7;
  traffic.events = 321;
  traffic.cpus = 2;
  ExpectReplayRoundTrip("trafficgen", storm::TrafficFlags(), traffic);

  RangeFuzzOptions fuzz;
  fuzz.seed = 7;
  fuzz.programs = 11;
  fuzz.execs = 5;
  fuzz.body_len = 9;
  fuzz.verifier_faults = {"verifier.alu32_bounds_trunc",
                          "verifier.tnum_mul_precision"};
  fuzz.replay_program_seed = 99;
  ExpectReplayRoundTrip("rangefuzz", storm::RangeFuzzFlags(), fuzz);
}

TEST(StormDriverTest, ParseRejectsWhatNoTableEntryAccepts) {
  const auto flags = storm::ChaosFlags();
  ChaosConfig config;
  const auto parse = [&](std::vector<std::string_view> words) {
    return storm::Parse(flags, std::span(words), config);
  };
  EXPECT_FALSE(parse({"--cpus", "0"})) << "cpus has a minimum of 1";
  EXPECT_FALSE(parse({"--seed"})) << "missing value";
  EXPECT_FALSE(parse({"--seed", "12x"})) << "malformed value";
  EXPECT_FALSE(parse({"--engine", "jit"}));
  EXPECT_FALSE(parse({"--bogus"}));
  EXPECT_TRUE(parse({"--seed", "0x10", "--no-faults", "--faults"}));
  EXPECT_EQ(config.seed, 16u);
  EXPECT_TRUE(config.toggle_faults);
  // admitstorm has only the negative spelling of its switches.
  AdmitStormConfig admit;
  std::vector<std::string_view> words = {"--cache"};
  EXPECT_FALSE(storm::Parse(storm::AdmitStormFlags(), std::span(words), admit));
}

// ---- storm kit: the rig and its survival check --------------------------

TEST(StormRigTest, SurvivalCheckNamesWhatIsLeftBehind) {
  storm::Rig rig(simkern::kV6_12, 1);
  ASSERT_TRUE(rig.ok()) << rig.status.ToString();
  EXPECT_EQ(rig.Check(), "");

  const simkern::LockId lock = rig.kernel.locks().Create("planted");
  ASSERT_TRUE(rig.kernel.locks().Acquire(lock, "test").ok());
  EXPECT_EQ(rig.Check(), "1 lock(s) still held");
  ASSERT_TRUE(rig.kernel.locks().Release(lock).ok());
  EXPECT_EQ(rig.Check(), "");

  rig.kernel.rcu().ReadLock(rig.kernel.clock(), "test");
  EXPECT_EQ(rig.Check(), "RCU read-side critical section leaked");
  ASSERT_TRUE(rig.kernel.rcu().ReadUnlock().ok());
  EXPECT_EQ(rig.Check(), "");

  const simkern::ObjectId object = rig.kernel.objects().Create(
      simkern::ObjectType::kOther, "planted-object");
  rig.Rebaseline();
  EXPECT_EQ(rig.Check(), "");
  ASSERT_TRUE(rig.kernel.objects().Acquire(object).ok());
  EXPECT_EQ(rig.Check(), "1 refcount leak(s), first: planted-object");
  ASSERT_TRUE(rig.kernel.objects().Release(object).ok());
  EXPECT_EQ(rig.Check(), "");
}

TEST(StormRigTest, KernelHasExactlyTheCpusAsked) {
  for (const xbase::u32 cpus : {1u, 4u}) {
    storm::Rig rig(simkern::kV5_18, cpus);
    ASSERT_TRUE(rig.ok()) << rig.status.ToString();
    EXPECT_EQ(rig.kernel.num_cpus(), cpus);
    // The pool runs exactly when there is more than one CPU.
    EXPECT_EQ(rig.kernel.cpus() != nullptr, cpus > 1);
  }
}

TEST(SchedStormDeterminism, SameSeedSameRun) {
  SchedStormConfig config;
  config.seed = 42;
  config.ops = 1500;
  const SchedStormReport a = RunSchedStorm(config);
  const SchedStormReport b = RunSchedStorm(config);
  ASSERT_TRUE(a.ok) << a.failure;
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.stats.ticks, b.stats.ticks);
  EXPECT_EQ(a.stats.dispatches, b.stats.dispatches);
  EXPECT_EQ(a.stats.fallback_picks, b.stats.fallback_picks);
  EXPECT_EQ(a.stats.invalid_picks, b.stats.invalid_picks);
  EXPECT_EQ(a.stats.starvation_events, b.stats.starvation_events);
  EXPECT_EQ(a.stats.supervisor_trips, b.stats.supervisor_trips);
  EXPECT_EQ(a.stats.supervisor_evictions, b.stats.supervisor_evictions);
  EXPECT_EQ(a.stats.max_wait_seen_ns, b.stats.max_wait_seen_ns);
  EXPECT_EQ(a.stats.final_sim_time_ns, b.stats.final_sim_time_ns);
}

TEST(AdmitStormTest, ScheduleIsAPureFunctionOfTheConfig) {
  // The submission schedule must not depend on which verdicts raced the
  // fault toggles: two runs of one config submit the same stream.
  AdmitStormConfig config;
  config.seed = 1;
  config.rounds = 6;
  config.ops_per_round = 64;
  config.workers = 2;
  const AdmitStormReport first = RunAdmitStorm(config);
  const AdmitStormReport second = RunAdmitStorm(config);
  ASSERT_TRUE(first.ok) << first.failure;
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_EQ(first.stats.submissions, second.stats.submissions);
  EXPECT_EQ(first.stats.bpf_submissions, second.stats.bpf_submissions);
  EXPECT_EQ(first.stats.ext_submissions, second.stats.ext_submissions);
  EXPECT_EQ(first.stats.fault_toggles, second.stats.fault_toggles);
}

TEST(TrafficTest, SimulatedResultsArePureFunctionsOfSeedAndCpus) {
  // Every event runs on the CPU it was submitted to, so each CPU's clock,
  // task, fire and counter figures replay exactly. Wall time and host-lock
  // writer counts are host observations and are not compared.
  TrafficConfig config;
  config.seed = 1;
  config.events = 5000;
  config.cpus = 4;
  const TrafficReport first = RunTraffic(config);
  const TrafficReport second = RunTraffic(config);
  ASSERT_TRUE(first.ok) << first.failure;
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_EQ(first.sim_elapsed_ns, second.sim_elapsed_ns);
  EXPECT_EQ(first.events_per_sim_ms, second.events_per_sim_ms);
  ASSERT_EQ(first.per_cpu.size(), 4u);
  ASSERT_EQ(second.per_cpu.size(), 4u);
  for (std::size_t cpu = 0; cpu < first.per_cpu.size(); ++cpu) {
    const TrafficCpuStats& a = first.per_cpu[cpu];
    const TrafficCpuStats& b = second.per_cpu[cpu];
    EXPECT_EQ(a.executed, b.executed) << "cpu " << cpu;
    EXPECT_EQ(a.fires, b.fires) << "cpu " << cpu;
    EXPECT_EQ(a.sim_advanced_ns, b.sim_advanced_ns) << "cpu " << cpu;
    EXPECT_EQ(a.packet_count, b.packet_count) << "cpu " << cpu;
  }
}

}  // namespace
}  // namespace analysis
