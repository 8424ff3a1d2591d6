// Scheduler hook family tests: the RunQueue substrate, the privilege model
// (sched helpers only from sched_ext, sched_ext only from privileged
// loaders, sched_ext only on the scheduler hook), and the SchedCore
// containment ladder — every injectable scheduler fault must be detected,
// attributed to the offending attachment, and survived by fail-over to the
// built-in round-robin policy, while the unsupervised loop demonstrably
// stalls or starves under the same faults.
#include <gtest/gtest.h>

#include "src/analysis/workloads.h"
#include "src/core/sched.h"
#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/ebpf/loader.h"

namespace safex {
namespace {

constexpr xbase::u64 kMs = simkern::kNsPerMs;

// ---- RunQueue unit tests ---------------------------------------------------

TEST(RunQueueUnit, EnqueueDequeueContains) {
  simkern::RunQueue rq;
  EXPECT_TRUE(rq.Enqueue(10, 0).ok());
  EXPECT_TRUE(rq.Enqueue(20, 5).ok());
  EXPECT_EQ(rq.Enqueue(10, 6).code(), xbase::Code::kAlreadyExists);
  EXPECT_TRUE(rq.Contains(10));
  EXPECT_EQ(rq.runnable_count(), 2u);
  EXPECT_TRUE(rq.Dequeue(10).ok());
  EXPECT_FALSE(rq.Contains(10));
  EXPECT_EQ(rq.Dequeue(10).code(), xbase::Code::kNotFound);
}

TEST(RunQueueUnit, DispatchCycleIsRoundRobin) {
  simkern::RunQueue rq;
  (void)rq.Enqueue(1, 0);
  (void)rq.Enqueue(2, 0);
  (void)rq.Enqueue(3, 0);
  std::vector<xbase::u32> order;
  for (int i = 0; i < 6; ++i) {
    const xbase::u32 pid = rq.PickDefault().value();
    order.push_back(pid);
    ASSERT_TRUE(rq.MarkRan(pid, i).ok());
    ASSERT_TRUE(rq.Enqueue(pid, i).ok());
  }
  EXPECT_EQ(order, (std::vector<xbase::u32>{1, 2, 3, 1, 2, 3}));
  EXPECT_EQ(rq.StatsOf(1).runs, 2u);
}

TEST(RunQueueUnit, WaitTracksEnqueueTime) {
  simkern::RunQueue rq;
  (void)rq.Enqueue(7, 100);
  EXPECT_EQ(rq.WaitNs(7, 250).value(), 150u);
  EXPECT_EQ(rq.MaxWaitNs(250), 150u);
  EXPECT_FALSE(rq.WaitNs(8, 250).ok());
}

TEST(RunQueueUnit, StarvationScanIsEdgeTriggeredPerBound) {
  simkern::RunQueue rq;
  (void)rq.Enqueue(5, 0);
  EXPECT_TRUE(rq.ScanStarved(100, 50).empty()) << "below the bound";
  EXPECT_EQ(rq.ScanStarved(100, 120), std::vector<xbase::u32>{5});
  EXPECT_TRUE(rq.ScanStarved(100, 130).empty())
      << "already flagged for this bound";
  EXPECT_EQ(rq.ScanStarved(100, 225), std::vector<xbase::u32>{5})
      << "re-flagged one bound later";
  // Running clears the flag and the wait.
  ASSERT_TRUE(rq.MarkRan(5, 230).ok());
  (void)rq.Enqueue(5, 230);
  EXPECT_TRUE(rq.ScanStarved(100, 300).empty());
}

TEST(RunQueueUnit, DropErasesQueueEntryAndStats) {
  simkern::RunQueue rq;
  (void)rq.Enqueue(9, 0);
  (void)rq.MarkRan(9, 10);
  (void)rq.Enqueue(9, 10);
  rq.Drop(9);
  EXPECT_FALSE(rq.Contains(9));
  EXPECT_EQ(rq.StatsOf(9).runs, 0u) << "stats gone with the task";
}

// ---- privilege model -------------------------------------------------------

class SchedGatingTest : public ::testing::Test {
 protected:
  SchedGatingTest() {
    simkern::KernelConfig config;
    config.version = simkern::kV6_12;
    config.unprivileged_bpf_disabled = false;
    kernel_ = std::make_unique<simkern::Kernel>(config);
    bpf_ = std::make_unique<ebpf::Bpf>(*kernel_);
    loader_ = std::make_unique<ebpf::Loader>(*bpf_);
    EXPECT_TRUE(kernel_->BootstrapWorkload().ok());
  }

  std::unique_ptr<simkern::Kernel> kernel_;
  std::unique_ptr<ebpf::Bpf> bpf_;
  std::unique_ptr<ebpf::Loader> loader_;
};

TEST_F(SchedGatingTest, SchedHelpersRejectedOutsideSchedExt) {
  // An XDP program calling a sched-family helper must not verify.
  ebpf::ProgramBuilder b("xdp_calls_sched", ebpf::ProgType::kXdp);
  b.Ins(ebpf::CallHelper(ebpf::kHelperSchedYield))
      .Ins(ebpf::Mov64Imm(ebpf::R0, 2))
      .Ins(ebpf::Exit());
  auto id = loader_->Load(b.Build().value());
  ASSERT_FALSE(id.ok());
  EXPECT_NE(id.status().message().find("restricted to sched_ext"),
            std::string::npos)
      << id.status().message();
}

TEST_F(SchedGatingTest, NetHelpersRejectedInsideSchedExt) {
  // A sched_ext program has no packet; the net family is off limits.
  ebpf::ProgramBuilder b("sched_calls_net", ebpf::ProgType::kSchedExt);
  b.Ins(ebpf::Mov64Imm(ebpf::R1, 1))
      .Ins(ebpf::Mov64Imm(ebpf::R2, 0))
      .Ins(ebpf::CallHelper(ebpf::kHelperRedirect))
      .Ins(ebpf::Mov64Imm(ebpf::R0, 0))
      .Ins(ebpf::Exit());
  auto id = loader_->Load(b.Build().value());
  ASSERT_FALSE(id.ok());
  EXPECT_NE(id.status().message().find("not available to sched_ext"),
            std::string::npos)
      << id.status().message();
}

TEST_F(SchedGatingTest, SchedHelpersVersionGatedAt612) {
  // The same clean policy fails to verify as-of v6.1: the helpers do not
  // exist yet.
  const ebpf::Program prog = analysis::BuildSchedPickFirst().value();
  ebpf::LoadOptions old_opts;
  old_opts.version_override = simkern::kV6_1;
  EXPECT_FALSE(loader_->Load(prog, old_opts).ok());
  EXPECT_TRUE(loader_->Load(prog).ok());
}

TEST_F(SchedGatingTest, SchedExtRequiresPrivilegedLoader) {
  const ebpf::Program prog = analysis::BuildSchedPickFirst().value();
  ebpf::LoadOptions unpriv;
  unpriv.privileged = false;
  auto id = loader_->Load(prog, unpriv);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), xbase::Code::kPermissionDenied);
}

// ---- SchedCore -------------------------------------------------------------

SupervisorConfig SchedSupConfig() {
  SupervisorConfig config;
  config.window_ns = 100 * kMs;
  config.base_backoff_ns = 10 * kMs;
  config.probation_successes = 3;
  config.max_trips = 4;
  return config;
}

class SchedCoreTest : public ::testing::Test {
 protected:
  void Build(bool supervised) {
    simkern::KernelConfig kconfig;
    kconfig.version = simkern::kV6_12;
    kconfig.unprivileged_bpf_disabled = false;
    sys_ = std::make_unique<System>(
        kconfig, supervised ? std::optional(SchedSupConfig()) : std::nullopt);
    ASSERT_TRUE(sys_->ok());
    kernel_ = &sys_->kernel;
    bpf_ = &sys_->bpf;
    bpf_loader_ = &sys_->loader;
    supervisor_ = sys_->supervisor.get();
    hooks_ = sys_->hooks.get();
    SchedConfig sconfig;
    sconfig.supervised = supervised;
    sconfig.starvation_bound_ns = 10 * kMs;  // quick starvation detection
    sched_ = std::make_unique<SchedCore>(*kernel_, *hooks_, sconfig);
    ASSERT_TRUE(sched_->Init().ok());
  }

  // Loads a sched_ext policy and attaches it to the pick-next hook.
  xbase::u32 Attach(const ebpf::Program& prog) {
    auto prog_id = bpf_loader_->Load(prog);
    EXPECT_TRUE(prog_id.ok()) << prog_id.status().message();
    auto attach_id =
        hooks_->AttachProgram(HookPoint::kSchedPickNext, prog_id.value());
    EXPECT_TRUE(attach_id.ok()) << attach_id.status().message();
    return attach_id.value();
  }

  std::unique_ptr<System> sys_;
  simkern::Kernel* kernel_ = nullptr;
  ebpf::Bpf* bpf_ = nullptr;
  ebpf::Loader* bpf_loader_ = nullptr;
  Supervisor* supervisor_ = nullptr;  // null when unsupervised
  HookRegistry* hooks_ = nullptr;
  std::unique_ptr<SchedCore> sched_;
};

TEST_F(SchedCoreTest, SchedExtOnlyAttachesToSchedHookAndViceVersa) {
  Build(/*supervised=*/true);
  const auto sched_prog =
      bpf_loader_->Load(analysis::BuildSchedPickFirst().value());
  ASSERT_TRUE(sched_prog.ok());
  auto wrong_hook =
      hooks_->AttachProgram(HookPoint::kXdpIngress, sched_prog.value());
  EXPECT_EQ(wrong_hook.status().code(), xbase::Code::kFailedPrecondition);

  const auto xdp_prog =
      bpf_loader_->Load(analysis::BuildSkLookupWithRelease().value());
  ASSERT_TRUE(xdp_prog.ok());
  auto wrong_type =
      hooks_->AttachProgram(HookPoint::kSchedPickNext, xdp_prog.value());
  EXPECT_EQ(wrong_type.status().code(), xbase::Code::kFailedPrecondition);
}

TEST_F(SchedCoreTest, DefaultPolicyRoundRobinsAllTasks) {
  Build(/*supervised=*/true);
  // No extension attached; supervised reclaim makes every live task
  // runnable and the built-in policy round-robins them.
  for (int i = 0; i < 9; ++i) {
    const SchedTickOutcome outcome = sched_->Tick();
    EXPECT_NE(outcome.ran_pid, 0u);
    EXPECT_FALSE(outcome.from_extension);
  }
  const simkern::RunQueue& rq = kernel_->runqueue();
  for (xbase::u32 pid : kernel_->tasks().Pids()) {
    EXPECT_EQ(rq.StatsOf(pid).runs, 3u) << "pid " << pid;
  }
  EXPECT_EQ(sched_->stats().default_picks, 9u);
}

TEST_F(SchedCoreTest, HonestExtensionPolicyDrivesDispatch) {
  Build(/*supervised=*/true);
  const xbase::u32 attachment =
      Attach(analysis::BuildSchedPickLongestWaiting().value());
  for (int i = 0; i < 30; ++i) {
    const SchedTickOutcome outcome = sched_->Tick();
    EXPECT_NE(outcome.ran_pid, 0u);
    EXPECT_TRUE(outcome.from_extension);
  }
  EXPECT_EQ(sched_->stats().ext_picks, 30u);
  EXPECT_EQ(sched_->stats().fallback_picks, 0u);
  EXPECT_EQ(sched_->stats().starvation_events, 0u)
      << "longest-waiting is fair";
  EXPECT_EQ(supervisor_->HealthOf(attachment), ExtHealth::kHealthy);
  // Every task progressed.
  for (xbase::u32 pid : kernel_->tasks().Pids()) {
    EXPECT_GT(kernel_->runqueue().StatsOf(pid).runs, 0u) << "pid " << pid;
  }
}

TEST_F(SchedCoreTest, YieldingPolicyHandsOffToDefault) {
  Build(/*supervised=*/true);
  const xbase::u32 attachment = Attach(analysis::BuildSchedYield().value());
  for (int i = 0; i < 6; ++i) {
    const SchedTickOutcome outcome = sched_->Tick();
    EXPECT_TRUE(outcome.yielded);
    EXPECT_NE(outcome.ran_pid, 0u) << "yield still dispatches";
    EXPECT_FALSE(outcome.fell_back) << "a yield is not a rescue";
  }
  EXPECT_EQ(sched_->stats().yields, 6u);
  EXPECT_EQ(supervisor_->HealthOf(attachment), ExtHealth::kHealthy)
      << "yielding is not a failure";
}

TEST_F(SchedCoreTest, StallingPickMissesDeadlineAndStillDispatches) {
  Build(/*supervised=*/true);
  bpf_->faults().Inject(ebpf::kFaultSchedStallLoop);
  const xbase::u32 attachment =
      Attach(analysis::BuildSchedPickViaDefault().value());
  bool tripped = false;
  for (int i = 0; i < 10; ++i) {
    const SchedTickOutcome outcome = sched_->Tick();
    EXPECT_NE(outcome.ran_pid, 0u)
        << "tick " << i << ": a stalling policy must not stall the CPU";
    tripped |= supervisor_->HealthOf(attachment) == ExtHealth::kQuarantined;
  }
  EXPECT_GT(sched_->stats().deadline_misses, 0u);
  EXPECT_GT(sched_->stats().fallback_picks, 0u);
  EXPECT_TRUE(tripped) << "repeated deadline misses must trip the breaker";
  const ExtRecord* record = supervisor_->Find(attachment);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->failures_by_kind[static_cast<xbase::usize>(
                FailureKind::kDeadlineMiss)],
            0u);
  EXPECT_EQ(sched_->stats().dispatches, sched_->stats().ticks);
}

TEST_F(SchedCoreTest, InvalidPidPickIsContainedAndCharged) {
  Build(/*supervised=*/true);
  bpf_->faults().Inject(ebpf::kFaultSchedPickInvalidPid);
  const xbase::u32 attachment =
      Attach(analysis::BuildSchedPickFirst().value());
  for (int i = 0; i < 5; ++i) {
    const SchedTickOutcome outcome = sched_->Tick();
    EXPECT_NE(outcome.ran_pid, 0u) << "fallback must still dispatch";
    EXPECT_FALSE(outcome.from_extension);
  }
  EXPECT_GT(sched_->stats().invalid_picks, 0u);
  const ExtRecord* record = supervisor_->Find(attachment);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->failures_by_kind[static_cast<xbase::usize>(
                FailureKind::kInvalidPick)],
            0u);
}

TEST_F(SchedCoreTest, ConstantGarbagePolicyIsContained) {
  Build(/*supervised=*/true);
  (void)Attach(analysis::BuildSchedPickConstant(0xbeef).value());
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(sched_->Tick().ran_pid, 0u);
  }
  EXPECT_GT(sched_->stats().invalid_picks, 0u);
  EXPECT_EQ(sched_->stats().dispatches, sched_->stats().ticks);
}

TEST_F(SchedCoreTest, DoublePickVictimIsDetectedAndReclaimed) {
  Build(/*supervised=*/true);
  const xbase::u32 attachment =
      Attach(analysis::BuildSchedDoublePick().value());
  for (int i = 0; i < 6; ++i) {
    (void)sched_->Tick();
  }
  EXPECT_GT(sched_->stats().invalid_picks, 0u)
      << "a dequeued pick is non-runnable at dispatch";
  const ExtRecord* record = supervisor_->Find(attachment);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->failures_by_kind[static_cast<xbase::usize>(
                FailureKind::kInvalidPick)],
            0u);
  // The reclaim pass re-admitted every victim: all live tasks runnable.
  for (xbase::u32 pid : kernel_->tasks().Pids()) {
    EXPECT_TRUE(kernel_->runqueue().Contains(pid)) << "pid " << pid;
  }
}

TEST_F(SchedCoreTest, HiddenTaskStarvationIsDetectedChargedAndRescued) {
  Build(/*supervised=*/true);
  bpf_->faults().Inject(ebpf::kFaultSchedRunnableFilter);
  const xbase::u32 attachment =
      Attach(analysis::BuildSchedPickLongestWaiting().value());
  // The filter hides the highest pid from every enumeration; the policy
  // itself is honest but can only serve what it can see.
  const std::vector<xbase::u32> pids = kernel_->tasks().Pids();
  const xbase::u32 hidden = pids.back();
  for (int i = 0; i < 120 &&
                  supervisor_->HealthOf(attachment) == ExtHealth::kHealthy;
       ++i) {
    (void)sched_->Tick();
  }
  EXPECT_GT(sched_->stats().starvation_events, 0u);
  const ExtRecord* record = supervisor_->Find(attachment);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->failures_by_kind[static_cast<xbase::usize>(
                FailureKind::kStarvation)],
            0u);
  EXPECT_EQ(record->health, ExtHealth::kQuarantined);
  // With the policy quarantined the fallback round-robin serves the
  // starved task again.
  const xbase::u64 runs_before = kernel_->runqueue().StatsOf(hidden).runs;
  for (int i = 0; i < 8; ++i) {
    (void)sched_->Tick();
  }
  EXPECT_GT(kernel_->runqueue().StatsOf(hidden).runs, runs_before)
      << "fail-over must rescue the starved task";
}

TEST_F(SchedCoreTest, CrashOnPickIsAttributedAndSurvived) {
  Build(/*supervised=*/true);
  bpf_->faults().Inject(ebpf::kFaultSchedCrashOnPick);
  const xbase::u32 attachment =
      Attach(analysis::BuildSchedPickLongestWaiting().value());
  for (int i = 0; i < 5; ++i) {
    const SchedTickOutcome outcome = sched_->Tick();
    EXPECT_NE(outcome.ran_pid, 0u) << "oops on pick must not stop dispatch";
  }
  EXPECT_EQ(kernel_->state(), simkern::KernelState::kRunning)
      << "the oops is contained, not fatal";
  EXPECT_FALSE(kernel_->oopses().empty());
  EXPECT_NE(kernel_->oopses().front().attribution.find("bpf:"),
            std::string::npos)
      << "the oops is attributed to the extension, not the scheduler";
  const ExtRecord* record = supervisor_->Find(attachment);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->failures_by_kind[static_cast<xbase::usize>(
                FailureKind::kOops)],
            0u);
}

TEST_F(SchedCoreTest, UnsupervisedInvalidPicksStallTheCpu) {
  Build(/*supervised=*/false);
  bpf_->faults().Inject(ebpf::kFaultSchedPickInvalidPid);
  (void)Attach(analysis::BuildSchedPickFirst().value());
  // Seed the queue manually: unsupervised mode has no reclaim pass.
  for (xbase::u32 pid : kernel_->tasks().Pids()) {
    (void)kernel_->runqueue().Enqueue(pid, kernel_->clock().now_ns());
  }
  for (int i = 0; i < 10; ++i) {
    const SchedTickOutcome outcome = sched_->Tick();
    EXPECT_TRUE(outcome.stalled);
    EXPECT_EQ(outcome.ran_pid, 0u);
  }
  EXPECT_EQ(sched_->stats().stalls, 10u);
  EXPECT_EQ(sched_->stats().dispatches, 0u)
      << "without supervision nothing runs: the availability gap";
}

TEST_F(SchedCoreTest, UnsupervisedHiddenTaskStarvesForever) {
  Build(/*supervised=*/false);
  bpf_->faults().Inject(ebpf::kFaultSchedRunnableFilter);
  (void)Attach(analysis::BuildSchedPickLongestWaiting().value());
  for (xbase::u32 pid : kernel_->tasks().Pids()) {
    (void)kernel_->runqueue().Enqueue(pid, kernel_->clock().now_ns());
  }
  const xbase::u32 hidden = kernel_->tasks().Pids().back();
  for (int i = 0; i < 120; ++i) {
    (void)sched_->Tick();
  }
  EXPECT_EQ(kernel_->runqueue().StatsOf(hidden).runs, 0u)
      << "nobody rescues the hidden task";
  EXPECT_GT(sched_->stats().starvation_events, 0u)
      << "the detector still *counts* in unsupervised mode";
  EXPECT_GT(sched_->stats().dispatches, 0u)
      << "the visible tasks keep running; exactly one starves";
}

TEST_F(SchedCoreTest, QuarantineProbationRestoreLadder) {
  // Deadline-miss ladder end to end: stall faults trip the breaker; the
  // fault is then cleared, the backoff served, and clean probation picks
  // restore the policy to healthy, steering dispatch again.
  Build(/*supervised=*/true);
  bpf_->faults().Inject(ebpf::kFaultSchedStallLoop);
  const xbase::u32 attachment =
      Attach(analysis::BuildSchedPickViaDefault().value());
  while (supervisor_->HealthOf(attachment) == ExtHealth::kHealthy) {
    ASSERT_NE(sched_->Tick().ran_pid, 0u);
  }
  ASSERT_EQ(supervisor_->HealthOf(attachment), ExtHealth::kQuarantined);

  // While quarantined: every tick is a fallback dispatch.
  const xbase::u64 fallback_before = sched_->stats().fallback_picks;
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(sched_->Tick().ran_pid, 0u);
  }
  EXPECT_EQ(sched_->stats().fallback_picks, fallback_before + 3);

  // The operator fixes the helper (clears the fault); the scheduler keeps
  // ticking. Once the 10ms backoff is served the breaker half-opens,
  // probation trials run the real policy again, and clean picks close it.
  bpf_->faults().Clear(ebpf::kFaultSchedStallLoop);
  xbase::u64 ext_picks = 0;
  for (int i = 0; i < 16; ++i) {
    const SchedTickOutcome outcome = sched_->Tick();
    ASSERT_NE(outcome.ran_pid, 0u);
    ext_picks += outcome.from_extension ? 1 : 0;
  }
  EXPECT_EQ(supervisor_->HealthOf(attachment), ExtHealth::kHealthy)
      << "clean probation picks must close the breaker";
  EXPECT_GT(ext_picks, 0u) << "probation trials steer dispatch again";
  EXPECT_TRUE(sched_->Tick().from_extension)
      << "restored policy steers dispatch again";
  EXPECT_EQ(supervisor_->readmissions(), 1u);
  EXPECT_TRUE(
      supervisor_->CheckConsistent(kernel_->clock().now_ns()).ok());
}

}  // namespace
}  // namespace safex
