// Supervisor tests: circuit-breaker state machine unit tests plus the
// lifecycle edges through the hook registry — double attach, detach while
// quarantined, invoke after eviction, re-admission after backoff expiry,
// and a leak audit across a thousand quarantine/re-admit cycles.
#include <gtest/gtest.h>

#include <vector>

#include "src/core/system.h"
#include "src/core/toolchain.h"

namespace safex {
namespace {

constexpr xbase::u64 kMs = 1'000'000ULL;

SupervisorConfig TestConfig() {
  SupervisorConfig config;
  config.window_ns = 100 * kMs;
  config.base_backoff_ns = 10 * kMs;
  config.max_backoff_ns = 10'000 * kMs;
  config.probation_successes = 2;
  config.max_trips = 3;
  return config;
}

TEST(SupervisorUnit, TripsWhenCrashBudgetExhaustedInWindow) {
  Supervisor supervisor(TestConfig());
  EXPECT_TRUE(supervisor.Admit(1, 0).allow);
  supervisor.RecordFailure(1, FailureKind::kPanic, "a", 1 * kMs);
  supervisor.RecordFailure(1, FailureKind::kPanic, "b", 2 * kMs);
  EXPECT_EQ(supervisor.HealthOf(1), ExtHealth::kHealthy);
  supervisor.RecordFailure(1, FailureKind::kPanic, "c", 3 * kMs);
  EXPECT_EQ(supervisor.HealthOf(1), ExtHealth::kQuarantined);
  EXPECT_EQ(supervisor.trips(), 1u);
  EXPECT_FALSE(supervisor.Admit(1, 4 * kMs).allow);
  EXPECT_EQ(supervisor.skips(), 1u);
  EXPECT_TRUE(supervisor.CheckConsistent(4 * kMs).ok());
}

TEST(SupervisorUnit, SlidingWindowForgivesOldFailures) {
  Supervisor supervisor(TestConfig());
  EXPECT_TRUE(supervisor.Admit(1, 0).allow);
  supervisor.RecordFailure(1, FailureKind::kPanic, "a", 0);
  supervisor.RecordFailure(1, FailureKind::kPanic, "b", 1 * kMs);
  // 200ms later both events have aged out of the 100ms window; two more
  // failures should not trip.
  supervisor.RecordFailure(1, FailureKind::kPanic, "c", 200 * kMs);
  supervisor.RecordFailure(1, FailureKind::kPanic, "d", 201 * kMs);
  EXPECT_EQ(supervisor.HealthOf(1), ExtHealth::kHealthy);
  EXPECT_EQ(supervisor.trips(), 0u);
}

TEST(SupervisorUnit, BackoffDoublesPerTripAndIsCapped) {
  SupervisorConfig config = TestConfig();
  config.max_trips = 100;  // keep tripping without eviction
  config.max_backoff_ns = 35 * kMs;
  Supervisor supervisor(config);
  xbase::u64 now = 0;
  xbase::u64 expected[] = {10 * kMs, 20 * kMs, 35 * kMs, 35 * kMs};
  for (const xbase::u64 backoff : expected) {
    (void)supervisor.Admit(1, now);
    for (xbase::u32 i = 0; i < kCrashBudget; ++i) {
      supervisor.RecordFailure(1, FailureKind::kPanic, "x", now);
    }
    const ExtRecord* record = supervisor.Find(1);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->health, ExtHealth::kQuarantined);
    EXPECT_EQ(record->quarantined_until_ns - now, backoff);
    // Serve the backoff, then fail through probation to trip again.
    now = record->quarantined_until_ns + 1;
    EXPECT_TRUE(supervisor.Admit(1, now).probation_trial);
  }
}

TEST(SupervisorUnit, ProbationSuccessesCloseTheBreaker) {
  Supervisor supervisor(TestConfig());
  (void)supervisor.Admit(1, 0);
  for (xbase::u32 i = 0; i < 3; ++i) {
    supervisor.RecordFailure(1, FailureKind::kWatchdog, "hog", 1 * kMs);
  }
  ASSERT_EQ(supervisor.HealthOf(1), ExtHealth::kQuarantined);
  // Backoff (10ms) served: half-open trials begin.
  const xbase::u64 after = 12 * kMs;
  AdmitDecision trial = supervisor.Admit(1, after);
  EXPECT_TRUE(trial.allow);
  EXPECT_TRUE(trial.probation_trial);
  supervisor.RecordSuccess(1, after);
  EXPECT_EQ(supervisor.HealthOf(1), ExtHealth::kProbation);
  supervisor.RecordSuccess(1, after + 1);
  EXPECT_EQ(supervisor.HealthOf(1), ExtHealth::kHealthy);
  EXPECT_EQ(supervisor.readmissions(), 1u);
  EXPECT_TRUE(supervisor.CheckConsistent(after + 2).ok());
}

TEST(SupervisorUnit, FailureDuringProbationRetripsImmediately) {
  Supervisor supervisor(TestConfig());
  (void)supervisor.Admit(1, 0);
  for (xbase::u32 i = 0; i < 3; ++i) {
    supervisor.RecordFailure(1, FailureKind::kPanic, "x", 0);
  }
  (void)supervisor.Admit(1, 11 * kMs);  // enters probation
  supervisor.RecordFailure(1, FailureKind::kPanic, "again", 11 * kMs);
  EXPECT_EQ(supervisor.HealthOf(1), ExtHealth::kQuarantined);
  EXPECT_EQ(supervisor.trips(), 2u);
}

TEST(SupervisorUnit, EvictionAfterMaxTripsIsPermanent) {
  Supervisor supervisor(TestConfig());
  xbase::u64 now = 0;
  for (xbase::u32 trip = 0; trip < 3; ++trip) {
    (void)supervisor.Admit(1, now);
    for (xbase::u32 i = 0; i < 3; ++i) {
      supervisor.RecordFailure(1, FailureKind::kPanic, "x", now);
    }
    now = supervisor.Find(1)->health == ExtHealth::kEvicted
              ? now
              : supervisor.Find(1)->quarantined_until_ns + 1;
  }
  EXPECT_EQ(supervisor.HealthOf(1), ExtHealth::kEvicted);
  EXPECT_EQ(supervisor.evictions(), 1u);
  // No amount of time re-admits an evicted extension.
  EXPECT_FALSE(supervisor.Admit(1, now + 1'000'000 * kMs).allow);
  EXPECT_TRUE(supervisor.CheckConsistent(now + 1'000'000 * kMs).ok());
}

TEST(SupervisorUnit, PerKindFailureAccounting) {
  Supervisor supervisor(TestConfig());
  (void)supervisor.Admit(1, 0);
  supervisor.RecordFailure(1, FailureKind::kWatchdog, "w", 0);
  supervisor.RecordFailure(1, FailureKind::kOops, "o", 1);
  const ExtRecord* record = supervisor.Find(1);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(
      record->failures_by_kind[static_cast<xbase::usize>(
          FailureKind::kWatchdog)],
      1u);
  EXPECT_EQ(
      record->failures_by_kind[static_cast<xbase::usize>(FailureKind::kOops)],
      1u);
  EXPECT_EQ(record->failures_total, 2u);
}

// ---- lifecycle edges through the hook registry ---------------------------

// Panics whenever *panic points at true; healthy otherwise.
class TogglePanicExt : public Extension {
 public:
  explicit TogglePanicExt(const bool* panic) : panic_(panic) {}
  xbase::Result<xbase::u64> Run(Ctx& ctx) override {
    if (*panic_) {
      ctx.Panic("toggled failure");
    }
    return xbase::u64{0};
  }

 private:
  const bool* panic_;
};

class SupervisedHooksTest : public ::testing::Test {
 protected:
  SupervisedHooksTest() { Build(TestConfig()); }

  // (Re)builds the supervised system; whatever was loaded before is gone.
  void Build(const SupervisorConfig& config) {
    sys_ = std::make_unique<System>(simkern::KernelConfig{}, config);
    ASSERT_TRUE(sys_->ok());
    kernel_ = &sys_->kernel;
    ext_loader_ = sys_->ext_loader.get();
    supervisor_ = sys_->supervisor.get();
    hooks_ = sys_->hooks.get();
    ctx_ = kernel_->mem()
               .Map(64, simkern::MemPerm::kReadWrite,
                    simkern::RegionKind::kKernelData, "supctx")
               .value();
  }

  xbase::u32 LoadToggleExt(const bool* panic) {
    Toolchain toolchain(System::VendorKey());
    ExtensionManifest manifest;
    manifest.name = "toggle";
    manifest.version = "1";
    auto artifact = toolchain.Build(
        manifest,
        [panic]() { return std::make_unique<TogglePanicExt>(panic); },
        std::span<const xbase::u8>());
    return ext_loader_->Load(artifact.value()).value();
  }

  // Fires the syscall hook once and returns its report.
  HookFireReport FireOnce() { return Fire(HookPoint::kSyscallEnter); }

  HookFireReport Fire(HookPoint hook) {
    HookFireReport report;
    hooks_->FireInto(hook, ctx_, report);
    return report;
  }

  std::unique_ptr<System> sys_;
  simkern::Kernel* kernel_ = nullptr;
  ExtLoader* ext_loader_ = nullptr;
  Supervisor* supervisor_ = nullptr;
  HookRegistry* hooks_ = nullptr;
  simkern::Addr ctx_ = 0;
  bool panic_flag_ = false;
};

TEST_F(SupervisedHooksTest, DoubleAttachIsRejected) {
  const xbase::u32 ext = LoadToggleExt(&panic_flag_);
  ASSERT_TRUE(hooks_->AttachExtension(HookPoint::kSyscallEnter, ext).ok());
  auto again = hooks_->AttachExtension(HookPoint::kSyscallEnter, ext);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), xbase::Code::kAlreadyExists);
  // The same target on a different hook is fine.
  EXPECT_TRUE(hooks_->AttachExtension(HookPoint::kSchedSwitch, ext).ok());
}

TEST_F(SupervisedHooksTest, CrashBudgetQuarantinesAndSkips) {
  panic_flag_ = true;
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter,
                                LoadToggleExt(&panic_flag_));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(FireOnce().failed, 1u);
  }
  EXPECT_EQ(supervisor_->trips(), 1u);
  const HookFireReport report = FireOnce();
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.failed, 0u) << "quarantined: never invoked";
}

TEST_F(SupervisedHooksTest, DetachWhileQuarantinedDropsTheRecord) {
  panic_flag_ = true;
  auto id = hooks_->AttachExtension(HookPoint::kSyscallEnter,
                                    LoadToggleExt(&panic_flag_));
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 3; ++i) {
    (void)FireOnce();
  }
  const xbase::u32 attachment = id.value();
  ASSERT_EQ(supervisor_->HealthOf(attachment), ExtHealth::kQuarantined);
  EXPECT_TRUE(hooks_->Detach(attachment).ok());
  EXPECT_EQ(supervisor_->Find(attachment), nullptr);
  EXPECT_TRUE(
      supervisor_->CheckConsistent(kernel_->clock().now_ns()).ok());
}

TEST_F(SupervisedHooksTest, InvokeAfterEvictionIsAlwaysSkipped) {
  panic_flag_ = true;
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter,
                                LoadToggleExt(&panic_flag_));
  // Fail through every trip: a burst of failures inside one window trips
  // the breaker, then the advance serves the backoff so the next burst
  // lands during probation (where one failure re-trips immediately).
  while (supervisor_->evictions() == 0) {
    for (int i = 0; i < 3; ++i) {
      (void)FireOnce();
    }
    kernel_->clock().Advance(500 * kMs);
  }
  panic_flag_ = false;  // even a now-healthy body stays out
  for (int i = 0; i < 5; ++i) {
    kernel_->clock().Advance(10'000 * kMs);
    const HookFireReport report = FireOnce();
    EXPECT_EQ(report.skipped, 1u);
    EXPECT_EQ(report.served, 0u);
  }
}

TEST_F(SupervisedHooksTest, ReadmissionAfterBackoffExpiry) {
  panic_flag_ = true;
  auto id = hooks_->AttachExtension(HookPoint::kSyscallEnter,
                                    LoadToggleExt(&panic_flag_));
  for (int i = 0; i < 3; ++i) {
    (void)FireOnce();
  }
  ASSERT_EQ(supervisor_->HealthOf(id.value()), ExtHealth::kQuarantined);
  // Still inside the backoff: skipped.
  EXPECT_EQ(FireOnce().skipped, 1u);
  // Serve the 10ms backoff; the extension behaves now.
  panic_flag_ = false;
  kernel_->clock().Advance(11 * kMs);
  EXPECT_EQ(FireOnce().served, 1u);  // probation trial 1
  EXPECT_EQ(supervisor_->HealthOf(id.value()), ExtHealth::kProbation);
  EXPECT_EQ(FireOnce().served, 1u);  // probation trial 2 closes the breaker
  EXPECT_EQ(supervisor_->HealthOf(id.value()), ExtHealth::kHealthy);
  EXPECT_EQ(supervisor_->readmissions(), 1u);
}

TEST_F(SupervisedHooksTest, LeakAuditAcrossThousandQuarantineCycles) {
  // Lifetime trips normally evict; raise the ceiling so the breaker can
  // cycle quarantine -> probation -> healthy a thousand times.
  SupervisorConfig config = TestConfig();
  config.max_trips = 2000;
  Build(config);
  panic_flag_ = true;
  const xbase::u32 ext = LoadToggleExt(&panic_flag_);
  auto id = hooks_->AttachExtension(HookPoint::kSyscallEnter, ext);
  ASSERT_TRUE(id.ok());
  const simkern::RefcountSnapshot baseline = kernel_->objects().Snapshot();
  for (int cycle = 0; cycle < 1000; ++cycle) {
    // Trip the breaker...
    panic_flag_ = true;
    for (int i = 0; i < 3; ++i) {
      (void)FireOnce();
    }
    // ...serve the backoff (exponential, capped at max_backoff_ns),
    // behave, earn re-admission.
    panic_flag_ = false;
    kernel_->clock().Advance(20'000 * kMs);
    (void)FireOnce();
    (void)FireOnce();
    ASSERT_EQ(supervisor_->HealthOf(id.value()), ExtHealth::kHealthy)
        << "cycle " << cycle;
    // Old failures must age out rather than accumulate.
    const ExtRecord* record = supervisor_->Find(id.value());
    ASSERT_NE(record, nullptr);
    ASSERT_LE(record->window.size(), 3u);
  }
  EXPECT_EQ(supervisor_->readmissions(), 1000u);
  EXPECT_TRUE(kernel_->objects().DiffSince(baseline).empty())
      << "quarantine cycling must not leak kernel object references";
  EXPECT_TRUE(kernel_->locks().HeldLocks().empty());
  EXPECT_EQ(kernel_->rcu().depth(), 0);
  EXPECT_TRUE(supervisor_->CheckConsistent(kernel_->clock().now_ns()).ok());
  EXPECT_EQ(supervisor_->tracked(), 1u)
      << "one attachment must map to exactly one health record";
}

TEST_F(SupervisedHooksTest, FallbackPoliciesAreFixedPerHookFamily) {
  // One failing extension on every hook. Each family degrades by its own
  // fixed row in kHookFamilies — packet, syscall and tracing hooks fail
  // open, the access-control hook fails closed with EPERM, the pick hook
  // leaves no decider so the scheduler core's round-robin takes over —
  // and the same fallback covers the failed runs and, once quarantined,
  // the skipped ones.
  panic_flag_ = true;
  for (const HookFamily& family : kHookFamilies) {
    ASSERT_TRUE(
        hooks_->AttachExtension(family.hook, LoadToggleExt(&panic_flag_))
            .ok());
  }
  for (int fire = 0; fire < 4; ++fire) {
    const bool quarantined = fire == 3;
    HookFireReport xdp = Fire(HookPoint::kXdpIngress);
    EXPECT_EQ(xdp.skipped, quarantined ? 1u : 0u);
    EXPECT_EQ(xdp.verdict, 2u) << "packet family fails open: XDP_PASS";
    HookFireReport sys = Fire(HookPoint::kSyscallEnter);
    EXPECT_EQ(sys.failed, quarantined ? 0u : 1u);
    EXPECT_FALSE(sys.denied) << "syscall family fails open: allow";
    HookFireReport trace = Fire(HookPoint::kSchedSwitch);
    EXPECT_EQ(trace.verdict, 0u) << "tracing family fails open";
    EXPECT_FALSE(trace.denied);
    HookFireReport pick = Fire(HookPoint::kSchedPickNext);
    EXPECT_EQ(pick.decider, 0u) << "no decider: the default policy picks";
    EXPECT_EQ(pick.verdict, 0u);
    HookFireReport lsm = Fire(HookPoint::kLsmFileOpen);
    EXPECT_EQ(lsm.skipped, quarantined ? 1u : 0u);
    EXPECT_TRUE(lsm.denied) << "access-control family fails closed";
    EXPECT_EQ(lsm.verdict, 1u) << "with EPERM";
  }
}

TEST_F(SupervisedHooksTest, CrossCpuFailuresTripExactlyAtTheBudget) {
  // A failing and a healthy extension share a hook fired from 4 CPUs at
  // once. The failing one's window fills from every CPU, yet the breaker
  // trips exactly once, at kCrashBudget failures: with max_trips 1 the trip
  // evicts, and a failure still in flight on another CPU finds the record
  // evicted and is not counted. The healthy neighbour never notices.
  SupervisorConfig config = TestConfig();
  config.window_ns = 1'000'000 * kMs;
  config.max_trips = 1;
  Build(config);
  panic_flag_ = true;
  bool never_panic = false;
  const auto failing = hooks_->AttachExtension(HookPoint::kSyscallEnter,
                                               LoadToggleExt(&panic_flag_));
  const auto healthy = hooks_->AttachExtension(HookPoint::kSyscallEnter,
                                               LoadToggleExt(&never_panic));
  ASSERT_TRUE(failing.ok() && healthy.ok());

  kernel_->StartCpus();
  simkern::CpuPool& pool = *kernel_->cpus();
  constexpr xbase::u32 kFiresPerBurst = 64;
  const xbase::u32 cpus = kernel_->num_cpus();
  // Per executing CPU: the last fire's report and what a burst's fires
  // served, skipped and failed in total.
  struct Tally {
    HookFireReport report;
    xbase::u64 served = 0;
    xbase::u64 skipped = 0;
    xbase::u64 failed = 0;
  };
  std::vector<Tally> tallies(cpus);
  const auto burst = [&] {
    tallies.assign(cpus, Tally{});
    for (xbase::u32 i = 0; i < kFiresPerBurst; ++i) {
      pool.Submit(i % cpus, [this, &tallies] {
        Tally& tally = tallies[kernel_->current_cpu()];
        hooks_->FireInto(HookPoint::kSyscallEnter, ctx_, tally.report);
        tally.served += tally.report.served;
        tally.skipped += tally.report.skipped;
        tally.failed += tally.report.failed;
      });
    }
    pool.Drain();
  };
  burst();
  const ExtRecord* record = supervisor_->Find(failing.value());
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->health.load(), ExtHealth::kEvicted);
  EXPECT_EQ(record->trips, 1u);
  EXPECT_EQ(record->failures_total, kCrashBudget);
  EXPECT_EQ(supervisor_->failures(), kCrashBudget);
  EXPECT_EQ(supervisor_->trips(), 1u);
  EXPECT_EQ(supervisor_->evictions(), 1u);
  EXPECT_TRUE(
      supervisor_->CheckConsistent(kernel_->clock().max_now_ns()).ok());

  // After the eviction every fire skips the evicted extension and serves
  // its neighbour, on every CPU of the burst.
  burst();
  Tally total;
  for (const Tally& tally : tallies) {
    total.served += tally.served;
    total.skipped += tally.skipped;
    total.failed += tally.failed;
  }
  EXPECT_EQ(total.skipped, kFiresPerBurst);
  EXPECT_EQ(total.served, kFiresPerBurst);
  EXPECT_EQ(total.failed, 0u);
  const ExtRecord* neighbour = supervisor_->Find(healthy.value());
  ASSERT_NE(neighbour, nullptr);
  EXPECT_EQ(neighbour->health.load(), ExtHealth::kHealthy);
  EXPECT_EQ(neighbour->failures_total, 0u);
  EXPECT_EQ(neighbour->invocations.Sum(), 2 * kFiresPerBurst);
  EXPECT_EQ(supervisor_->failures(), kCrashBudget);
  EXPECT_TRUE(
      supervisor_->CheckConsistent(kernel_->clock().max_now_ns()).ok());
  kernel_->StopCpus();
}

TEST(SupervisorUnit, DeadlineMissLadderClosesViaProbation) {
  // The scheduler's kDeadlineMiss failures drive the same breaker ladder
  // as a panic: budget exhaustion -> quarantine -> half-open probation ->
  // clean trials close the breaker.
  Supervisor supervisor(TestConfig());
  (void)supervisor.Admit(1, 0);
  for (int i = 0; i < 3; ++i) {
    supervisor.RecordFailure(1, FailureKind::kDeadlineMiss, "slow pick",
                             i * kMs);
  }
  ASSERT_EQ(supervisor.HealthOf(1), ExtHealth::kQuarantined);
  EXPECT_FALSE(supervisor.Admit(1, 5 * kMs).allow) << "inside the backoff";
  const AdmitDecision trial = supervisor.Admit(1, 15 * kMs);
  EXPECT_TRUE(trial.allow);
  EXPECT_TRUE(trial.probation_trial);
  supervisor.RecordSuccess(1, 15 * kMs);
  EXPECT_EQ(supervisor.HealthOf(1), ExtHealth::kProbation);
  supervisor.RecordSuccess(1, 16 * kMs);
  EXPECT_EQ(supervisor.HealthOf(1), ExtHealth::kHealthy);
  EXPECT_EQ(supervisor.readmissions(), 1u);
  const ExtRecord* record = supervisor.Find(1);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->failures_by_kind[static_cast<xbase::usize>(
                FailureKind::kDeadlineMiss)],
            3u);
  EXPECT_TRUE(supervisor.CheckConsistent(17 * kMs).ok());
}

}  // namespace
}  // namespace safex
