// Unit tests for the safex runtime mechanisms in isolation: memory pool,
// cleanup registry, watchdog, canonical artifact encoding, and the §4
// protection-domain ablation.
#include <gtest/gtest.h>

#include "src/core/loader.h"
#include "src/core/toolchain.h"

namespace safex {
namespace {

// ---- memory pool -----------------------------------------------------------

class PoolTest : public ::testing::Test {
 protected:
  simkern::Kernel kernel_;
};

TEST_F(PoolTest, AllocFreeCycle) {
  auto pool = MemoryPool::Create(kernel_, "t", 64, 4, 0).value();
  auto a = pool.Alloc(kernel_);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(pool.Owns(a.value()));
  EXPECT_EQ(pool.stats().chunks_in_use, 1u);
  ASSERT_TRUE(pool.Free(a.value()).ok());
  EXPECT_EQ(pool.stats().chunks_in_use, 0u);
}

TEST_F(PoolTest, ExhaustionAndRecovery) {
  auto pool = MemoryPool::Create(kernel_, "t", 64, 2, 0).value();
  auto a = pool.Alloc(kernel_);
  auto b = pool.Alloc(kernel_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(pool.Alloc(kernel_).status().code(),
            xbase::Code::kResourceExhausted);
  EXPECT_EQ(pool.stats().failed_allocs, 1u);
  ASSERT_TRUE(pool.Free(a.value()).ok());
  EXPECT_TRUE(pool.Alloc(kernel_).ok());
  EXPECT_EQ(pool.stats().peak_in_use, 2u);
}

TEST_F(PoolTest, DoubleFreeAndForeignFreeRejected) {
  auto pool = MemoryPool::Create(kernel_, "t", 64, 2, 0).value();
  auto chunk = pool.Alloc(kernel_).value();
  ASSERT_TRUE(pool.Free(chunk).ok());
  EXPECT_EQ(pool.Free(chunk).code(), xbase::Code::kFailedPrecondition);
  EXPECT_EQ(pool.Free(0x1234).code(), xbase::Code::kInvalidArgument);
  EXPECT_EQ(pool.Free(chunk + 7).code(), xbase::Code::kInvalidArgument)
      << "interior pointers are not chunks";
}

TEST_F(PoolTest, ChunksAreZeroedOnAlloc) {
  auto pool = MemoryPool::Create(kernel_, "t", 8, 1, 0).value();
  auto chunk = pool.Alloc(kernel_).value();
  ASSERT_TRUE(kernel_.mem().WriteU64(chunk, 0xdeadbeef).ok());
  ASSERT_TRUE(pool.Free(chunk).ok());
  auto again = pool.Alloc(kernel_).value();
  EXPECT_EQ(again, chunk);
  EXPECT_EQ(kernel_.mem().ReadU64(again).value(), 0u);
}

TEST_F(PoolTest, ResetFreesEverything) {
  auto pool = MemoryPool::Create(kernel_, "t", 8, 4, 0).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.Alloc(kernel_).ok());
  }
  pool.Reset();
  EXPECT_EQ(pool.stats().chunks_in_use, 0u);
  EXPECT_TRUE(pool.Alloc(kernel_).ok());
}

TEST_F(PoolTest, PerCpuPoolsAreDisjoint) {
  auto pools = PerCpuPools::Create(kernel_, 64, 2, 0).value();
  const auto a = pools.ForCpu(0).Alloc(kernel_).value();
  const auto b = pools.ForCpu(1).Alloc(kernel_).value();
  EXPECT_FALSE(pools.ForCpu(0).Owns(b));
  EXPECT_FALSE(pools.ForCpu(1).Owns(a));
}

// ---- cleanup registry ----------------------------------------------------------

TEST(CleanupTest, RunsLifoAndReleasesEveryKind) {
  simkern::Kernel kernel;
  auto pool = MemoryPool::Create(kernel, "c", 32, 4, 0).value();
  const auto chunk = pool.Alloc(kernel).value();
  const auto obj = kernel.objects().Create(simkern::ObjectType::kSock, "s");
  ASSERT_TRUE(kernel.objects().Acquire(obj).ok());
  const auto lock = kernel.locks().Create("l");
  ASSERT_TRUE(kernel.locks().Acquire(lock, "t").ok());

  CleanupRegistry registry;
  ASSERT_TRUE(registry.Record(CleanupKind::kReleaseObject, obj).ok());
  ASSERT_TRUE(registry.Record(CleanupKind::kReleaseLock, lock).ok());
  ASSERT_TRUE(registry.Record(CleanupKind::kFreePoolChunk, chunk).ok());
  EXPECT_EQ(registry.outstanding(), 3u);

  const CleanupReport report = registry.RunAll(kernel, &pool);
  EXPECT_EQ(report.entries_run, 3u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(kernel.objects().RefcountOf(obj), 1);
  EXPECT_FALSE(kernel.locks().IsHeld(lock));
  EXPECT_EQ(pool.stats().chunks_in_use, 0u);
  EXPECT_EQ(registry.outstanding(), 0u);
}

TEST(CleanupTest, DischargeRemovesMatchingEntry) {
  simkern::Kernel kernel;
  CleanupRegistry registry;
  ASSERT_TRUE(registry.Record(CleanupKind::kReleaseObject, 1).ok());
  ASSERT_TRUE(registry.Record(CleanupKind::kReleaseObject, 2).ok());
  registry.Discharge(CleanupKind::kReleaseObject, 1);
  EXPECT_EQ(registry.outstanding(), 1u);
  registry.Discharge(CleanupKind::kReleaseObject, 42);  // no-op
  EXPECT_EQ(registry.outstanding(), 1u);
}

TEST(CleanupTest, CapacityRefusesNewAcquisitions) {
  CleanupRegistry registry;
  for (xbase::u32 i = 0; i < CleanupRegistry::kCapacity; ++i) {
    ASSERT_TRUE(registry.Record(CleanupKind::kReleaseObject, i).ok());
  }
  EXPECT_EQ(registry.Record(CleanupKind::kReleaseObject, 999).code(),
            xbase::Code::kResourceExhausted)
      << "acquisition must be refused, never the release";
}

// ---- watchdog ----------------------------------------------------------------------

TEST(WatchdogTest, FiresAtDeadline) {
  simkern::SimClock clock;
  Watchdog watchdog;
  watchdog.Arm(clock, 1000);
  EXPECT_FALSE(watchdog.Expired(clock));
  clock.Advance(999);
  EXPECT_FALSE(watchdog.Expired(clock));
  clock.Advance(1);
  EXPECT_TRUE(watchdog.Expired(clock));
  watchdog.Disarm();
  EXPECT_FALSE(watchdog.Expired(clock));
}

TEST(WatchdogTest, HugeBudgetSaturatesInsteadOfWrapping) {
  simkern::SimClock clock;
  clock.Advance(1000);
  Watchdog watchdog;
  // now + budget overflows u64; a wrapping add would land the deadline in
  // the past and kill the invocation instantly.
  watchdog.Arm(clock, ~xbase::u64{0} - 10);
  EXPECT_FALSE(watchdog.Expired(clock));
  EXPECT_EQ(watchdog.deadline_ns(), ~xbase::u64{0});
  clock.Advance(1'000'000'000);
  EXPECT_FALSE(watchdog.Expired(clock)) << "pinned at the far future";
}

TEST(WatchdogTest, RemainingTracksClockAndZeroesWhenDone) {
  simkern::SimClock clock;
  Watchdog watchdog;
  EXPECT_EQ(watchdog.remaining_ns(clock), 0u) << "disarmed";
  watchdog.Arm(clock, 1000);
  EXPECT_EQ(watchdog.remaining_ns(clock), 1000u);
  clock.Advance(400);
  EXPECT_EQ(watchdog.remaining_ns(clock), 600u);
  clock.Advance(600);
  EXPECT_EQ(watchdog.remaining_ns(clock), 0u) << "expired";
  clock.Advance(100);
  EXPECT_EQ(watchdog.remaining_ns(clock), 0u) << "stays zero past expiry";
  watchdog.Disarm();
  EXPECT_EQ(watchdog.remaining_ns(clock), 0u);
}

// ---- canonical encoding ----------------------------------------------------------------

TEST(ArtifactTest, CanonicalEncodingIsDeterministic) {
  ExtensionManifest manifest;
  manifest.name = "ext";
  manifest.version = "1.0";
  manifest.caps = {Capability::kMapAccess};
  manifest.imports = {"kcrate.map_lookup"};
  const crypto::Digest256 hash = crypto::Sha256::HashString("code");
  EXPECT_EQ(CanonicalEncode(manifest, hash), CanonicalEncode(manifest, hash));
}

TEST(ArtifactTest, EveryFieldChangesTheEncoding) {
  ExtensionManifest base;
  base.name = "ext";
  base.version = "1.0";
  base.caps = {Capability::kMapAccess};
  base.imports = {"kcrate.map_lookup"};
  const crypto::Digest256 hash = crypto::Sha256::HashString("code");
  const auto reference = CanonicalEncode(base, hash);

  {
    ExtensionManifest m = base;
    m.name = "ext2";
    EXPECT_NE(CanonicalEncode(m, hash), reference);
  }
  {
    ExtensionManifest m = base;
    m.version = "1.1";
    EXPECT_NE(CanonicalEncode(m, hash), reference);
  }
  {
    ExtensionManifest m = base;
    m.caps.push_back(Capability::kSysBpf);
    EXPECT_NE(CanonicalEncode(m, hash), reference);
  }
  {
    ExtensionManifest m = base;
    m.uses_unsafe = true;
    EXPECT_NE(CanonicalEncode(m, hash), reference);
  }
  {
    ExtensionManifest m = base;
    m.imports.push_back("kcrate.trace");
    EXPECT_NE(CanonicalEncode(m, hash), reference);
  }
  {
    const crypto::Digest256 other = crypto::Sha256::HashString("code2");
    EXPECT_NE(CanonicalEncode(base, other), reference);
  }
}

TEST(ArtifactTest, KnownImportsAllCarryCapabilities) {
  for (const auto& [symbol, cap] : KnownImports()) {
    EXPECT_EQ(symbol.rfind("kcrate.", 0), 0u) << symbol;
    EXPECT_FALSE(CapabilityName(cap).empty());
  }
  EXPECT_GE(KnownImports().size(), 14u);
}

// ---- protection domains (§4 ablation) ------------------------------------------------------

class DomainProbe : public Extension {
 public:
  explicit DomainProbe(simkern::Addr target) : target_(target) {}
  xbase::Result<xbase::u64> Run(Ctx& ctx) override {
    auto value = ctx.UnsafeReadKernel(target_);
    XB_RETURN_IF_ERROR(value.status());
    return value.value();
  }

 private:
  simkern::Addr target_;
};

struct DomainRig {
  explicit DomainRig(xbase::u32 protection_key) : bpf(kernel) {
    (void)kernel.BootstrapWorkload();
    RuntimeConfig config;
    config.protection_key = protection_key;
    config.allow_unsafe_extensions = true;
    runtime = Runtime::Create(kernel, bpf, config).value();
  }
  simkern::Kernel kernel;
  ebpf::Bpf bpf;
  std::unique_ptr<Runtime> runtime;
};

TEST(DomainTest, PksContainsUnsafeCode) {
  DomainRig rig(/*protection_key=*/2);
  // Key the current task's struct as kernel-domain (key 1).
  const simkern::Task* task = rig.kernel.tasks().current(0);
  rig.kernel.mem().SetRegionKey(task->struct_addr, 1);

  DomainProbe probe(task->struct_addr);
  const InvokeOutcome outcome = rig.runtime->Invoke(
      probe, {Capability::kUnsafeRaw}, {});
  EXPECT_TRUE(outcome.panicked);
  EXPECT_NE(outcome.panic_reason.find("pkey"), std::string::npos);
  EXPECT_FALSE(rig.kernel.crashed())
      << "the domain contains even unsafe code (§4)";
}

TEST(DomainTest, WithoutPksUnsafeCodeReadsKernelData) {
  DomainRig rig(/*protection_key=*/2);
  // Task struct left at key 0: ambient kernel data, readable — the paper's
  // point that unsafe code undermines everything without hardware help.
  const simkern::Task* task = rig.kernel.tasks().current(0);
  DomainProbe probe(task->struct_addr);
  const InvokeOutcome outcome = rig.runtime->Invoke(
      probe, {Capability::kUnsafeRaw}, {});
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret & 0xffffffff, 1234u) << "read the real pid";
}

TEST(DomainTest, WildUnsafeReadStillOopses) {
  DomainRig rig(/*protection_key=*/2);
  DomainProbe probe(simkern::kKernelBase + 0xdead0000);
  const InvokeOutcome outcome = rig.runtime->Invoke(
      probe, {Capability::kUnsafeRaw}, {});
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_TRUE(rig.kernel.crashed())
      << "unmapped wild reads are kernel crashes, with or without PKS";
}

// ---- runtime counters ---------------------------------------------------------------------------

TEST(RuntimeTest, CountersAccumulate) {
  DomainRig rig(2);
  struct Panicker : Extension {
    xbase::Result<xbase::u64> Run(Ctx& ctx) override {
      ctx.Panic("deliberate");
      return xbase::u64{0};
    }
  } panicker;
  struct Fine : Extension {
    xbase::Result<xbase::u64> Run(Ctx&) override { return xbase::u64{1}; }
  } fine;
  (void)rig.runtime->Invoke(fine, {}, {});
  (void)rig.runtime->Invoke(panicker, {}, {});
  (void)rig.runtime->Invoke(panicker, {}, {});
  EXPECT_EQ(rig.runtime->invocations(), 3u);
  EXPECT_EQ(rig.runtime->panics(), 2u);
  EXPECT_EQ(rig.runtime->watchdog_fires(), 0u);
}

TEST(RuntimeTest, LockIdsAreStablePerSite) {
  DomainRig rig(2);
  const auto a = rig.runtime->LockIdFor(3, 0);
  const auto b = rig.runtime->LockIdFor(3, 0);
  const auto c = rig.runtime->LockIdFor(3, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(LoaderTest, UnknownExtensionIdFails) {
  DomainRig rig(2);
  ExtLoader loader(*rig.runtime);
  EXPECT_EQ(loader.Find(7).status().code(), xbase::Code::kNotFound);
  EXPECT_EQ(loader.Invoke(7).status().code(), xbase::Code::kNotFound);
}

}  // namespace
}  // namespace safex
