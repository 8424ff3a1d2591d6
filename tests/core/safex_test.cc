// End-to-end tests of the safex framework: toolchain → sign → load → invoke,
// the runtime protection mechanisms, and the kernel-crate API guarantees
// (Table 2 of the paper).
#include <gtest/gtest.h>

#include <new>

#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/xbase/bytes.h"

namespace safex {
namespace {

using simkern::SockTuple;

// A configurable test extension driven by a lambda.
class LambdaExt : public Extension {
 public:
  using Body = std::function<xbase::Result<xbase::u64>(Ctx&)>;
  explicit LambdaExt(Body body) : body_(std::move(body)) {}
  xbase::Result<xbase::u64> Run(Ctx& ctx) override { return body_(ctx); }

 private:
  Body body_;
};

class SafexTest : public ::testing::Test {
 protected:
  SafexTest() { EXPECT_TRUE(sys_.ok()); }

  SignedArtifact MustBuild(ExtensionManifest manifest, LambdaExt::Body body,
                           const std::string& code_text = "code-v1",
                           ToolchainPolicy policy = {}) {
    Toolchain toolchain(System::VendorKey(), policy);
    auto artifact = toolchain.Build(
        std::move(manifest),
        [body]() { return std::make_unique<LambdaExt>(body); },
        std::span<const xbase::u8>(
            reinterpret_cast<const xbase::u8*>(code_text.data()),
            code_text.size()));
    EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
    return std::move(artifact).value();
  }

  InvokeOutcome LoadAndInvoke(const SignedArtifact& artifact,
                              InvokeOptions options = {}) {
    auto id = loader_->Load(artifact);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    auto outcome = loader_->Invoke(id.value(), options);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return std::move(outcome).value();
  }

  void MapSpecSetup() {
    ebpf::MapSpec spec;
    spec.type = ebpf::MapType::kArray;
    spec.key_size = 4;
    spec.value_size = 8;
    spec.max_entries = 4;
    spec.name = "safex-test-map";
    auto fd = bpf_.maps().Create(spec);
    ASSERT_TRUE(fd.ok());
    map_fd_ = fd.value();
  }

  System sys_;
  simkern::Kernel& kernel_ = sys_.kernel;
  ebpf::Bpf& bpf_ = sys_.bpf;
  Runtime* runtime_ = sys_.runtime.get();
  ExtLoader* loader_ = sys_.ext_loader.get();
  int map_fd_ = -1;
};

ExtensionManifest BasicManifest(CapSet caps = {}) {
  ExtensionManifest manifest;
  manifest.name = "test-ext";
  manifest.version = "1.0";
  manifest.caps = std::move(caps);
  return manifest;
}

// ---- trust chain -----------------------------------------------------------

TEST_F(SafexTest, SignedExtensionLoadsAndRuns) {
  auto artifact = MustBuild(BasicManifest(), [](Ctx&) {
    return xbase::Result<xbase::u64>(7);
  });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret, 7u);
  EXPECT_FALSE(outcome.panicked);
}

TEST_F(SafexTest, TamperedManifestIsRejected) {
  auto artifact = MustBuild(BasicManifest(), [](Ctx&) {
    return xbase::Result<xbase::u64>(0);
  });
  artifact.manifest.caps.push_back(Capability::kSysBpf);  // escalate!
  auto id = loader_->Load(artifact);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), xbase::Code::kPermissionDenied);
}

TEST_F(SafexTest, TamperedCodeHashIsRejected) {
  auto artifact = MustBuild(BasicManifest(), [](Ctx&) {
    return xbase::Result<xbase::u64>(0);
  });
  artifact.code_hash[0] ^= 0xff;
  auto id = loader_->Load(artifact);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), xbase::Code::kPermissionDenied);
}

TEST_F(SafexTest, UnknownSigningKeyIsRejected) {
  crypto::SigningKey rogue =
      crypto::SigningKey::FromPassphrase("rogue", "evil");
  Toolchain toolchain(rogue);
  auto artifact = toolchain.Build(
      BasicManifest(),
      []() {
        return std::make_unique<LambdaExt>(
            [](Ctx&) { return xbase::Result<xbase::u64>(0); });
      },
      std::span<const xbase::u8>());
  ASSERT_TRUE(artifact.ok());
  auto id = loader_->Load(artifact.value());
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), xbase::Code::kPermissionDenied);
}

TEST_F(SafexTest, ToolchainRefusesUnsafeByDefault) {
  ExtensionManifest manifest = BasicManifest({Capability::kUnsafeRaw});
  manifest.uses_unsafe = true;
  Toolchain toolchain(System::VendorKey());
  auto artifact = toolchain.Build(
      std::move(manifest),
      []() {
        return std::make_unique<LambdaExt>(
            [](Ctx&) { return xbase::Result<xbase::u64>(0); });
      },
      std::span<const xbase::u8>());
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), xbase::Code::kRejected);
}

TEST_F(SafexTest, KernelPolicyRefusesSignedUnsafeExtension) {
  ExtensionManifest manifest = BasicManifest({Capability::kUnsafeRaw});
  manifest.uses_unsafe = true;
  ToolchainPolicy lax;
  lax.allow_unsafe = true;
  auto artifact = MustBuild(std::move(manifest),
                            [](Ctx&) { return xbase::Result<xbase::u64>(0); },
                            "unsafe-code", lax);
  auto id = loader_->Load(artifact);  // kernel policy still says no
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), xbase::Code::kPermissionDenied);
}

TEST_F(SafexTest, ToolchainRefusesUnknownImport) {
  ExtensionManifest manifest = BasicManifest();
  manifest.imports.push_back("kcrate.does_not_exist");
  Toolchain toolchain(System::VendorKey());
  auto artifact = toolchain.Build(
      std::move(manifest),
      []() {
        return std::make_unique<LambdaExt>(
            [](Ctx&) { return xbase::Result<xbase::u64>(0); });
      },
      std::span<const xbase::u8>());
  ASSERT_FALSE(artifact.ok());
}

TEST_F(SafexTest, ToolchainRefusesImportWithoutCapability) {
  ExtensionManifest manifest = BasicManifest();  // no caps
  manifest.imports.push_back("kcrate.map_lookup");
  Toolchain toolchain(System::VendorKey());
  auto artifact = toolchain.Build(
      std::move(manifest),
      []() {
        return std::make_unique<LambdaExt>(
            [](Ctx&) { return xbase::Result<xbase::u64>(0); });
      },
      std::span<const xbase::u8>());
  ASSERT_FALSE(artifact.ok());
}

TEST_F(SafexTest, LoaderBindsImportsDuringFixup) {
  ExtensionManifest manifest =
      BasicManifest({Capability::kMapAccess, Capability::kTracing});
  manifest.imports = {"kcrate.map_lookup", "kcrate.map_update",
                      "kcrate.trace"};
  auto artifact = MustBuild(std::move(manifest), [](Ctx&) {
    return xbase::Result<xbase::u64>(0);
  });
  auto id = loader_->Load(artifact);
  ASSERT_TRUE(id.ok());
  auto loaded = loader_->Find(id.value());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->relocations, 3u);
}

// ---- language-safety analogues (Table 2 rows 1-3) --------------------------

TEST_F(SafexTest, SliceOutOfBoundsPanicsWithoutTouchingKernel) {
  MapSpecSetup();
  auto artifact = MustBuild(
      BasicManifest({Capability::kMapAccess}),
      [this](Ctx& ctx) -> xbase::Result<xbase::u64> {
        auto map = ctx.Map(map_fd_);
        XB_RETURN_IF_ERROR(map.status());
        auto value = map.value().LookupIndex(0);
        XB_RETURN_IF_ERROR(value.status());
        // 8-byte value; read at offset 100: Rust would panic, and so do we.
        auto oob = value.value().ReadU64(100);
        return oob.ok() ? oob.value() : xbase::u64{1};
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.panicked);
  EXPECT_NE(outcome.panic_reason.find("out of bounds"), std::string::npos);
  EXPECT_FALSE(kernel_.crashed()) << "the violation must never reach memory";
}

TEST_F(SafexTest, CapabilityViolationTerminates) {
  auto artifact = MustBuild(BasicManifest(),  // no caps at all
                            [](Ctx& ctx) -> xbase::Result<xbase::u64> {
                              auto task = ctx.CurrentTask();
                              return task.ok() ? 1 : 0;
                            });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.panicked);
  EXPECT_NE(outcome.panic_reason.find("capability"), std::string::npos);
}

TEST_F(SafexTest, CheckedArithmeticCatchesOverflow) {
  EXPECT_FALSE(CheckedAdd(std::numeric_limits<xbase::s64>::max(), 1)
                   .has_value());
  EXPECT_FALSE(CheckedMul(std::numeric_limits<xbase::s64>::min(), -1)
                   .has_value());
  EXPECT_EQ(CheckedAdd(40, 2).value_or(0), 42);
  EXPECT_EQ(CheckedSub(40, 2).value_or(0), 38);
}

TEST_F(SafexTest, ParseIntReplacesStrtolHelper) {
  auto artifact = MustBuild(
      BasicManifest(), [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        auto good = ctx.ParseInt("-1234");
        if (!good.ok() || good.value() != -1234) {
          return xbase::u64{1};
        }
        if (ctx.ParseInt("12x4").ok()) {
          return xbase::u64{2};  // trailing garbage must fail
        }
        if (ctx.ParseInt("99999999999999999999").ok()) {
          return xbase::u64{3};  // overflow must fail, not wrap
        }
        return xbase::u64{0};
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret, 0u);
}

// ---- runtime protection (Table 2 rows 4-6) -----------------------------------

TEST_F(SafexTest, WatchdogTerminatesInfiniteLoop) {
  auto artifact = MustBuild(
      BasicManifest(), [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        // An unbounded loop — inexpressible in verified eBPF, trivial here.
        // The watchdog, not a verifier, bounds it.
        for (;;) {
          XB_RETURN_IF_ERROR(ctx.Tick());
        }
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.panicked);
  EXPECT_NE(outcome.panic_reason.find("watchdog"), std::string::npos);
  EXPECT_EQ(runtime_->watchdog_fires(), 1u);
  EXPECT_FALSE(kernel_.crashed());
  EXPECT_TRUE(kernel_.rcu().stalls().empty())
      << "terminated long before an RCU stall";
}

TEST_F(SafexTest, CleanupRegistryReleasesLeakedSocket) {
  const auto before = kernel_.objects().Snapshot();
  auto artifact = MustBuild(
      BasicManifest({Capability::kSockLookup}),
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        SockTuple tuple{0x0a000001, 0x0a000002, 8080, 40000};
        auto sock = ctx.LookupTcp(tuple);
        XB_RETURN_IF_ERROR(sock.status());
        // Deliberately leak the handle: no destructor will ever run.
        // (Placement new into static storage so LeakSanitizer stays quiet —
        // the point is the skipped destructor, not the heap block.)
        alignas(SockRef) static unsigned char slot[sizeof(SockRef)];
        auto* leaked = new (slot) SockRef(std::move(sock).value());
        (void)leaked;
        return xbase::u64{0};
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_GE(outcome.cleanup.entries_run, 1u);
  EXPECT_TRUE(kernel_.objects().DiffSince(before).empty())
      << "refcounts must be restored by the cleanup registry";
}

TEST_F(SafexTest, WatchdogFiringStillReleasesHeldLock) {
  MapSpecSetup();
  auto artifact = MustBuild(
      BasicManifest({Capability::kSpinLock}),
      [this](Ctx& ctx) -> xbase::Result<xbase::u64> {
        auto guard = ctx.Lock(map_fd_, 0);
        XB_RETURN_IF_ERROR(guard.status());
        alignas(LockGuard) static unsigned char slot[sizeof(LockGuard)];
        auto* leaked = new (slot) LockGuard(std::move(guard).value());
        (void)leaked;  // even a leaked guard must not wedge the kernel
        for (;;) {
          XB_RETURN_IF_ERROR(ctx.Tick());
        }
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.panicked);
  EXPECT_TRUE(kernel_.locks().HeldLocks().empty())
      << "lock must be force-released during safe termination";
}

TEST_F(SafexTest, DoubleLockIsRefusedNotDeadlocked) {
  MapSpecSetup();
  auto artifact = MustBuild(
      BasicManifest({Capability::kSpinLock}),
      [this](Ctx& ctx) -> xbase::Result<xbase::u64> {
        auto first = ctx.Lock(map_fd_, 0);
        XB_RETURN_IF_ERROR(first.status());
        auto second = ctx.Lock(map_fd_, 0);
        return second.ok() ? xbase::u64{1} : xbase::u64{0};
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret, 0u);
  EXPECT_FALSE(kernel_.crashed());
  EXPECT_TRUE(kernel_.locks().HeldLocks().empty());
}

TEST_F(SafexTest, PoolAllocationsAreFreedOnExit) {
  auto artifact = MustBuild(
      BasicManifest({Capability::kDynAlloc}),
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        for (int i = 0; i < 5; ++i) {
          auto chunk = ctx.Alloc(64);
          XB_RETURN_IF_ERROR(chunk.status());
          XB_RETURN_IF_ERROR(chunk.value().WriteU64(0, 0x1122334455667788));
        }
        return xbase::u64{0};  // never freed explicitly
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(runtime_->pool_for_cpu(0).stats().chunks_in_use, 0u);
  EXPECT_EQ(outcome.cleanup.entries_run, 5u);
}

TEST_F(SafexTest, StackGuardTerminatesRunawayRecursion) {
  std::function<xbase::Status(Ctx&, int)> recurse =
      [&recurse](Ctx& ctx, int depth) -> xbase::Status {
    XB_RETURN_IF_ERROR(ctx.EnterFrame());
    if (depth > 0) {
      XB_RETURN_IF_ERROR(recurse(ctx, depth - 1));
    }
    ctx.LeaveFrame();
    return xbase::Status::Ok();
  };
  auto artifact = MustBuild(
      BasicManifest(), [&recurse](Ctx& ctx) -> xbase::Result<xbase::u64> {
        XB_RETURN_IF_ERROR(recurse(ctx, 100));
        return xbase::u64{0};
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.panicked);
  EXPECT_NE(outcome.panic_reason.find("stack guard"), std::string::npos);
}

// ---- the hardened sys_bpf wrapper (§3.2 / §2.2) ---------------------------------

TEST_F(SafexTest, SysBpfWrapperCreatesMaps) {
  auto artifact = MustBuild(
      BasicManifest({Capability::kSysBpf, Capability::kDynAlloc}),
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        auto fd = ctx.SysBpfMapCreate(8, 4);
        XB_RETURN_IF_ERROR(fd.status());
        return static_cast<xbase::u64>(fd.value());
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_GT(outcome.ret, 0u);
}

TEST_F(SafexTest, SysBpfWrapperCannotExpressNullInsnsPointer) {
  auto artifact = MustBuild(
      BasicManifest({Capability::kSysBpf, Capability::kDynAlloc}),
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        Slice dead;  // never allocated — the closest thing to NULL
        auto ret = ctx.SysBpfProgLoad(dead);
        return ret.ok() ? xbase::u64{1} : xbase::u64{0};
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret, 0u) << "the call must fail cleanly";
  EXPECT_FALSE(kernel_.crashed())
      << "the §2.2 crash must be unrepresentable through the wrapper";
}

TEST_F(SafexTest, SysBpfWrapperLoadsProgramsThroughValidSlice) {
  auto artifact = MustBuild(
      BasicManifest({Capability::kSysBpf, Capability::kDynAlloc}),
      [](Ctx& ctx) -> xbase::Result<xbase::u64> {
        auto insns = ctx.Alloc(16);
        XB_RETURN_IF_ERROR(insns.status());
        auto ret = ctx.SysBpfProgLoad(insns.value());
        XB_RETURN_IF_ERROR(ret.status());
        return static_cast<xbase::u64>(ret.value() == 0 ? 0 : 1);
      });
  const InvokeOutcome outcome = LoadAndInvoke(artifact);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.ret, 0u);
  EXPECT_FALSE(kernel_.crashed());
}

}  // namespace
}  // namespace safex
