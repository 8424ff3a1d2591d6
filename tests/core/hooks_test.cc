// Hook registry tests: attach/detach, per-hook verdict aggregation, and
// mixed eBPF/safex dispatch over one event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/ebpf/asm.h"

namespace safex {
namespace {

class ConstExt : public Extension {
 public:
  explicit ConstExt(xbase::u64 verdict) : verdict_(verdict) {}
  xbase::Result<xbase::u64> Run(Ctx&) override { return verdict_; }

 private:
  xbase::u64 verdict_;
};

class HooksTest : public ::testing::Test {
 protected:
  HooksTest() {
    EXPECT_TRUE(sys_.ok());
    ctx_ = kernel_.mem()
               .Map(64, simkern::MemPerm::kReadWrite,
                    simkern::RegionKind::kKernelData, "hookctx")
               .value();
  }

  HookFireReport Fire(HookPoint hook, simkern::Addr ctx) {
    HookFireReport report;
    hooks_->FireInto(hook, ctx, report);
    return report;
  }

  xbase::u32 LoadConstProg(xbase::u64 verdict) {
    ebpf::ProgramBuilder b("const", ebpf::ProgType::kSyscall);
    b.Ins(ebpf::Mov64Imm(ebpf::R0, static_cast<xbase::s32>(verdict)))
        .Ins(ebpf::Exit());
    return bpf_loader_.Load(b.Build().value()).value();
  }

  xbase::u32 LoadConstExt(xbase::u64 verdict) {
    Toolchain toolchain(System::VendorKey());
    ExtensionManifest manifest;
    manifest.name = "const-ext";
    manifest.version = std::to_string(verdict);
    auto artifact = toolchain.Build(
        manifest,
        [verdict]() { return std::make_unique<ConstExt>(verdict); },
        std::span<const xbase::u8>());
    return ext_loader_->Load(artifact.value()).value();
  }

  System sys_;
  simkern::Kernel& kernel_ = sys_.kernel;
  ebpf::Loader& bpf_loader_ = sys_.loader;
  Runtime* runtime_ = sys_.runtime.get();
  ExtLoader* ext_loader_ = sys_.ext_loader.get();
  HookRegistry* hooks_ = sys_.hooks.get();
  simkern::Addr ctx_ = 0;
};

TEST_F(HooksTest, AttachRequiresLoadedTargets) {
  EXPECT_FALSE(hooks_->AttachProgram(HookPoint::kSyscallEnter, 99).ok());
  EXPECT_FALSE(hooks_->AttachExtension(HookPoint::kSyscallEnter, 99).ok());
}

TEST_F(HooksTest, FireRunsAttachmentsInOrder) {
  (void)hooks_->AttachProgram(HookPoint::kSyscallEnter, LoadConstProg(0));
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, LoadConstExt(0));
  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  ASSERT_EQ(report.verdicts.size(), 2u);
  EXPECT_FALSE(report.verdicts[0].from_safex);
  EXPECT_TRUE(report.verdicts[1].from_safex);
  EXPECT_FALSE(report.denied);
}

TEST_F(HooksTest, SyscallDenyAggregation) {
  (void)hooks_->AttachProgram(HookPoint::kSyscallEnter, LoadConstProg(0));
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, LoadConstExt(13));
  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  EXPECT_TRUE(report.denied);
  EXPECT_EQ(report.verdict, 13u);
}

TEST_F(HooksTest, XdpDropWins) {
  (void)hooks_->AttachExtension(HookPoint::kXdpIngress, LoadConstExt(2));
  (void)hooks_->AttachExtension(HookPoint::kXdpIngress, LoadConstExt(1));
  xbase::u8 payload[32] = {};
  auto skb = kernel_.net().CreateSkBuff(kernel_.mem(), payload).value();
  auto report = Fire(HookPoint::kXdpIngress, skb.meta_addr);
  EXPECT_EQ(report.verdict, 1u) << "any DROP wins";
}

TEST_F(HooksTest, DetachStopsDispatch) {
  auto id = hooks_->AttachProgram(HookPoint::kSyscallEnter,
                                  LoadConstProg(7));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(hooks_->AttachedCount(HookPoint::kSyscallEnter), 1u);
  ASSERT_TRUE(hooks_->Detach(id.value()).ok());
  EXPECT_EQ(hooks_->AttachedCount(HookPoint::kSyscallEnter), 0u);
  EXPECT_FALSE(hooks_->Detach(id.value()).ok());
  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  EXPECT_TRUE(report.verdicts.empty());
}

TEST_F(HooksTest, FailedAttachmentFailsOpenWithStatus) {
  // An extension that panics contributes no verdict but its status shows.
  Toolchain toolchain(System::VendorKey());
  ExtensionManifest manifest;
  manifest.name = "panicker";
  manifest.version = "1";
  class Panicker : public Extension {
   public:
    xbase::Result<xbase::u64> Run(Ctx& ctx) override {
      ctx.Panic("boom");
      return xbase::u64{1};
    }
  };
  auto artifact = toolchain.Build(
      manifest, []() { return std::make_unique<Panicker>(); },
      std::span<const xbase::u8>());
  const auto ext_id = ext_loader_->Load(artifact.value()).value();
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, ext_id);

  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  EXPECT_FALSE(report.denied) << "a dead policy cannot deny";
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_FALSE(report.verdicts[0].status.ok());
  EXPECT_FALSE(kernel_.crashed());
}

TEST_F(HooksTest, ForeignExceptionCannotAbortRemainingAttachments) {
  // Regression: an extension body throwing a non-TerminationSignal
  // exception used to unwind through Runtime::Invoke — skipping the
  // cleanup registry and the RCU read-side unlock — and abort the hook
  // walk, so attachments after it were silently never fired.
  class Thrower : public Extension {
   public:
    xbase::Result<xbase::u64> Run(Ctx&) override {
      throw std::runtime_error("rogue exception");
    }
  };
  Toolchain toolchain(System::VendorKey());
  ExtensionManifest manifest;
  manifest.name = "thrower";
  manifest.version = "1";
  auto artifact = toolchain.Build(
      manifest, []() { return std::make_unique<Thrower>(); },
      std::span<const xbase::u8>());
  const auto thrower_id = ext_loader_->Load(artifact.value()).value();
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, thrower_id);
  (void)hooks_->AttachExtension(HookPoint::kSyscallEnter, LoadConstExt(13));

  auto report = Fire(HookPoint::kSyscallEnter, ctx_);
  ASSERT_EQ(report.verdicts.size(), 2u)
      << "the attachment after the thrower must still fire";
  EXPECT_FALSE(report.verdicts[0].status.ok());
  EXPECT_TRUE(report.verdicts[1].status.ok());
  EXPECT_TRUE(report.denied) << "the healthy policy still denies";
  EXPECT_EQ(report.verdict, 13u);
  EXPECT_EQ(runtime_->foreign_exceptions(), 1u);
  EXPECT_EQ(kernel_.rcu().depth(), 0)
      << "the contained exception must not leak the RCU read lock";
  EXPECT_FALSE(kernel_.crashed());
}

TEST_F(HooksTest, DuplicateAttachmentRejected) {
  const xbase::u32 prog = LoadConstProg(0);
  ASSERT_TRUE(hooks_->AttachProgram(HookPoint::kSyscallEnter, prog).ok());
  auto again = hooks_->AttachProgram(HookPoint::kSyscallEnter, prog);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), xbase::Code::kAlreadyExists);
  EXPECT_TRUE(hooks_->AttachProgram(HookPoint::kXdpIngress, prog).ok());
}

TEST_F(HooksTest, AttachProgramFollowsTheOwnerColumn) {
  // Every program type on every hook: an owned hook takes only its owner,
  // and an owning type attaches nowhere else.
  for (const ebpf::ProgType type : ebpf::kAllProgTypes) {
    ebpf::ProgramBuilder b("typed", type);
    b.Ins(ebpf::Mov64Imm(ebpf::R0, 0)).Ins(ebpf::Exit());
    auto prog = bpf_loader_.Load(b.Build().value());
    ASSERT_TRUE(prog.ok()) << ebpf::ProgTypeName(type) << ": "
                           << prog.status().ToString();
    const bool type_owns_a_hook =
        std::any_of(kHookFamilies.begin(), kHookFamilies.end(),
                    [type](const HookFamily& family) {
                      return family.owner == type;
                    });
    for (const HookFamily& family : kHookFamilies) {
      const bool expected =
          family.owner ? *family.owner == type : !type_owns_a_hook;
      auto attached = hooks_->AttachProgram(family.hook, prog.value());
      EXPECT_EQ(attached.ok(), expected)
          << ebpf::ProgTypeName(type) << " on " << family.name << ": "
          << attached.status().ToString();
      if (!expected && !attached.ok()) {
        EXPECT_EQ(attached.status().code(), xbase::Code::kFailedPrecondition);
      }
    }
  }
  // The two decision-maker rows, spelled out.
  EXPECT_EQ(FamilyOf(HookPoint::kSchedPickNext).owner,
            ebpf::ProgType::kSchedExt);
  EXPECT_EQ(FamilyOf(HookPoint::kLsmFileOpen).owner, ebpf::ProgType::kLsm);
}

}  // namespace
}  // namespace safex
