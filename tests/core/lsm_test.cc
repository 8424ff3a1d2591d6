// LSM hook family tests: the privilege model (lsm helpers only from lsm
// programs, lsm programs only from privileged loaders, lsm programs only
// on the lsm_file_open hook), the six decision-context helpers against a
// populated context block, and the family's fail-closed fallback — a
// policy that dies must deny (EPERM), never allow, which is the opposite
// of the tracing hooks' fail-open default.
#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/ebpf/asm.h"
#include "src/ebpf/loader.h"
#include "src/simkern/lsm.h"

namespace safex {
namespace {

using simkern::LsmCtxLayout;

class LsmTest : public ::testing::Test {
 protected:
  LsmTest() {
    EXPECT_TRUE(sys_.ok());
    ctx_ = kernel_->mem()
               .Map(LsmCtxLayout::kSize, simkern::MemPerm::kReadWrite,
                    simkern::RegionKind::kKernelData, "lsmctx")
               .value();
  }

  static simkern::KernelConfig MakeKernelConfig() {
    simkern::KernelConfig config;
    config.version = simkern::kV6_12;
    // Expose the per-type privilege gate instead of the blanket
    // unprivileged-bpf sysctl that would fire first.
    config.unprivileged_bpf_disabled = false;
    return config;
  }

  HookFireReport Fire(HookPoint hook, simkern::Addr ctx) {
    HookFireReport report;
    hooks_->FireInto(hook, ctx, report);
    return report;
  }

  // Populates the lsm_file_open decision context the helpers read.
  void FillCtx(xbase::u32 pid, xbase::u32 uid, xbase::u64 inode,
               xbase::u32 flags, std::string_view path) {
    ASSERT_TRUE(kernel_->mem().WriteU32(ctx_ + LsmCtxLayout::kPid, pid).ok());
    ASSERT_TRUE(kernel_->mem().WriteU32(ctx_ + LsmCtxLayout::kUid, uid).ok());
    ASSERT_TRUE(
        kernel_->mem().WriteU64(ctx_ + LsmCtxLayout::kInodeId, inode).ok());
    ASSERT_TRUE(
        kernel_->mem().WriteU32(ctx_ + LsmCtxLayout::kOpenFlags, flags).ok());
    ASSERT_TRUE(kernel_->mem()
                    .WriteU32(ctx_ + LsmCtxLayout::kPathLen,
                              static_cast<xbase::u32>(path.size()))
                    .ok());
    ASSERT_TRUE(
        kernel_->mem()
            .Write(ctx_ + LsmCtxLayout::kPath,
                   {reinterpret_cast<const xbase::u8*>(path.data()),
                    path.size()})
            .ok());
  }

  // Loads an lsm program whose verdict is the given helper's return value.
  xbase::u32 LoadHelperEcho(xbase::u32 helper_id) {
    ebpf::ProgramBuilder b("echo", ebpf::ProgType::kLsm);
    b.Ins(ebpf::CallHelper(helper_id)).Ins(ebpf::Exit());
    return bpf_loader_->Load(b.Build().value()).value();
  }

  System sys_{MakeKernelConfig()};
  simkern::Kernel* kernel_ = &sys_.kernel;
  ebpf::Loader* bpf_loader_ = &sys_.loader;
  ExtLoader* ext_loader_ = sys_.ext_loader.get();
  HookRegistry* hooks_ = sys_.hooks.get();
  simkern::Addr ctx_ = 0;
};

// ---- privilege + pairing ---------------------------------------------------

TEST_F(LsmTest, LsmLoadRequiresPrivilegedLoader) {
  ebpf::ProgramBuilder b("policy", ebpf::ProgType::kLsm);
  b.Ins(ebpf::Mov64Imm(ebpf::R0, 0)).Ins(ebpf::Exit());
  ebpf::LoadOptions unpriv;
  unpriv.privileged = false;
  auto id = bpf_loader_->Load(b.Build().value(), unpriv);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), xbase::Code::kPermissionDenied);
  EXPECT_NE(
      id.status().message().find("lsm programs require a privileged loader"),
      std::string::npos)
      << id.status().message();
}

TEST_F(LsmTest, LsmProgramsPairOnlyWithTheLsmHook) {
  const xbase::u32 lsm_prog = LoadHelperEcho(ebpf::kHelperLsmCurrentUid);
  auto wrong_hook = hooks_->AttachProgram(HookPoint::kSyscallEnter, lsm_prog);
  ASSERT_FALSE(wrong_hook.ok());
  EXPECT_NE(wrong_hook.status().message().find(
                "can only attach to lsm_file_open"),
            std::string::npos)
      << wrong_hook.status().message();

  ebpf::ProgramBuilder b("tracer", ebpf::ProgType::kSyscall);
  b.Ins(ebpf::Mov64Imm(ebpf::R0, 0)).Ins(ebpf::Exit());
  const xbase::u32 syscall_prog =
      bpf_loader_->Load(b.Build().value()).value();
  auto wrong_type =
      hooks_->AttachProgram(HookPoint::kLsmFileOpen, syscall_prog);
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_NE(wrong_type.status().message().find("is not lsm-typed"),
            std::string::npos)
      << wrong_type.status().message();

  EXPECT_TRUE(hooks_->AttachProgram(HookPoint::kLsmFileOpen, lsm_prog).ok());
}

TEST_F(LsmTest, LsmHelpersAreFamilyAndVersionGated) {
  // The family gate: an lsm helper from a non-lsm program never verifies.
  ebpf::ProgramBuilder b("thief", ebpf::ProgType::kSyscall);
  b.Ins(ebpf::CallHelper(ebpf::kHelperLsmInodeId)).Ins(ebpf::Exit());
  auto stolen = bpf_loader_->Load(b.Build().value());
  ASSERT_FALSE(stolen.ok());
  EXPECT_NE(stolen.status().message().find("restricted to lsm"),
            std::string::npos)
      << stolen.status().message();

  // The version gate: the whole family lands in 6.12.
  ebpf::ProgramBuilder old("early", ebpf::ProgType::kLsm);
  old.Ins(ebpf::CallHelper(ebpf::kHelperLsmInodeId)).Ins(ebpf::Exit());
  ebpf::LoadOptions opts;
  opts.version_override = simkern::KernelVersion{6, 11};
  auto early = bpf_loader_->Load(old.Build().value(), opts);
  ASSERT_FALSE(early.ok());
  EXPECT_NE(early.status().message().find("introduced in"),
            std::string::npos)
      << early.status().message();
}

// ---- the helpers against a populated decision context ----------------------

TEST_F(LsmTest, ContextHelpersReadTheDecisionContext) {
  FillCtx(/*pid=*/41, /*uid=*/1000, /*inode=*/977, /*flags=*/3, "/etc/x");
  (void)hooks_->AttachProgram(HookPoint::kLsmFileOpen,
                              LoadHelperEcho(ebpf::kHelperLsmInodeId));
  auto report = Fire(HookPoint::kLsmFileOpen, ctx_);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].value, 977u);

  // Swap in the flags reader: same context block, different field.
  ASSERT_TRUE(hooks_->Detach(report.verdicts[0].attachment_id).ok());
  (void)hooks_->AttachProgram(HookPoint::kLsmFileOpen,
                              LoadHelperEcho(ebpf::kHelperLsmOpenFlags));
  report = Fire(HookPoint::kLsmFileOpen, ctx_);
  EXPECT_EQ(report.verdicts[0].value, 3u);
}

TEST_F(LsmTest, UidPolicyAllowsAndDeniesByCredential) {
  // A real policy shape: allow uid 1000, deny everyone else with EPERM.
  ebpf::ProgramBuilder b("uid-policy", ebpf::ProgType::kLsm);
  b.Ins(ebpf::CallHelper(ebpf::kHelperLsmCurrentUid))
      .JmpTo(ebpf::BPF_JEQ, ebpf::R0, 1000, "allow")
      .Ins(ebpf::Mov64Imm(ebpf::R0, 1))
      .Ins(ebpf::Exit())
      .Bind("allow")
      .Ins(ebpf::Mov64Imm(ebpf::R0, 0))
      .Ins(ebpf::Exit());
  (void)hooks_->AttachProgram(HookPoint::kLsmFileOpen,
                              bpf_loader_->Load(b.Build().value()).value());

  FillCtx(41, /*uid=*/1000, 977, 0, "/ok");
  auto report = Fire(HookPoint::kLsmFileOpen, ctx_);
  EXPECT_FALSE(report.denied);

  FillCtx(41, /*uid=*/0, 977, 0, "/ok");
  report = Fire(HookPoint::kLsmFileOpen, ctx_);
  EXPECT_TRUE(report.denied);
  EXPECT_EQ(report.verdict, 1u);
}

TEST_F(LsmTest, ReadPathCopiesBoundedPathBytes) {
  // bpf_lsm_read_path(buf, n) returns min(n, path_len, kPathMax).
  ebpf::ProgramBuilder b("pathread", ebpf::ProgType::kLsm);
  b.Ins(ebpf::Mov64Reg(ebpf::R1, ebpf::R10))
      .Ins(ebpf::Alu64Imm(ebpf::BPF_ADD, ebpf::R1, -16))
      .Ins(ebpf::Mov64Imm(ebpf::R2, 16))
      .Ins(ebpf::CallHelper(ebpf::kHelperLsmReadPath))
      .Ins(ebpf::Exit());
  (void)hooks_->AttachProgram(HookPoint::kLsmFileOpen,
                              bpf_loader_->Load(b.Build().value()).value());
  FillCtx(41, 1000, 977, 0, "hello");
  auto report = Fire(HookPoint::kLsmFileOpen, ctx_);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_TRUE(report.verdicts[0].status.ok());
  EXPECT_EQ(report.verdicts[0].value, 5u) << "5 valid path bytes";
}

TEST_F(LsmTest, AuditAndRatelimitComposeIntoAThrottledSink) {
  // Audit the event, then let the rate limiter decide the verdict: after
  // the 16-token bucket for this key drains, the policy denies.
  ebpf::ProgramBuilder b("throttle", ebpf::ProgType::kLsm);
  b.Ins(ebpf::StMemImm(ebpf::BPF_DW, ebpf::R10, -8, 0x5f5f))
      .Ins(ebpf::Mov64Reg(ebpf::R1, ebpf::R10))
      .Ins(ebpf::Alu64Imm(ebpf::BPF_ADD, ebpf::R1, -8))
      .Ins(ebpf::Mov64Imm(ebpf::R2, 8))
      .Ins(ebpf::CallHelper(ebpf::kHelperLsmAudit))
      .Ins(ebpf::Mov64Imm(ebpf::R1, 7))  // bucket key
      .Ins(ebpf::CallHelper(ebpf::kHelperLsmRatelimit))
      .JmpTo(ebpf::BPF_JEQ, ebpf::R0, 1, "allowed")
      .Ins(ebpf::Mov64Imm(ebpf::R0, 1))  // bucket empty: deny
      .Ins(ebpf::Exit())
      .Bind("allowed")
      .Ins(ebpf::Mov64Imm(ebpf::R0, 0))
      .Ins(ebpf::Exit());
  (void)hooks_->AttachProgram(HookPoint::kLsmFileOpen,
                              bpf_loader_->Load(b.Build().value()).value());
  FillCtx(41, 1000, 977, 0, "/var/log");

  for (int fire = 0; fire < 16; ++fire) {
    auto report = Fire(HookPoint::kLsmFileOpen, ctx_);
    EXPECT_FALSE(report.denied) << "token " << fire << " available";
  }
  auto report = Fire(HookPoint::kLsmFileOpen, ctx_);
  EXPECT_TRUE(report.denied) << "bucket drained";
  EXPECT_EQ(report.verdict, 1u);
}

// ---- fail-closed fallback --------------------------------------------------

TEST_F(LsmTest, DeadPolicyFailsClosedWithEperm) {
  // On tracing hooks a dead attachment contributes nothing (fail open);
  // an access-control hook must instead substitute a denial — a crashed
  // policy that silently allowed every open would be a privilege defect.
  class Panicker : public Extension {
   public:
    xbase::Result<xbase::u64> Run(Ctx& ctx) override {
      ctx.Panic("lsm policy died");
      return xbase::u64{0};
    }
  };
  Toolchain toolchain(System::VendorKey());
  ExtensionManifest manifest;
  manifest.name = "dying-policy";
  manifest.version = "1";
  auto artifact = toolchain.Build(
      manifest, []() { return std::make_unique<Panicker>(); },
      std::span<const xbase::u8>());
  const auto ext_id = ext_loader_->Load(artifact.value()).value();
  (void)hooks_->AttachExtension(HookPoint::kLsmFileOpen, ext_id);

  FillCtx(41, 1000, 977, 0, "/etc/shadow");
  auto report = Fire(HookPoint::kLsmFileOpen, ctx_);
  EXPECT_TRUE(report.denied) << "fail closed, never open";
  EXPECT_EQ(report.verdict, 1u) << "EPERM";
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_FALSE(report.verdicts[0].status.ok());
  EXPECT_FALSE(kernel_->crashed());
}

}  // namespace
}  // namespace safex
