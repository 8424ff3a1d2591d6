// Regression tests for the load-path correctness fixes that rode along with
// the admission pipeline:
//
//   - Unload refuses while hook attachments reference the program or
//     extension (the use-after-unload bug: the registry used to erase the
//     entry and leave the attachment dangling);
//   - the staticcheck gate fails closed on an inconsistent Report (errors()
//     counted > 0 but no finding carries Severity::kError);
//   - FaultRegistry bumps its epoch on every membership change (the verdict
//     cache's invalidation signal);
//   - program id allocation survives wraparound without handing out 0 or a
//     live id.
#include <gtest/gtest.h>

#include <set>

#include "src/core/system.h"
#include "src/core/toolchain.h"
#include "src/ebpf/asm.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/fault.h"
#include "src/ebpf/loader.h"

namespace ebpf {
namespace {

ebpf::Program ConstProg(s32 verdict) {
  ProgramBuilder b("const", ProgType::kSyscall);
  b.Ins(Mov64Imm(R0, verdict)).Ins(Exit());
  return b.Build().value();
}

class LoaderGuardTest : public ::testing::Test {
 protected:
  LoaderGuardTest() { EXPECT_TRUE(sys_.ok()); }

  safex::System sys_;
  simkern::Kernel& kernel_ = sys_.kernel;
  Bpf& bpf_ = sys_.bpf;
  Loader& loader_ = sys_.loader;
  safex::HookRegistry& hooks_ = *sys_.hooks;
};

// The use-after-unload regression: before the fix, Unload erased the
// program while a hook attachment still referenced its id, so the next
// fire dispatched into a dead entry.
TEST_F(LoaderGuardTest, UnloadRefusesWhileAttached) {
  const u32 id = loader_.Load(ConstProg(7)).value();
  const u32 attachment =
      hooks_.AttachProgram(safex::HookPoint::kSyscallEnter, id).value();

  // Attached: unload must refuse, and the program must stay loaded.
  const xbase::Status refused = loader_.Unload(id);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), xbase::Code::kFailedPrecondition);
  EXPECT_TRUE(loader_.Find(id).ok());

  // The attachment still fires against a live program after the refused
  // unload — this is the dangling dispatch the guard exists to prevent.
  auto ctx = kernel_.mem()
                 .Map(64, simkern::MemPerm::kReadWrite,
                      simkern::RegionKind::kKernelData, "guard-ctx")
                 .value();
  safex::HookFireReport report;
  hooks_.FireInto(safex::HookPoint::kSyscallEnter, ctx, report);
  EXPECT_EQ(report.served, 1u);

  // Detached: unload proceeds and the id becomes unreachable.
  EXPECT_TRUE(hooks_.Detach(attachment).ok());
  EXPECT_TRUE(loader_.Unload(id).ok());
  EXPECT_FALSE(loader_.Find(id).ok());

  // The same rule for a safex extension: refused while attached, OK after
  // the detach drops the pin.
  class ZeroExt : public safex::Extension {
    xbase::Result<u64> Run(safex::Ctx&) override { return 0; }
  };
  safex::Toolchain toolchain(safex::System::VendorKey());
  safex::ExtensionManifest manifest;
  manifest.name = "guarded-ext";
  manifest.version = "1";
  auto artifact = toolchain.Build(
      manifest, [] { return std::make_unique<ZeroExt>(); },
      std::span<const u8>());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  safex::ExtLoader& ext_loader = *sys_.ext_loader;
  const u32 ext_id = ext_loader.Load(artifact.value()).value();
  const u32 ext_attachment =
      hooks_.AttachExtension(safex::HookPoint::kSyscallEnter, ext_id).value();
  EXPECT_EQ(ext_loader.Unload(ext_id).code(),
            xbase::Code::kFailedPrecondition);
  EXPECT_TRUE(ext_loader.Find(ext_id).ok());
  EXPECT_TRUE(hooks_.Detach(ext_attachment).ok());
  EXPECT_TRUE(ext_loader.Unload(ext_id).ok());
  EXPECT_FALSE(ext_loader.Find(ext_id).ok());
}

TEST_F(LoaderGuardTest, DoubleAttachCountsBothPins) {
  const u32 id = loader_.Load(ConstProg(1)).value();
  const u32 a1 =
      hooks_.AttachProgram(safex::HookPoint::kSyscallEnter, id).value();
  const u32 a2 =
      hooks_.AttachProgram(safex::HookPoint::kXdpIngress, id).value();

  EXPECT_FALSE(loader_.Unload(id).ok());
  EXPECT_TRUE(hooks_.Detach(a1).ok());
  EXPECT_FALSE(loader_.Unload(id).ok());  // one attachment remains
  EXPECT_TRUE(hooks_.Detach(a2).ok());
  EXPECT_TRUE(loader_.Unload(id).ok());
}

// The inconsistent-Report regression: a Report whose errors() count is
// positive but whose findings list carries no kError entry used to slip
// past the gate (the code looked for the first kError finding and, not
// finding one, fell through to "accepted").
TEST(StaticcheckGateTest, InconsistentReportFailsClosed) {
  std::vector<staticcheck::Finding> findings;
  staticcheck::Finding warning;
  warning.severity = staticcheck::Severity::kWarning;
  warning.message = "advisory only";
  findings.push_back(warning);

  // errors() claims one error, but no finding is error-severity.
  const xbase::Status status = StaticcheckGate(1, findings);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("inconsistent"), std::string::npos);

  // Same shape with an empty findings list.
  EXPECT_FALSE(StaticcheckGate(1, {}).ok());
}

TEST(StaticcheckGateTest, CleanAndErrorReports) {
  EXPECT_TRUE(StaticcheckGate(0, {}).ok());

  std::vector<staticcheck::Finding> findings;
  staticcheck::Finding error;
  error.severity = staticcheck::Severity::kError;
  error.message = "stack depth exceeded";
  findings.push_back(error);
  const xbase::Status status = StaticcheckGate(1, findings);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("stack depth exceeded"),
            std::string::npos);
}

// The epoch regression: FaultRegistry had no generation counter, so a
// verdict cache keyed only on program bytes served stale "safe" verdicts
// across fault toggles. Every membership change must move the epoch;
// redundant operations must not.
TEST(FaultEpochTest, EpochMovesOnEveryMembershipChange) {
  FaultRegistry faults;
  const xbase::u64 e0 = faults.epoch();

  faults.Inject(kFaultVerifierScalarBounds);
  const xbase::u64 e1 = faults.epoch();
  EXPECT_NE(e1, e0);

  faults.Inject(kFaultVerifierScalarBounds);  // already active: no change
  EXPECT_EQ(faults.epoch(), e1);

  faults.Clear(kFaultVerifierScalarBounds);
  const xbase::u64 e2 = faults.epoch();
  EXPECT_NE(e2, e1);

  faults.Clear(kFaultVerifierScalarBounds);  // already clear: no change
  EXPECT_EQ(faults.epoch(), e2);

  faults.Inject(kFaultJitBranchOffByOne);
  faults.Inject(kFaultHelperArrayOverflow);
  const xbase::u64 e3 = faults.epoch();
  EXPECT_EQ(faults.active_count(), 2u);
  faults.ClearAll();
  EXPECT_NE(faults.epoch(), e3);
  EXPECT_EQ(faults.active_count(), 0u);
  faults.ClearAll();  // already empty: no change
  EXPECT_EQ(faults.epoch(), e3 + 1);

  // Non-catalog ids take the fallback path but obey the same contract.
  faults.Inject("verifier.some_future_defect");
  const xbase::u64 e4 = faults.epoch();
  EXPECT_NE(e4, e3 + 1);
  EXPECT_TRUE(faults.IsActive("verifier.some_future_defect"));
  faults.Clear("verifier.some_future_defect");
  EXPECT_NE(faults.epoch(), e4);
}

// The wraparound regression: next_id_ was a bare counter. Positioned just
// below the 32-bit ceiling it must wrap past 0, and never re-issue an id
// that is still loaded.
TEST_F(LoaderGuardTest, IdAllocationSurvivesWraparound) {
  const ebpf::Program prog = ConstProg(3);

  // Park a program at id 1 — after the wrap, the allocator must skip it.
  const u32 first = loader_.Load(prog).value();
  EXPECT_EQ(first, 1u);

  loader_.SetNextIdForTest(0xFFFFFFFE);
  const u32 a = loader_.Load(prog).value();
  const u32 b = loader_.Load(prog).value();
  const u32 c = loader_.Load(prog).value();
  EXPECT_EQ(a, 0xFFFFFFFEu);
  EXPECT_EQ(b, 0xFFFFFFFFu);
  // Wrapped: 0 is never issued, and 1 is still live, so the next free id
  // is 2.
  EXPECT_EQ(c, 2u);

  const std::set<u32> ids = {first, a, b, c};
  EXPECT_EQ(ids.size(), 4u);
  for (const u32 id : ids) {
    EXPECT_TRUE(loader_.Find(id).ok());
  }
}

TEST_F(LoaderGuardTest, IdChurnNeverCollidesWithLiveIds) {
  const ebpf::Program prog = ConstProg(4);
  std::set<u32> live;
  // Churn across the wrap point: load two, unload the older, repeatedly.
  loader_.SetNextIdForTest(0xFFFFFFF0);
  std::vector<u32> window;
  for (int i = 0; i < 64; ++i) {
    const u32 id = loader_.Load(prog).value();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(live.insert(id).second)
        << "id " << id << " issued while still live";
    window.push_back(id);
    if (window.size() > 8) {
      const u32 victim = window.front();
      window.erase(window.begin());
      EXPECT_TRUE(loader_.Unload(victim).ok());
      live.erase(victim);
    }
  }
  EXPECT_EQ(loader_.size(), live.size());
}

}  // namespace
}  // namespace ebpf
