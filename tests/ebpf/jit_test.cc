// JIT translation tests: the image must be semantically identical to the
// source (differential fuzz over random verified programs), and the
// injectable branch defect must corrupt exactly the long branches.
#include <gtest/gtest.h>

#include "src/analysis/workloads.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/jit.h"
#include "src/ebpf/loader.h"
#include "src/xbase/rand.h"

namespace ebpf {
namespace {

TEST(JitTest, CleanTranslationIsIdentity) {
  FaultRegistry faults;
  auto prog = analysis::BuildCountedLoop(16);
  auto image = JitCompile(prog.value(), faults);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image.value().image.insns, prog.value().insns);
  EXPECT_EQ(image.value().stats.branches_corrupted, 0u);
  EXPECT_GT(image.value().stats.branches_relocated, 0u);
}

TEST(JitTest, DefectCorruptsOnlyLongBranches) {
  FaultRegistry faults;
  faults.Inject(kFaultJitBranchOffByOne);
  auto victim = analysis::BuildJitHijackVictim();
  auto image = JitCompile(victim.value(), faults);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image.value().stats.branches_corrupted, 1u);
  // Short-branch programs are untouched even with the defect live.
  auto short_prog = analysis::BuildCountedLoop(4);
  auto short_image = JitCompile(short_prog.value(), faults);
  EXPECT_EQ(short_image.value().stats.branches_corrupted, 0u);
  EXPECT_EQ(short_image.value().image.insns, short_prog.value().insns);
}

// Differential property: for every random program the verifier accepts,
// the JITed image must compute the same r0 as the source instructions
// (run by loading the source as its own image).
class JitDifferentialTest : public ::testing::TestWithParam<xbase::u64> {};

TEST_P(JitDifferentialTest, ImageMatchesSourceSemantics) {
  xbase::Rng rng(GetParam());
  SCOPED_TRACE(::testing::Message() << "rng seed " << rng.seed());
  int compared = 0;
  for (int trial = 0; trial < 150; ++trial) {
    simkern::Kernel kernel;
    Bpf bpf(kernel);
    Loader loader(bpf);
    ASSERT_TRUE(kernel.BootstrapWorkload().ok());

    // Random arithmetic/branch programs (reusing the spirit of the
    // verifier soundness generator, arithmetic-only for determinism).
    Program prog;
    prog.name = "jitdiff";
    prog.type = ProgType::kKprobe;
    for (u8 regno = R0; regno <= R9; ++regno) {
      prog.insns.push_back(
          Mov64Imm(regno, static_cast<s32>(rng.NextBelow(1000))));
    }
    const xbase::u64 body = 6 + rng.NextBelow(20);
    for (xbase::u64 i = 0; i < body; ++i) {
      switch (rng.NextBelow(3)) {
        case 0: {
          static constexpr u8 kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_XOR};
          prog.insns.push_back(
              Alu64Reg(kOps[rng.NextBelow(4)],
                       static_cast<u8>(rng.NextBelow(10)),
                       static_cast<u8>(rng.NextBelow(10))));
          break;
        }
        case 1:
          prog.insns.push_back(
              JmpImm(BPF_JGT, static_cast<u8>(rng.NextBelow(10)),
                     static_cast<s32>(rng.NextBelow(512)),
                     static_cast<s16>(1 + rng.NextBelow(4))));
          break;
        default:
          prog.insns.push_back(
              Alu32Imm(BPF_ADD, static_cast<u8>(rng.NextBelow(10)),
                       static_cast<s32>(rng.NextU32() & 0xffff)));
      }
    }
    prog.insns.push_back(Mov64Reg(R0, static_cast<u8>(rng.NextBelow(10))));
    prog.insns.push_back(Exit());

    auto id = loader.Load(prog);
    if (!id.ok()) {
      continue;
    }
    ++compared;
    auto loaded = loader.Find(id.value());
    // The loader's image is the JIT output; build a "source image" too,
    // with its own decoded form so the threaded engine runs the source and
    // not the JIT's lowering of it.
    LoadedProgram source = *loaded.value();
    source.image = source.source;
    source.decoded =
        DecodeProgram(source.image, &bpf.helpers(), &bpf.kfuncs());

    auto ctx = kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                simkern::RegionKind::kKernelData, "c");
    auto via_jit =
        Execute(bpf, *loaded.value(), ctx.value(), {}, &loader);
    auto via_source = Execute(bpf, source, ctx.value(), {}, &loader);
    ASSERT_TRUE(via_jit.ok());
    ASSERT_TRUE(via_source.ok());
    EXPECT_EQ(via_jit.value().r0, via_source.value().r0)
        << "JIT changed semantics at trial " << trial;
  }
  EXPECT_GT(compared, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitDifferentialTest,
                         ::testing::Values(3, 77, 901));

}  // namespace
}  // namespace ebpf
