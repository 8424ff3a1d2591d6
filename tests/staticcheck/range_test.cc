// Tests for the staticcheck numeric domain (range.h), the staticcheck
// prepass as a verifier cross-check, and the rangefuzz three-oracle
// harness. The prepass regression here is the PR's acceptance bar: a
// program the *faulted* verifier admits must be rejected by staticcheck
// from the bytecode alone.
#include <gtest/gtest.h>

#include "src/analysis/rangefuzz.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/asm.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/fault.h"
#include "src/ebpf/insn.h"
#include "src/ebpf/loader.h"
#include "src/ebpf/map.h"
#include "src/simkern/kernel.h"
#include "src/staticcheck/range.h"

namespace staticcheck {
namespace {

using ebpf::BPF_ADD;
using ebpf::BPF_AND;
using ebpf::BPF_JEQ;
using ebpf::BPF_JGT;
using ebpf::BPF_JLT;
using ebpf::BPF_RSH;
using xbase::s64;
using xbase::u32;
using xbase::u64;

TEST(RangeValTest, ConstIsExact) {
  const RangeVal v = RangeVal::Const(42);
  EXPECT_TRUE(v.IsConst());
  EXPECT_TRUE(v.Contains(42));
  EXPECT_FALSE(v.Contains(41));
  EXPECT_FALSE(v.Contains(43));
  EXPECT_EQ(v.umin, 42u);
  EXPECT_EQ(v.umax, 42u);
  EXPECT_EQ(v.smin, 42);
  EXPECT_EQ(v.smax, 42);
}

TEST(RangeValTest, ReduceTightensBitsFromInterval) {
  RangeVal v = RangeVal::FromU(0, 7);
  // Every value in [0,7] has bits 3..63 clear, so Reduce must know them.
  EXPECT_EQ(v.bits.mask & ~u64{7}, 0u);
  EXPECT_EQ(v.bits.value, 0u);
  EXPECT_TRUE(v.Contains(0));
  EXPECT_TRUE(v.Contains(7));
  EXPECT_FALSE(v.Contains(8));
}

TEST(RangeValTest, ReduceTightensIntervalFromBits) {
  RangeVal v;
  v.bits = KnownBits{0x10, 0x01};  // value in {0x10, 0x11}
  v.Reduce();
  EXPECT_EQ(v.umin, 0x10u);
  EXPECT_EQ(v.umax, 0x11u);
  EXPECT_GE(v.smin, 0);
}

TEST(RangeValTest, NonNegativeUnsignedRangeImpliesSignedRange) {
  RangeVal v = RangeVal::FromU(5, 100);
  EXPECT_EQ(v.smin, 5);
  EXPECT_EQ(v.smax, 100);
}

TEST(RangeAluTest, AddConstants) {
  const RangeVal r =
      RangeAlu(BPF_ADD, RangeVal::Const(40), RangeVal::Const(2), true);
  EXPECT_TRUE(r.IsConst());
  EXPECT_TRUE(r.Contains(42));
}

TEST(RangeAluTest, AddIntervals) {
  const RangeVal r = RangeAlu(BPF_ADD, RangeVal::FromU(0, 10),
                              RangeVal::FromU(100, 200), true);
  for (u64 v = 100; v <= 210; ++v) {
    EXPECT_TRUE(r.Contains(v)) << v;
  }
}

TEST(RangeAluTest, AddOverflowWidensInsteadOfWrapping) {
  // umax + umax overflows u64: the result interval must not claim a wrapped
  // tight bound it cannot prove.
  const RangeVal a = RangeVal::FromU(0, ~u64{0});
  const RangeVal r = RangeAlu(BPF_ADD, a, RangeVal::Const(1), true);
  EXPECT_TRUE(r.Contains(0));        // wraparound value
  EXPECT_TRUE(r.Contains(~u64{0}));  // max - no wrap yet
}

TEST(RangeAluTest, Alu32TruncatesOperandsAndResult) {
  // 0xffffffff + 1 in 32-bit mode wraps to 0 (then zero-extends).
  const RangeVal r = RangeAlu(BPF_ADD, RangeVal::Const(0xffffffffull),
                              RangeVal::Const(1), false);
  EXPECT_TRUE(r.Contains(0));
  EXPECT_FALSE(r.Contains(0x100000000ull));
}

TEST(RangeAluTest, AndWithMaskBoundsResult) {
  const RangeVal r =
      RangeAlu(BPF_AND, RangeVal::Unknown(), RangeVal::Const(0xff), true);
  EXPECT_LE(r.umax, 0xffu);
  for (u64 v = 0; v <= 0xff; ++v) {
    EXPECT_TRUE(r.Contains(v)) << v;
  }
}

TEST(RangeAluTest, RshZeroKeepsSignUnknown) {
  // The BPF_RSH shift==0 identity: the sign bit stays in place, so the
  // result is NOT provably non-negative (the bug rangefuzz found in the
  // verifier's transfer function).
  const RangeVal r =
      RangeAlu(BPF_RSH, RangeVal::Unknown(), RangeVal::Const(0), true);
  EXPECT_TRUE(r.Contains(~u64{0}));  // -1 must stay inside the claim
}

TEST(RangeCast32Test, TruncatesAndZeroExtends) {
  const RangeVal r = RangeCast32(RangeVal::Const(0xaabbccdd11223344ull));
  EXPECT_TRUE(r.IsConst());
  EXPECT_TRUE(r.Contains(0x11223344ull));
  EXPECT_GE(r.smin, 0);  // zero-extension: always non-negative
}

TEST(RangeJoinTest, JoinContainsBothSides) {
  const RangeVal j =
      RangeJoin(RangeVal::Const(3), RangeVal::FromU(100, 200));
  EXPECT_TRUE(j.Contains(3));
  EXPECT_TRUE(j.Contains(150));
  EXPECT_TRUE(j.Contains(200));
}

TEST(RangeRefineTest, JeqTakenPinsValue) {
  RangeVal dst = RangeVal::Unknown();
  RangeVal src = RangeVal::Const(17);
  ASSERT_TRUE(RangeRefine(BPF_JEQ, /*is32=*/false, /*taken=*/true, dst, src));
  EXPECT_TRUE(dst.IsConst());
  EXPECT_TRUE(dst.Contains(17));
}

TEST(RangeRefineTest, ContradictoryEqualityIsInfeasible) {
  RangeVal dst = RangeVal::Const(5);
  RangeVal src = RangeVal::Const(7);
  EXPECT_FALSE(
      RangeRefine(BPF_JEQ, /*is32=*/false, /*taken=*/true, dst, src));
}

TEST(RangeRefineTest, JgtTakenRaisesUmin) {
  RangeVal dst = RangeVal::FromU(0, 100);
  RangeVal src = RangeVal::Const(10);
  ASSERT_TRUE(RangeRefine(BPF_JGT, /*is32=*/false, /*taken=*/true, dst, src));
  EXPECT_EQ(dst.umin, 11u);
  EXPECT_EQ(dst.umax, 100u);
}

TEST(RangeRefineTest, JgtFallThroughKeepsBoundItself) {
  // The Table-1 off-by-one shape: !(r > 8) means r <= 8, and 8 itself must
  // stay inside the refined range.
  RangeVal dst = RangeVal::FromU(0, 100);
  RangeVal src = RangeVal::Const(8);
  ASSERT_TRUE(
      RangeRefine(BPF_JGT, /*is32=*/false, /*taken=*/false, dst, src));
  EXPECT_EQ(dst.umax, 8u);
  EXPECT_TRUE(dst.Contains(8));
}

TEST(RangeRefineTest, Jmp32DoesNotRefineWideRegister)
{
  // A 32-bit compare only sees the low word: with unknown upper bits the
  // 64-bit unsigned range must not tighten (kernel commit 3844d153 class).
  RangeVal dst = RangeVal::Unknown();
  RangeVal src = RangeVal::Const(10);
  ASSERT_TRUE(RangeRefine(BPF_JLT, /*is32=*/true, /*taken=*/true, dst, src));
  EXPECT_TRUE(dst.Contains(0xffffffff00000001ull));
}

// ---- prepass regression: staticcheck rejects what a broken verifier takes --

struct Cell {
  Cell() : kernel(simkern::KernelConfig{}), bpf(kernel), loader(bpf) {
    EXPECT_TRUE(kernel.BootstrapWorkload().ok());
  }
  int CreateValueMap() {
    ebpf::MapSpec spec;
    spec.type = ebpf::MapType::kArray;
    spec.key_size = 4;
    spec.value_size = 16;
    spec.max_entries = 1;
    spec.name = "range_test";
    auto fd = bpf.maps().Create(spec);
    EXPECT_TRUE(fd.ok());
    return fd.ok() ? fd.value() : -1;
  }
  simkern::Kernel kernel;
  ebpf::Bpf bpf;
  ebpf::Loader loader;
};

TEST(PrepassRegressionTest, StaticcheckRejectsWhatFaultedVerifierAccepts) {
  Cell cell;
  const int fd = cell.CreateValueMap();
  auto prog = analysis::BuildJgtOffByOneExploit(fd);
  ASSERT_TRUE(prog.ok());

  // The clean verifier rejects the out-of-bounds witness.
  EXPECT_FALSE(cell.loader.Load(prog.value()).ok());

  // With the Table-1 refinement bug injected, the verifier admits it...
  cell.bpf.faults().Inject(ebpf::kFaultVerifierJgtOffByOne);
  EXPECT_TRUE(cell.loader.Load(prog.value()).ok());

  // ...and the verifier-independent prepass still rejects it.
  ebpf::LoadOptions opts;
  opts.staticcheck_prepass = true;
  auto guarded = cell.loader.Load(prog.value(), opts);
  ASSERT_FALSE(guarded.ok());
  EXPECT_NE(guarded.status().message().find("staticcheck prepass"),
            std::string::npos);
}

TEST(PrepassRegressionTest, PrepassAcceptsTrivialProgram) {
  Cell cell;
  ebpf::ProgramBuilder b("range_test_ok", ebpf::ProgType::kKprobe);
  b.Ins(ebpf::Mov64Imm(ebpf::R0, 0)).Ins(ebpf::Exit());
  auto prog = b.Build();
  ASSERT_TRUE(prog.ok());
  ebpf::LoadOptions opts;
  opts.staticcheck_prepass = true;
  EXPECT_TRUE(cell.loader.Load(prog.value(), opts).ok());
}

TEST(PrepassRegressionTest, PrepassAcceptsInt64MinConstant) {
  // The zone domain must not negate INT64_MIN when it tracks the constant.
  Cell cell;
  ebpf::ProgramBuilder b("range_test_int64_min", ebpf::ProgType::kKprobe);
  b.Ins(ebpf::LdImm64(ebpf::R1, u64{1} << 63))
      .Ins(ebpf::Mov64Reg(ebpf::R2, ebpf::R1))
      .Ins(ebpf::Mov64Imm(ebpf::R0, 0))
      .Ins(ebpf::Exit());
  auto prog = b.Build();
  ASSERT_TRUE(prog.ok());
  ebpf::LoadOptions opts;
  opts.staticcheck_prepass = true;
  auto loaded = cell.loader.Load(prog.value(), opts);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

// ---- rangefuzz harness ------------------------------------------------------

TEST(RangeFuzzTest, ShortCleanCampaignFindsNothing) {
  analysis::RangeFuzzOptions opts;
  opts.seed = 7;
  opts.programs = 40;
  opts.execs = 8;
  auto report = analysis::RunRangeFuzz(opts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().Sound());
  EXPECT_TRUE(report.value().findings.empty());
  EXPECT_GT(report.value().stats.points_checked, 0u);
  EXPECT_GT(report.value().stats.points_compared, 0u);
}

TEST(RangeFuzzTest, InjectedFaultSurfacesAsVerifierUnsoundness) {
  analysis::RangeFuzzOptions opts;
  opts.seed = 1;
  opts.programs = 120;
  opts.execs = 16;
  opts.verifier_faults = {std::string(ebpf::kFaultVerifierAlu32BoundsTrunc)};
  auto report = analysis::RunRangeFuzz(opts);
  ASSERT_TRUE(report.ok());
  // The fault lives in the verifier oracle only: staticcheck must stay
  // sound while the verifier's claims are concretely violated.
  EXPECT_FALSE(report.value().StaticUnsound());
}

TEST(RangeFuzzTest, UnknownFaultIdRefused) {
  analysis::RangeFuzzOptions opts;
  opts.programs = 1;
  opts.verifier_faults = {"bogus.id"};
  auto report = analysis::RunRangeFuzz(opts);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), xbase::Code::kInvalidArgument);
  EXPECT_NE(report.status().message().find("bogus.id"), std::string::npos);
}

// Every witness row, range and relational: the clean verifier rejects the
// exploit, the faulted one admits it, and the fault is detected.
// staticcheck rejects every range witness; it accepts spill-width, whose
// detection rests on the concrete escape.
TEST(FaultWitnessTest, EveryInjectedFaultDetected) {
  auto rows = analysis::CheckFaultWitnesses(/*execs=*/8);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 7u);
  for (const analysis::FaultWitnessResult& row : rows.value()) {
    const std::string id(row.witness.fault_id);
    EXPECT_TRUE(row.clean_verifier_rejects) << id;
    EXPECT_TRUE(row.faulted_verifier_accepts) << id;
    EXPECT_TRUE(row.detected()) << id;
    if (!row.witness.relational) {
      EXPECT_TRUE(row.staticcheck_rejects) << id;
    }
  }
}

}  // namespace
}  // namespace staticcheck
