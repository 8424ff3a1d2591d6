// Verifier behaviour suite: acceptance/rejection cases for every check the
// verifier implements, the version-gating matrix, and the soundness
// property test (verifier-accepted random programs never fault the kernel).
#include <gtest/gtest.h>

#include "src/analysis/workloads.h"
#include "src/ebpf/asm.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/disasm.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/verifier.h"
#include "src/xbase/rand.h"
#include "src/xbase/strfmt.h"

namespace ebpf {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() : bpf_(kernel_) {
    EXPECT_TRUE(kernel_.BootstrapWorkload().ok());
  }

  int MakeArrayMap(u32 value_size, u32 entries) {
    MapSpec spec;
    spec.type = MapType::kArray;
    spec.key_size = 4;
    spec.value_size = value_size;
    spec.max_entries = entries;
    spec.name = "t";
    return bpf_.maps().Create(spec).value();
  }

  xbase::Result<VerifyResult> VerifyProg(
      const Program& prog, simkern::KernelVersion version = simkern::kV5_18,
      bool privileged = true) {
    VerifyOptions opts;
    opts.version = version;
    opts.privileged = privileged;
    opts.faults = &bpf_.faults();
    return Verify(prog, bpf_.maps(), bpf_.helpers(), opts);
  }

  void ExpectRejected(const Program& prog, const std::string& fragment,
                      simkern::KernelVersion version = simkern::kV5_18,
                      bool privileged = true) {
    auto result = VerifyProg(prog, version, privileged);
    ASSERT_FALSE(result.ok()) << "expected rejection: " << fragment;
    EXPECT_NE(result.status().message().find(fragment), std::string::npos)
        << result.status().ToString();
  }

  void ExpectAccepted(const Program& prog,
                      simkern::KernelVersion version = simkern::kV5_18) {
    auto result = VerifyProg(prog, version);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }

  simkern::Kernel kernel_;
  Bpf bpf_;
};

Program Must(xbase::Result<Program> prog) { return std::move(prog).value(); }

// ---- CFG -----------------------------------------------------------------------

TEST_F(VerifierTest, RejectsEmptyProgram) {
  Program prog;
  prog.name = "empty";
  auto result = VerifyProg(prog);
  EXPECT_FALSE(result.ok());
}

TEST_F(VerifierTest, RejectsMissingExit) {
  ProgramBuilder b("noexit", ProgType::kKprobe);
  b.Ins(Mov64Imm(R0, 0));
  ExpectRejected(Must(b.Build()), "past the last instruction");
}

TEST_F(VerifierTest, RejectsJumpOutOfRange) {
  ProgramBuilder b("badjmp", ProgType::kKprobe);
  b.Ins(Mov64Imm(R0, 0)).Ins(JmpImm(BPF_JEQ, R0, 0, 100)).Ins(Exit());
  ExpectRejected(Must(b.Build()), "jump out of range");
}

TEST_F(VerifierTest, RejectsJumpIntoLdImm64) {
  ProgramBuilder b("midld", ProgType::kKprobe);
  b.Ins(JmpImm(BPF_JA, 0, 0, 1))        // jumps to the second ld slot
      .Ins(LdImm64(R1, 0x1122334455667788ULL))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "middle of ld_imm64");
}

TEST_F(VerifierTest, RejectsUnreachableCode) {
  ProgramBuilder b("dead", ProgType::kKprobe);
  b.Ins(Mov64Imm(R0, 0))
      .Ins(Exit())
      .Ins(Mov64Imm(R0, 1))  // unreachable
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "unreachable");
}

TEST_F(VerifierTest, RejectsOversizedUnprivilegedProgram) {
  auto prog = analysis::BuildStraightLine(kMaxProgLenUnpriv + 10);
  simkern::KernelConfig config;
  config.unprivileged_bpf_disabled = false;
  auto result = VerifyProg(prog.value(), simkern::kV5_18,
                           /*privileged=*/false);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("too large"), std::string::npos);
}

// ---- register discipline ----------------------------------------------------------

TEST_F(VerifierTest, RejectsWriteToFramePointer) {
  ProgramBuilder b("wfp", ProgType::kKprobe);
  b.Ins(Mov64Imm(R10, 0)).Ins(Mov64Imm(R0, 0)).Ins(Exit());
  ExpectRejected(Must(b.Build()), "frame pointer");
}

TEST_F(VerifierTest, RejectsUninitR0AtExit) {
  ProgramBuilder b("nor0", ProgType::kKprobe);
  b.Ins(Exit());
  ExpectRejected(Must(b.Build()), "R0 !read_ok");
}

TEST_F(VerifierTest, RejectsArithmeticOnTwoPointers) {
  ProgramBuilder b("ptrptr", ProgType::kKprobe);
  b.Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Reg(BPF_ADD, R2, R10))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "two pointers");
}

TEST_F(VerifierTest, AcceptsPtrSubPtrForPrivileged) {
  ProgramBuilder b("ptrsub", ProgType::kKprobe);
  b.Ins(Mov64Reg(R2, R10))
      .Ins(Mov64Reg(R3, R10))
      .Ins(Alu64Reg(BPF_SUB, R2, R3))
      .Ins(Mov64Reg(R0, R2))
      .Ins(Exit());
  ExpectAccepted(Must(b.Build()));
}

TEST_F(VerifierTest, RejectsDivByConstZero) {
  ProgramBuilder b("div0", ProgType::kKprobe);
  b.Ins(Mov64Imm(R0, 5))
      .Ins(Alu64Imm(BPF_DIV, R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "division by zero");
}

TEST_F(VerifierTest, RejectsOversizedConstShift) {
  ProgramBuilder b("shift", ProgType::kKprobe);
  b.Ins(Mov64Imm(R0, 5))
      .Ins(Alu64Imm(BPF_LSH, R0, 64))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "shift");
}

// ---- stack ---------------------------------------------------------------------------

TEST_F(VerifierTest, RejectsReadOfUninitializedStack) {
  ProgramBuilder b("coldread", ProgType::kKprobe);
  b.Ins(LdxMem(BPF_DW, R0, R10, -16)).Ins(Exit());
  ExpectRejected(Must(b.Build()), "invalid read from stack");
}

TEST_F(VerifierTest, SpillPreservesPointerType) {
  // Spill the ctx pointer, fill it back, then use it as ctx: only works if
  // the spill tracked the type.
  ProgramBuilder b("spillptr", ProgType::kXdp);
  b.Ins(StxMem(BPF_DW, R10, R1, -8))
      .Ins(LdxMem(BPF_DW, R2, R10, -8))
      .Ins(LdxMem(BPF_W, R0, R2, 0))  // ctx load via the filled pointer
      .Ins(Exit());
  ExpectAccepted(Must(b.Build()));
}

TEST_F(VerifierTest, PartialOverwriteDowngradesSpill) {
  // Spill ctx ptr, clobber one byte, then try to use it as a pointer.
  ProgramBuilder b("clobber", ProgType::kXdp);
  b.Ins(StxMem(BPF_DW, R10, R1, -8))
      .Ins(StMemImm(BPF_B, R10, -5, 7))
      .Ins(LdxMem(BPF_DW, R2, R10, -8))
      .Ins(LdxMem(BPF_W, R0, R2, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "scalar");
}

TEST_F(VerifierTest, RejectsVariableStackOffset) {
  ProgramBuilder b("varstack", ProgType::kXdp);
  b.Ins(LdxMem(BPF_W, R2, R1, 0))   // unknown scalar
      .Ins(Mov64Reg(R3, R10))
      .Ins(Alu64Reg(BPF_ADD, R3, R2))
      .Ins(StMemImm(BPF_DW, R3, -8, 1))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "variable stack access");
}

// ---- ctx & packet -------------------------------------------------------------------

TEST_F(VerifierTest, RejectsCtxOutOfBounds) {
  ProgramBuilder b("ctxoob", ProgType::kXdp);
  b.Ins(LdxMem(BPF_DW, R0, R1, 128)).Ins(Exit());
  ExpectRejected(Must(b.Build()), "bpf_context");
}

TEST_F(VerifierTest, RejectsCtxWriteForReadOnlyProgTypes) {
  ProgramBuilder b("ctxw", ProgType::kKprobe);
  b.Ins(StMemImm(BPF_W, R1, 0, 1))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "write into ctx");
}

TEST_F(VerifierTest, PacketAccessRequiresRangeCheck) {
  ProgramBuilder b("nopkt", ProgType::kXdp);
  b.Ins(LdxMem(BPF_DW, R2, R1, 8))  // data
      .Ins(LdxMem(BPF_B, R0, R2, 0))  // no compare against data_end!
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "invalid access to packet");
}

TEST_F(VerifierTest, PacketAccessAfterRangeCheckAccepted) {
  ExpectAccepted(Must(analysis::BuildPacketCounter(MakeArrayMap(8, 4))));
}

TEST_F(VerifierTest, PacketRangeDoesNotExtendPastProof) {
  ProgramBuilder b("pastproof", ProgType::kXdp);
  b.Ins(LdxMem(BPF_DW, R2, R1, 8))
      .Ins(LdxMem(BPF_DW, R3, R1, 16))
      .Ins(Mov64Reg(R4, R2))
      .Ins(Alu64Imm(BPF_ADD, R4, 4))
      .JmpRegTo(BPF_JGT, R4, R3, "out")  // proves 4 bytes
      .Ins(LdxMem(BPF_B, R0, R2, 7))     // reads the 8th: too far
      .Ins(Exit())
      .Bind("out")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "invalid access to packet");
}

TEST_F(VerifierTest, PacketPointersInvalidatedByDataChangingHelper) {
  ProgramBuilder b("invalidate", ProgType::kXdp);
  b.Ins(Mov64Reg(R6, R1))
      .Ins(LdxMem(BPF_DW, R7, R1, 8))
      .Ins(LdxMem(BPF_DW, R3, R1, 16))
      .Ins(Mov64Reg(R4, R7))
      .Ins(Alu64Imm(BPF_ADD, R4, 4))
      .JmpRegTo(BPF_JGT, R4, R3, "out")
      .Ins(Mov64Reg(R1, R6))
      .Ins(CallHelper(kHelperSkbVlanPop))  // changes packet data
      .Ins(LdxMem(BPF_B, R0, R7, 0))       // stale packet pointer
      .Ins(Exit())
      .Bind("out")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "scalar");
}

// ---- bounds refinement ----------------------------------------------------------------

TEST_F(VerifierTest, BoundsCheckedMapAccessWithVariableIndex) {
  // value_size 64; index from ctx masked to [0, 56]: in bounds.
  const int fd = MakeArrayMap(64, 4);
  ProgramBuilder b("varidx", ProgType::kXdp);
  b.Ins(LdxMem(BPF_W, R6, R1, 0))  // unknown scalar
      .Ins(Alu64Imm(BPF_AND, R6, 56))
      .Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(LdMapFd(R1, fd))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(Alu64Reg(BPF_ADD, R0, R6))
      .Ins(LdxMem(BPF_DW, R0, R0, 0))
      .Ins(Exit())
      .Bind("out")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectAccepted(Must(b.Build()));
}

TEST_F(VerifierTest, UncheckedVariableIndexRejected) {
  const int fd = MakeArrayMap(64, 4);
  ProgramBuilder b("unchecked", ProgType::kXdp);
  b.Ins(LdxMem(BPF_W, R6, R1, 0))  // unbounded scalar
      .Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(LdMapFd(R1, fd))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(Alu64Reg(BPF_ADD, R0, R6))
      .Ins(LdxMem(BPF_DW, R0, R0, 0))
      .Ins(Exit())
      .Bind("out")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "invalid access to map value");
}

TEST_F(VerifierTest, BranchRefinementAllComparators) {
  // For each unsigned comparator: index checked against 8 keeps an access
  // at [0,7] legal in an 8-entry byte array.
  const int fd = MakeArrayMap(8, 4);
  const struct {
    u8 op;
    bool jump_when_bad;  // branch taken = out-of-bounds side
  } cases[] = {
      {BPF_JGE, true},   // if (i >= 8) goto out
      {BPF_JGT, true},   // if (i > 7) goto out
  };
  for (const auto& test_case : cases) {
    ProgramBuilder b("refine", ProgType::kXdp);
    b.Ins(LdxMem(BPF_W, R6, R1, 0))
        .JmpTo(test_case.op, R6,
               test_case.op == BPF_JGE ? 8 : 7, "out")
        .Ins(StMemImm(BPF_W, R10, -4, 0))
        .Ins(LdMapFd(R1, fd))
        .Ins(Mov64Reg(R2, R10))
        .Ins(Alu64Imm(BPF_ADD, R2, -4))
        .Ins(CallHelper(kHelperMapLookupElem))
        .JmpTo(BPF_JEQ, R0, 0, "out")
        .Ins(Alu64Reg(BPF_ADD, R0, R6))
        .Ins(LdxMem(BPF_B, R0, R0, 0))
        .Ins(Exit())
        .Bind("out")
        .Ins(Mov64Imm(R0, 0))
        .Ins(Exit());
    ExpectAccepted(Must(b.Build()));
  }
}

TEST_F(VerifierTest, SignedBranchesOnExtremeConstants) {
  // A constant comparand at INT64_MIN/INT64_MAX makes one edge of each
  // strict signed compare infeasible; refining it must not compute
  // INT64_MIN - 1 or INT64_MAX + 1.
  for (const u64 bound : {u64{1} << 63, (u64{1} << 63) - 1}) {
    for (const u8 op : {BPF_JSGT, BPF_JSGE, BPF_JSLT, BPF_JSLE}) {
      ProgramBuilder b("extreme_signed", ProgType::kXdp);
      b.Ins(LdxMem(BPF_W, R6, R1, 0))
          .Ins(LdImm64(R7, bound))
          .JmpRegTo(op, R6, R7, "taken")
          .Ins(Mov64Imm(R0, 1))
          .Ins(Exit())
          .Bind("taken")
          .Ins(Mov64Imm(R0, 2))
          .Ins(Exit());
      auto result = VerifyProg(Must(b.Build()));
      EXPECT_TRUE(result.ok()) << "op " << int{op} << " vs " << bound << ": "
                               << result.status().ToString();
    }
  }
}

TEST_F(VerifierTest, ImpossibleBranchesArePruned) {
  // if (5 > 7) is never taken; the dead branch contains illegal code that
  // must not be verified.
  ProgramBuilder b("deadbranch", ProgType::kKprobe);
  b.Ins(Mov64Imm(R6, 5))
      .JmpTo(BPF_JGT, R6, 7, "bad")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit())
      .Bind("bad")
      .Ins(LdxMem(BPF_DW, R0, R9, 0))  // would be rejected if explored
      .Ins(Exit());
  ExpectAccepted(Must(b.Build()));
}

TEST_F(VerifierTest, JsetFalseBranchClearsBits) {
  // if (!(i & ~7)) then i <= 7: array access legal.
  const int fd = MakeArrayMap(8, 4);
  ProgramBuilder b("jset", ProgType::kXdp);
  b.Ins(LdxMem(BPF_W, R6, R1, 0))
      .JmpTo(BPF_JSET, R6, ~7, "out")
      .Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(LdMapFd(R1, fd))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(Alu64Reg(BPF_ADD, R0, R6))
      .Ins(LdxMem(BPF_B, R0, R0, 0))
      .Ins(Exit())
      .Bind("out")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectAccepted(Must(b.Build()));
}

TEST_F(VerifierTest, RegRegCompareRefinesAgainstBoundedRegister) {
  // r8 is bounded by an immediate compare (r8 <= 8); the *reg-reg* compare
  // "if r7 >= r8 goto out" must then bound r7 <= r8 - 1 <= 7 on the
  // fallthrough, keeping a byte access at r7 within an 8-byte value.
  // Before endpoint-based reg-reg refinement only reg-vs-immediate
  // compares refined, so this program was (wrongly) rejected.
  const int fd = MakeArrayMap(8, 4);
  const struct {
    u8 op;
    bool taken_is_bad;  // branch taken = out-of-bounds side
  } cases[] = {
      {BPF_JGE, true},   // if (r7 >= r8) goto out;  else r7 < r8
      {BPF_JLT, false},  // if (r7 < r8) goto ok
      {BPF_JSGE, true},  // signed forms: r7, r8 both provably >= 0
      {BPF_JSLT, false},
  };
  for (const auto& test_case : cases) {
    ProgramBuilder b("regreg_refine", ProgType::kXdp);
    b.Ins(StMemImm(BPF_W, R10, -4, 0))
        .Ins(LdMapFd(R1, fd))
        .Ins(Mov64Reg(R2, R10))
        .Ins(Alu64Imm(BPF_ADD, R2, -4))
        .Ins(CallHelper(kHelperMapLookupElem))
        .JmpTo(BPF_JEQ, R0, 0, "out")
        .Ins(Mov64Reg(R9, R0))
        .Ins(LdxMem(BPF_W, R7, R9, 0))
        .Ins(LdxMem(BPF_W, R8, R9, 4))
        .JmpTo(BPF_JGT, R8, 8, "out");  // r8 in [0, 8]
    if (test_case.taken_is_bad) {
      b.JmpRegTo(test_case.op, R7, R8, "out");
    } else {
      b.JmpRegTo(test_case.op, R7, R8, "ok").JaTo("out").Bind("ok");
    }
    b.Ins(Alu64Reg(BPF_ADD, R9, R7))
        .Ins(LdxMem(BPF_B, R0, R9, 0))  // needs r7 <= 7
        .Bind("out")
        .Ins(Mov64Imm(R0, 0))
        .Ins(Exit());
    auto prog = Must(b.Build());
    auto result = VerifyProg(prog);
    EXPECT_TRUE(result.ok())
        << "op " << int{test_case.op} << ": " << result.status().ToString();
  }
}

TEST_F(VerifierTest, RegRegRefinementIsNotOffByOne) {
  // Same shape, but the access needs r7 <= 7 while the compare only
  // proves r7 <= r8 <= 8 (non-strict): must still be rejected. Guards the
  // strict/non-strict distinction the injected
  // verifier.reg_reg_refine_off_by_one fault breaks.
  const int fd = MakeArrayMap(8, 4);
  ProgramBuilder b("regreg_nonstrict", ProgType::kXdp);
  b.Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(LdMapFd(R1, fd))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(Mov64Reg(R9, R0))
      .Ins(LdxMem(BPF_W, R7, R9, 0))
      .Ins(LdxMem(BPF_W, R8, R9, 4))
      .JmpTo(BPF_JGT, R8, 8, "out")     // r8 in [0, 8]
      .JmpRegTo(BPF_JGT, R7, R8, "out")  // else r7 <= r8, so r7 <= 8: too wide
      .Ins(Alu64Reg(BPF_ADD, R9, R7))
      .Ins(LdxMem(BPF_B, R0, R9, 0))    // needs r7 <= 7
      .Bind("out")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "invalid access to map value");
}

// ---- helper argument checking ------------------------------------------------------------

TEST_F(VerifierTest, RejectsScalarWhereMapPtrExpected) {
  ProgramBuilder b("badmap", ProgType::kKprobe);
  b.Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(Mov64Imm(R1, 1234))  // not a map handle
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "expected=map_ptr");
}

TEST_F(VerifierTest, RejectsUnboundedMemSize) {
  ProgramBuilder b("unboundedsz", ProgType::kXdp);
  b.Ins(LdxMem(BPF_W, R6, R1, 0))
      .Ins(Mov64Reg(R1, R10))
      .Ins(Alu64Imm(BPF_ADD, R1, -8))
      .Ins(StMemImm(BPF_DW, R10, -8, 0))
      .Ins(Mov64Reg(R2, R6))
      .Ins(Alu64Imm(BPF_LSH, R2, 16))  // size can be enormous
      .Ins(CallHelper(kHelperTracePrintk))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "unbounded memory access");
}

TEST_F(VerifierTest, RejectsStaleMapFd) {
  ProgramBuilder b("stale", ProgType::kKprobe);
  b.Ins(LdMapFd(R1, 999))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "not pointing to a valid bpf_map");
}

TEST_F(VerifierTest, HelperClobbersCallerSavedRegs) {
  ProgramBuilder b("clobbered", ProgType::kKprobe);
  b.Ins(Mov64Imm(R3, 7))
      .Ins(CallHelper(kHelperKtimeGetNs))
      .Ins(Mov64Reg(R0, R3))  // r3 died across the call
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "R3 !read_ok");
}

// ---- references & locks -------------------------------------------------------------------

TEST_F(VerifierTest, RejectsUnreleasedSocketReference) {
  ExpectRejected(Must(analysis::BuildSkLookupNoRelease()),
                 "Unreleased reference");
}

TEST_F(VerifierTest, AcceptsBalancedLookupRelease) {
  ExpectAccepted(Must(analysis::BuildSkLookupWithRelease()));
}

TEST_F(VerifierTest, RejectsUseAfterRelease) {
  ProgramBuilder b("uar", ProgType::kXdp);
  b.Ins(Mov64Reg(R6, R1))
      .Ins(StMemImm(BPF_W, R10, -12, 0x0a000001))
      .Ins(StMemImm(BPF_W, R10, -8, 0x0a000002))
      .Ins(StMemImm(BPF_H, R10, -4, 8080))
      .Ins(StMemImm(BPF_H, R10, -2, 40000))
      .Ins(Mov64Reg(R1, R6))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -12))
      .Ins(Mov64Imm(R3, 12))
      .Ins(Mov64Imm(R4, 0))
      .Ins(Mov64Imm(R5, 0))
      .Ins(CallHelper(kHelperSkLookupTcp))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(Mov64Reg(R7, R0))
      .Ins(Mov64Reg(R1, R7))
      .Ins(CallHelper(kHelperSkRelease))
      .Ins(LdxMem(BPF_W, R0, R7, 0))  // released pointer!
      .Ins(Exit())
      .Bind("out")
      .Ins(Mov64Imm(R0, 2))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "scalar");
}

TEST_F(VerifierTest, RejectsDoubleLock) {
  const int fd = MakeArrayMap(16, 1);
  ExpectRejected(Must(analysis::BuildDoubleSpinLock(fd)),
                 "holding a lock");
}

TEST_F(VerifierTest, RejectsExitWithLockHeld) {
  const int fd = MakeArrayMap(16, 1);
  ProgramBuilder b("lockexit", ProgType::kKprobe);
  b.Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(LdMapFd(R1, fd))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(Mov64Reg(R1, R0))
      .Ins(CallHelper(kHelperSpinLock))
      .Bind("out")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "not released");
}

// ---- version gating matrix -------------------------------------------------------------------

TEST_F(VerifierTest, VersionMatrix) {
  const int fd = MakeArrayMap(8, 4);
  // Bounded loop: rejected before v5.3.
  auto loop = analysis::BuildCountedLoop(10);
  EXPECT_FALSE(VerifyProg(loop.value(), simkern::kV4_20).ok());
  EXPECT_FALSE(VerifyProg(loop.value(), simkern::kV5_2).ok());
  EXPECT_TRUE(VerifyProg(loop.value(), simkern::kV5_3).ok());
  EXPECT_TRUE(VerifyProg(loop.value(), simkern::kV5_18).ok());

  // bpf_loop helper: v5.17.
  auto nested = analysis::BuildNestedLoopStall(fd, 1, 4);
  EXPECT_FALSE(VerifyProg(nested.value(), simkern::kV5_15).ok());
  EXPECT_TRUE(VerifyProg(nested.value(), simkern::kV5_17).ok());

  // JMP32: v5.1 (gated with the 32-bit bounds feature at v5.10 here).
  ProgramBuilder b32("jmp32", ProgType::kKprobe);
  b32.Ins(Mov64Imm(R0, 1))
      .Ins(Jmp32Imm(BPF_JEQ, R0, 1, 1))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  auto prog32 = b32.Build();
  EXPECT_FALSE(VerifyProg(prog32.value(), simkern::kV5_4).ok());
  EXPECT_TRUE(VerifyProg(prog32.value(), simkern::kV5_18).ok());

  // Insn budget growth: 200k-insn exploration passes only at 1M budget.
  auto big_loop = analysis::BuildCountedLoop(50000);
  EXPECT_FALSE(VerifyProg(big_loop.value(), simkern::kV4_14).ok());
}

// ---- bpf_loop callback verification ---------------------------------------------------------

TEST_F(VerifierTest, CallbackBodyIsVerified) {
  // A callback that dereferences its scalar argument must be rejected even
  // though the main body is clean.
  ProgramBuilder b("badcb", ProgType::kKprobe);
  b.Ins(Mov64Imm(R1, 3))
      .LdFuncTo(R2, "cb")
      .Ins(Mov64Imm(R3, 0))
      .Ins(Mov64Imm(R4, 0))
      .Ins(CallHelper(kHelperLoop))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit())
      .Bind("cb")
      .Ins(LdxMem(BPF_DW, R0, R1, 0))  // r1 is the loop index: a scalar!
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "scalar");
}

TEST_F(VerifierTest, RejectsNonFuncCallbackArg) {
  ProgramBuilder b("scalarcb", ProgType::kKprobe);
  b.Ins(Mov64Imm(R1, 3))
      .Ins(Mov64Imm(R2, 7))  // plain scalar, not a func ref
      .Ins(Mov64Imm(R3, 0))
      .Ins(Mov64Imm(R4, 0))
      .Ins(CallHelper(kHelperLoop))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "expected=func");
}

// ---- BPF-to-BPF calls ------------------------------------------------------------------------

TEST_F(VerifierTest, RejectsTooManyFrames) {
  // 9 nested calls exceed the 8-frame limit.
  ProgramBuilder b("deep", ProgType::kKprobe);
  b.Ins(Mov64Imm(R1, 0)).CallTo("f1").Ins(Exit());
  for (int i = 1; i <= 8; ++i) {
    b.Bind("f" + std::to_string(i));
    if (i < 8) {
      b.CallTo("f" + std::to_string(i + 1));
    } else {
      b.CallTo("f1");  // cycle also trips the frame limit before looping
    }
    b.Ins(Mov64Imm(R0, 0)).Ins(Exit());
  }
  ExpectRejected(Must(b.Build()), "too deep");
}

// ---- leak checks (unprivileged) -----------------------------------------------------------------

TEST_F(VerifierTest, UnprivilegedCannotReturnPointer) {
  const int fd = MakeArrayMap(8, 4);
  auto prog = analysis::BuildPtrLeakExploit(fd);
  ExpectRejected(prog.value(), "leaks addr", simkern::kV5_18,
                 /*privileged=*/false);
  // Privileged programs may (tracing reads kernel addresses routinely).
  ExpectAccepted(prog.value());
}

TEST_F(VerifierTest, UnprivilegedCannotStorePointerToMap) {
  const int fd = MakeArrayMap(8, 4);
  ProgramBuilder b("store", ProgType::kSocketFilter);
  b.Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(LdMapFd(R1, fd))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(StxMem(BPF_DW, R0, R10, 0))  // store fp into the map value
      .Bind("out")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  ExpectRejected(Must(b.Build()), "leaks addr", simkern::kV5_18,
                 /*privileged=*/false);
}

// ---- golden walk -------------------------------------------------------------------------------

// The verifier's walk over a fixed corpus, pinned row by row: the verdict
// and every walk counter, with pruning on, with pruning off, and under the
// state-leak defect (which stores every pruning state twice). How the
// verifier represents its state must never show here; a deliberate change
// to the walk itself does, as a refresh of this table (a mismatch prints
// the rows that match now).
enum class Walk { kPruning, kNoPruning, kStateLeak };

struct GoldenRow {
  const char* program;
  Walk walk;
  // "accept", or the rejection message (a rejected walk reports no stats).
  const char* verdict;
  u64 insns_processed;
  u64 states_explored;
  u64 states_pruned;
  u64 peak_states;
  u32 max_stack_depth;
  u64 states_leaked;
};

constexpr GoldenRow kGoldenWalks[] = {
    {"branch-diamonds/3", Walk::kPruning, "accept", 38, 8, 0, 3, 0, 0},
    {"branch-diamonds/3", Walk::kNoPruning, "accept", 38, 8, 0, 3, 0, 0},
    {"branch-diamonds/3", Walk::kStateLeak, "accept", 38, 8, 0, 3, 0, 28},
    {"branch-diamonds/6", Walk::kPruning, "accept", 318, 64, 0, 6, 0, 0},
    {"branch-diamonds/6", Walk::kNoPruning, "accept", 318, 64, 0, 6, 0, 0},
    {"branch-diamonds/6", Walk::kStateLeak, "accept", 318, 64, 0, 6, 0, 220},
    {"branch-diamonds/9", Walk::kPruning, "accept", 2558, 512, 0, 9, 0, 0},
    {"branch-diamonds/9", Walk::kNoPruning, "accept", 2558, 512, 0, 9, 0, 0},
    {"branch-diamonds/9", Walk::kStateLeak, "accept", 2558, 512, 0, 9, 0, 508},
    {"counted-loop/32", Walk::kPruning, "accept", 132, 2, 0, 1, 0, 0},
    {"counted-loop/32", Walk::kNoPruning, "accept", 132, 2, 0, 1, 0, 0},
    {"counted-loop/32", Walk::kStateLeak, "accept", 132, 2, 0, 1, 0, 33},
    {"counted-loop/512", Walk::kPruning, "accept", 2052, 2, 0, 1, 0, 0},
    {"counted-loop/512", Walk::kNoPruning, "accept", 2052, 2, 0, 1, 0, 0},
    {"counted-loop/512", Walk::kStateLeak, "accept", 2052, 2, 0, 1, 0, 33},
    {"spill-heavy/8", Walk::kPruning, "accept", 41, 3, 0, 2, 32, 0},
    {"spill-heavy/8", Walk::kNoPruning, "accept", 41, 3, 0, 2, 32, 0},
    {"spill-heavy/8", Walk::kStateLeak, "accept", 41, 3, 0, 2, 32, 6},
    {"spill-heavy/96", Walk::kPruning, "accept", 305, 3, 0, 2, 32, 0},
    {"spill-heavy/96", Walk::kNoPruning, "accept", 305, 3, 0, 2, 32, 0},
    {"spill-heavy/96", Walk::kStateLeak, "accept", 305, 3, 0, 2, 32, 6},
    {"reg-reg-diamonds/2", Walk::kPruning, "accept", 30, 5, 1, 3, 4, 0},
    {"reg-reg-diamonds/2", Walk::kNoPruning, "accept", 32, 5, 0, 3, 4, 0},
    {"reg-reg-diamonds/2", Walk::kStateLeak, "accept", 30, 5, 1, 3, 4, 14},
    {"reg-reg-diamonds/7", Walk::kPruning, "accept", 140, 30, 21, 8, 4, 0},
    {"reg-reg-diamonds/7", Walk::kNoPruning, "accept", 776, 129, 0, 8, 4, 0},
    {"reg-reg-diamonds/7", Walk::kStateLeak, "accept", 140, 30, 21, 8, 4, 94},
    {"jgt-off-by-one", Walk::kPruning,
     "at insn 10 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=9 size=8",
     0, 0, 0, 0, 0, 0},
    {"jgt-off-by-one", Walk::kNoPruning,
     "at insn 10 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=9 size=8",
     0, 0, 0, 0, 0, 0},
    {"jgt-off-by-one", Walk::kStateLeak,
     "at insn 10 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=9 size=8",
     0, 0, 0, 0, 0, 0},
    {"arbitrary-read", Walk::kPruning,
     "at insn 8 (r0 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=8 off=4096 size=8",
     0, 0, 0, 0, 0, 0},
    {"arbitrary-read", Walk::kNoPruning,
     "at insn 8 (r0 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=8 off=4096 size=8",
     0, 0, 0, 0, 0, 0},
    {"arbitrary-read", Walk::kStateLeak,
     "at insn 8 (r0 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=8 off=4096 size=8",
     0, 0, 0, 0, 0, 0},
    {"jmp32-bounds", Walk::kPruning,
     "at insn 10 (r0 add= r7): pointer offset out of range",
     0, 0, 0, 0, 0, 0},
    {"jmp32-bounds", Walk::kNoPruning,
     "at insn 10 (r0 add= r7): pointer offset out of range",
     0, 0, 0, 0, 0, 0},
    {"jmp32-bounds", Walk::kStateLeak,
     "at insn 10 (r0 add= r7): pointer offset out of range",
     0, 0, 0, 0, 0, 0},
    {"alu32-trunc", Walk::kPruning,
     "at insn 13 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=4294967295 size=8",
     0, 0, 0, 0, 0, 0},
    {"alu32-trunc", Walk::kNoPruning,
     "at insn 13 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=4294967295 size=8",
     0, 0, 0, 0, 0, 0},
    {"alu32-trunc", Walk::kStateLeak,
     "at insn 13 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=4294967295 size=8",
     0, 0, 0, 0, 0, 0},
    {"sign-ext", Walk::kPruning,
     "at insn 11 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=16 size=8",
     0, 0, 0, 0, 0, 0},
    {"sign-ext", Walk::kNoPruning,
     "at insn 11 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=16 size=8",
     0, 0, 0, 0, 0, 0},
    {"sign-ext", Walk::kStateLeak,
     "at insn 11 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=16 size=8",
     0, 0, 0, 0, 0, 0},
    {"tnum-mul", Walk::kPruning,
     "at insn 11 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=24 size=8",
     0, 0, 0, 0, 0, 0},
    {"tnum-mul", Walk::kNoPruning,
     "at insn 11 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=24 size=8",
     0, 0, 0, 0, 0, 0},
    {"tnum-mul", Walk::kStateLeak,
     "at insn 11 (r1 = *(u64 *)(r0 +0)): invalid access to map value, "
     "value_size=16 off=24 size=8",
     0, 0, 0, 0, 0, 0},
    {"reg-reg-off-by-one", Walk::kPruning,
     "at insn 13 (r0 = *(u64 *)(r9 +50)): invalid access to map value, "
     "value_size=64 off=57 size=8",
     0, 0, 0, 0, 0, 0},
    {"reg-reg-off-by-one", Walk::kNoPruning,
     "at insn 13 (r0 = *(u64 *)(r9 +50)): invalid access to map value, "
     "value_size=64 off=57 size=8",
     0, 0, 0, 0, 0, 0},
    {"reg-reg-off-by-one", Walk::kStateLeak,
     "at insn 13 (r0 = *(u64 *)(r9 +50)): invalid access to map value, "
     "value_size=64 off=57 size=8",
     0, 0, 0, 0, 0, 0},
    {"spill-width", Walk::kPruning,
     "at insn 14 (r0 = *(u8 *)(r9 +56)): R9 min value is negative "
     "(-9223372036854775752), either use unsigned index or do a if (index "
     ">=0) check",
     0, 0, 0, 0, 0, 0},
    {"spill-width", Walk::kNoPruning,
     "at insn 14 (r0 = *(u8 *)(r9 +56)): R9 min value is negative "
     "(-9223372036854775752), either use unsigned index or do a if (index "
     ">=0) check",
     0, 0, 0, 0, 0, 0},
    {"spill-width", Walk::kStateLeak,
     "at insn 14 (r0 = *(u8 *)(r9 +56)): R9 min value is negative "
     "(-9223372036854775752), either use unsigned index or do a if (index "
     ">=0) check",
     0, 0, 0, 0, 0, 0},
    {"sk-lookup-no-release", Walk::kPruning,
     "at insn 13 (exit): Unreleased reference id=1",
     0, 0, 0, 0, 0, 0},
    {"sk-lookup-no-release", Walk::kNoPruning,
     "at insn 13 (exit): Unreleased reference id=1",
     0, 0, 0, 0, 0, 0},
    {"sk-lookup-no-release", Walk::kStateLeak,
     "at insn 13 (exit): Unreleased reference id=1",
     0, 0, 0, 0, 0, 0},
    {"pkt-range-stale", Walk::kPruning,
     "at insn 11 (r5 = *(u8 *)(r7 +13)): R7 invalid mem access 'scalar'",
     0, 0, 0, 0, 0, 0},
    {"pkt-range-stale", Walk::kNoPruning,
     "at insn 11 (r5 = *(u8 *)(r7 +13)): R7 invalid mem access 'scalar'",
     0, 0, 0, 0, 0, 0},
    {"pkt-range-stale", Walk::kStateLeak,
     "at insn 11 (r5 = *(u8 *)(r7 +13)): R7 invalid mem access 'scalar'",
     0, 0, 0, 0, 0, 0},
    {"reg-reg-src", Walk::kPruning, "accept", 10, 2, 0, 1, 0, 0},
    {"reg-reg-src", Walk::kNoPruning, "accept", 10, 2, 0, 1, 0, 0},
    {"reg-reg-src", Walk::kStateLeak, "accept", 10, 2, 0, 1, 0, 3},
    {"call-stacks", Walk::kPruning, "accept", 30, 3, 1, 2, 40, 0},
    {"call-stacks", Walk::kNoPruning, "accept", 48, 4, 0, 2, 40, 0},
    {"call-stacks", Walk::kStateLeak, "accept", 30, 3, 1, 2, 40, 7},
    {"bpf-loop-callback", Walk::kPruning, "accept", 25, 3, 0, 1, 16, 0},
    {"bpf-loop-callback", Walk::kNoPruning, "accept", 25, 3, 0, 1, 16, 0},
    {"bpf-loop-callback", Walk::kStateLeak, "accept", 25, 3, 0, 1, 16, 5},
};

const char* WalkName(Walk walk) {
  switch (walk) {
    case Walk::kPruning:
      return "Walk::kPruning";
    case Walk::kNoPruning:
      return "Walk::kNoPruning";
    case Walk::kStateLeak:
      return "Walk::kStateLeak";
  }
  return "?";
}

// BPF-to-BPF call whose caller and callee each use their own stack. The
// callee's two diamonds meet their join points with stacks of different
// depths: the first join prunes a deeper state against a shallower stored
// one, the second keeps a shallower state a deeper stored one does not
// cover.
Program BuildCallWithStacks() {
  ProgramBuilder b("call-stacks", ProgType::kKprobe);
  b.Ins(LdxMem(BPF_DW, R6, R1, 0))
      .Ins(StxMem(BPF_DW, R10, R6, -8))
      .Ins(Mov64Reg(R1, R6))
      .CallTo("f")
      .Ins(LdxMem(BPF_DW, R1, R10, -8))
      .Ins(Alu64Reg(BPF_ADD, R0, R1))
      .Ins(Exit())
      .Bind("f")
      .Ins(StxMem(BPF_DW, R10, R1, -24))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Mov64Reg(R3, R1))
      .JmpTo(BPF_JGT, R3, 3, "big")
      .Ins(Mov64Imm(R3, 0))
      .JaTo("out")
      .Bind("big")
      .Ins(StMemImm(BPF_DW, R10, -32, 0))
      .Ins(Mov64Imm(R3, 0))
      .Bind("out")
      .Ins(Mov64Reg(R4, R1))
      .JmpTo(BPF_JGT, R4, 9, "wide")
      .Ins(StMemImm(BPF_DW, R10, -40, 0))
      .Ins(Mov64Imm(R4, 0))
      .JaTo("done")
      .Bind("wide")
      .Ins(Mov64Imm(R4, 0))
      .Bind("done")
      .Ins(LdxMem(BPF_DW, R2, R10, -24))
      .Ins(Alu64Reg(BPF_ADD, R0, R2))
      .Ins(Exit());
  return Must(b.Build());
}

// A reg-reg compare bounds both registers on each edge: `if r6 > r7` proves
// r7 <= 14 on the taken edge, which makes the later `r7 == 15` edge dead.
Program BuildRegRegSourceBound() {
  ProgramBuilder b("reg-reg-src", ProgType::kKprobe);
  b.Ins(LdxMem(BPF_DW, R6, R1, 0))
      .Ins(LdxMem(BPF_DW, R7, R1, 8))
      .Ins(Alu64Imm(BPF_AND, R6, 15))
      .Ins(Alu64Imm(BPF_AND, R7, 15))
      .JmpRegTo(BPF_JGT, R6, R7, "greater")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit())
      .Bind("greater")
      .JmpTo(BPF_JEQ, R7, 15, "dead")
      .Ins(Mov64Imm(R0, 1))
      .Ins(Exit())
      .Bind("dead")
      .Ins(Mov64Imm(R0, 2))
      .Ins(Exit());
  return Must(b.Build());
}

TEST_F(VerifierTest, GoldenWalk) {
  const int arr8 = MakeArrayMap(8, 4);
  const int v16 = MakeArrayMap(16, 4);
  const int v64 = MakeArrayMap(64, 4);
  std::vector<std::pair<std::string, Program>> corpus;
  const auto add = [&](std::string name, xbase::Result<Program> prog) {
    ASSERT_TRUE(prog.ok()) << name << ": " << prog.status().ToString();
    corpus.emplace_back(std::move(name), std::move(prog).value());
  };
  for (const u32 n : {3, 6, 9}) {
    add("branch-diamonds/" + std::to_string(n),
        analysis::BuildBranchDiamonds(n));
  }
  for (const u32 n : {32, 512}) {
    add("counted-loop/" + std::to_string(n), analysis::BuildCountedLoop(n));
  }
  for (const u32 n : {8, 96}) {
    add("spill-heavy/" + std::to_string(n), analysis::BuildSpillHeavy(n, v64));
  }
  for (const u32 n : {2, 7}) {
    add("reg-reg-diamonds/" + std::to_string(n),
        analysis::BuildRegRegDiamonds(n, v64));
  }
  add("jgt-off-by-one", analysis::BuildJgtOffByOneExploit(v16));
  add("arbitrary-read", analysis::BuildArbitraryReadExploit(arr8, 4096));
  add("jmp32-bounds", analysis::BuildJmp32BoundsExploit(v64));
  add("alu32-trunc", analysis::BuildAlu32TruncExploit(v16));
  add("sign-ext", analysis::BuildSignExtExploit(v16));
  add("tnum-mul", analysis::BuildTnumMulExploit(v16));
  add("reg-reg-off-by-one", analysis::BuildRegRegOffByOneExploit(v64));
  add("spill-width", analysis::BuildSpillWidthExploit(v64));
  add("sk-lookup-no-release", analysis::BuildSkLookupNoRelease());
  add("pkt-range-stale", analysis::BuildPktRangeStaleExploit());
  add("reg-reg-src", BuildRegRegSourceBound());
  add("call-stacks", BuildCallWithStacks());
  add("bpf-loop-callback", analysis::BuildNestedLoopStall(arr8, 2, 4));

  std::string mismatches;
  for (const auto& [name, prog] : corpus) {
    for (const Walk walk : {Walk::kPruning, Walk::kNoPruning,
                            Walk::kStateLeak}) {
      VerifyOptions opts;
      opts.faults = &bpf_.faults();
      opts.disable_pruning = walk == Walk::kNoPruning;
      if (walk == Walk::kStateLeak) {
        bpf_.faults().Inject(kFaultVerifierStateLeak);
      }
      auto result = Verify(prog, bpf_.maps(), bpf_.helpers(), opts);
      bpf_.faults().Clear(kFaultVerifierStateLeak);
      const std::string verdict =
          result.ok() ? "accept" : result.status().message();
      const VerifyStats stats =
          result.ok() ? result.value().stats : VerifyStats{};
      const GoldenRow* pinned = nullptr;
      for (const GoldenRow& row : kGoldenWalks) {
        if (row.program == name && row.walk == walk) {
          pinned = &row;
        }
      }
      if (pinned == nullptr || pinned->verdict != verdict ||
          pinned->insns_processed != stats.insns_processed ||
          pinned->states_explored != stats.states_explored ||
          pinned->states_pruned != stats.states_pruned ||
          pinned->peak_states != stats.peak_states ||
          pinned->max_stack_depth != stats.max_stack_depth ||
          pinned->states_leaked != stats.states_leaked) {
        mismatches += xbase::StrFormat(
            "    {\"%s\", %s, \"%s\", %llu, %llu, %llu, %llu, %u, %llu},\n",
            name.c_str(), WalkName(walk), verdict.c_str(),
            static_cast<unsigned long long>(stats.insns_processed),
            static_cast<unsigned long long>(stats.states_explored),
            static_cast<unsigned long long>(stats.states_pruned),
            static_cast<unsigned long long>(stats.peak_states),
            stats.max_stack_depth,
            static_cast<unsigned long long>(stats.states_leaked));
      }
    }
  }
  EXPECT_EQ(std::size(kGoldenWalks), corpus.size() * 3);
  EXPECT_TRUE(mismatches.empty())
      << "walks differ from the pinned table; the rows that match now:\n"
      << mismatches;
}

// ---- soundness property: accepted => safe -----------------------------------------------------

// Random-program fuzz: generate arbitrary instruction sequences; whenever
// the verifier accepts one, executing it must never crash the kernel.
// This is THE verifier contract, tested wholesale.
class VerifierSoundnessTest : public ::testing::TestWithParam<xbase::u64> {};

Insn RandomInsn(xbase::Rng& rng) {
  Insn insn;
  switch (rng.NextBelow(10)) {
    case 0:
      return Mov64Imm(static_cast<u8>(rng.NextBelow(10)),
                      static_cast<s32>(rng.NextU32()));
    case 1:
      return Mov64Reg(static_cast<u8>(rng.NextBelow(10)),
                      static_cast<u8>(rng.NextBelow(11)));
    case 2: {
      static constexpr u8 kOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_AND,
                                    BPF_OR, BPF_XOR, BPF_RSH, BPF_LSH};
      return Alu64Imm(kOps[rng.NextBelow(8)],
                      static_cast<u8>(rng.NextBelow(10)),
                      static_cast<s32>(rng.NextBelow(63) + 1));
    }
    case 3:
      return Alu64Reg(BPF_ADD, static_cast<u8>(rng.NextBelow(10)),
                      static_cast<u8>(rng.NextBelow(10)));
    case 4:
      return StxMem(BPF_DW, R10, static_cast<u8>(rng.NextBelow(10)),
                    static_cast<s16>(-8 * (1 + rng.NextBelow(8))));
    case 5:
      return LdxMem(BPF_DW, static_cast<u8>(rng.NextBelow(10)), R10,
                    static_cast<s16>(-8 * (1 + rng.NextBelow(8))));
    case 6:
      return LdxMem(BPF_W, static_cast<u8>(rng.NextBelow(10)), R1,
                    static_cast<s16>(4 * rng.NextBelow(20)));
    case 7:
      return JmpImm(BPF_JEQ, static_cast<u8>(rng.NextBelow(10)),
                    static_cast<s32>(rng.NextBelow(16)),
                    static_cast<s16>(rng.NextBelow(6) + 1));
    case 8:
      return StMemImm(BPF_DW, R10,
                      static_cast<s16>(-8 * (1 + rng.NextBelow(8))),
                      static_cast<s32>(rng.NextU32()));
    default:
      return Alu32Imm(BPF_ADD, static_cast<u8>(rng.NextBelow(10)),
                      static_cast<s32>(rng.NextU32()));
  }
}

TEST_P(VerifierSoundnessTest, AcceptedProgramsNeverCrashTheKernel) {
  xbase::Rng rng(GetParam());
  SCOPED_TRACE(::testing::Message() << "rng seed " << rng.seed());
  int accepted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    simkern::Kernel kernel;
    Bpf bpf(kernel);
    Loader loader(bpf);
    ASSERT_TRUE(kernel.BootstrapWorkload().ok());

    Program prog;
    prog.name = "fuzz";
    prog.type = ProgType::kXdp;
    // Validity preamble: initialize every register and stack slot so the
    // random body mostly trips *interesting* checks (bounds, types,
    // control flow) rather than use-before-init.
    for (u8 regno = R0; regno <= R9; ++regno) {
      if (regno != R1) {  // keep the ctx pointer
        prog.insns.push_back(
            Mov64Imm(regno, static_cast<s32>(rng.NextBelow(64))));
      }
    }
    for (int slot = 1; slot <= 8; ++slot) {
      prog.insns.push_back(StMemImm(BPF_DW, R10,
                                    static_cast<s16>(-8 * slot), 0));
    }
    const xbase::u64 len = 4 + rng.NextBelow(28);
    for (xbase::u64 i = 0; i < len; ++i) {
      prog.insns.push_back(RandomInsn(rng));
    }
    prog.insns.push_back(Mov64Imm(R0, 0));
    prog.insns.push_back(Exit());

    auto id = loader.Load(prog);
    if (!id.ok()) {
      continue;  // rejection is always fine
    }
    ++accepted;
    auto loaded = loader.Find(id.value());
    xbase::u8 payload[64] = {};
    auto skb = kernel.net().CreateSkBuff(kernel.mem(), payload);
    ExecOptions opts;
    opts.max_insns = 100000;
    auto result = ebpf::Execute(bpf, *loaded.value(),
                                skb.value().meta_addr, opts, &loader);
    EXPECT_FALSE(kernel.crashed())
        << "VERIFIER SOUNDNESS VIOLATION in trial " << trial << ":\n"
        << DisasmProgram(prog);
    (void)result;
  }
  // The generator must actually exercise the accept path.
  EXPECT_GT(accepted, 5) << "generator produced no verifiable programs";
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierSoundnessTest,
                         ::testing::Values(11, 222, 3333, 44444));

}  // namespace
}  // namespace ebpf
