// Interpreter semantics: every ALU op (64- and 32-bit), byteswaps, jump
// comparators, division corner cases, tail-call limits, register poisoning
// across helper calls, and the harness fuel cap.
#include <gtest/gtest.h>

#include "src/ebpf/asm.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/loader.h"
#include "src/xbase/bytes.h"

namespace ebpf {
namespace {

class InterpTest : public ::testing::Test {
 protected:
  InterpTest() : bpf_(kernel_), loader_(bpf_) {
    EXPECT_TRUE(kernel_.BootstrapWorkload().ok());
    ctx_ = kernel_.mem()
               .Map(64, simkern::MemPerm::kReadWrite,
                    simkern::RegionKind::kKernelData, "ctx")
               .value();
  }

  // Runs a program fragment that leaves its answer in r0.
  u64 Run(ProgramBuilder& b) {
    auto prog = b.Build();
    EXPECT_TRUE(prog.ok());
    auto id = loader_.Load(prog.value());
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    auto loaded = loader_.Find(id.value());
    auto result = Execute(bpf_, *loaded.value(), ctx_, {}, &loader_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value().r0 : ~u64{0};
  }

  simkern::Kernel kernel_;
  Bpf bpf_;
  Loader loader_;
  simkern::Addr ctx_ = 0;
};

struct AluCase {
  u8 op;
  s64 lhs;
  s64 rhs;
  u64 expect64;
  u64 expect32;
};

class AluTest : public InterpTest,
                public ::testing::WithParamInterface<AluCase> {};

TEST_P(AluTest, Alu64AndAlu32Semantics) {
  const AluCase& test_case = GetParam();
  // A zero divisor is loaded through the (zeroed) ctx so the verifier's
  // constant-folding cannot see it — div-by-zero is a *runtime* semantic
  // here, like the kernel's patched runtime check.
  const bool rhs_via_ctx =
      test_case.rhs == 0 &&
      (test_case.op == BPF_DIV || test_case.op == BPF_MOD);
  const bool is_shift = test_case.op == BPF_LSH ||
                        test_case.op == BPF_RSH ||
                        test_case.op == BPF_ARSH;
  for (const bool is64 : {true, false}) {
    if (!is64 && is_shift && test_case.rhs >= 32) {
      // A 32-bit shift by >= 32 is rejected by the verifier (correctly);
      // there is nothing to execute.
      continue;
    }
    ProgramBuilder b("alu", ProgType::kKprobe);
    b.Ins(Mov64Reg(R6, R1));
    b.Ins(LdImm64(R0, static_cast<u64>(test_case.lhs)));
    if (rhs_via_ctx) {
      b.Ins(LdxMem(BPF_DW, R1, R6, 0));  // reads 0, unknown to verifier
    } else {
      b.Ins(LdImm64(R1, static_cast<u64>(test_case.rhs)));
    }
    b.Ins(is64 ? Alu64Reg(test_case.op, R0, R1)
               : Alu32Reg(test_case.op, R0, R1))
        .Ins(Exit());
    EXPECT_EQ(Run(b), is64 ? test_case.expect64 : test_case.expect32)
        << (is64 ? "64" : "32") << "-bit op " << int{test_case.op};
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluTest,
    ::testing::Values(
        // op, lhs, rhs, 64-bit result, 32-bit result (zero-extended)
        AluCase{BPF_ADD, 7, 5, 12, 12},
        AluCase{BPF_ADD, -1, 1, 0, 0},  // wrap in 32-bit: 0xffffffff+1 = 0
        AluCase{BPF_SUB, 5, 7, static_cast<u64>(-2), 0xfffffffeu},
        AluCase{BPF_MUL, 1 << 20, 1 << 20, 1ULL << 40, 0},
        AluCase{BPF_DIV, 42, 5, 8, 8},
        AluCase{BPF_DIV, 42, 0, 0, 0},  // div by zero yields 0
        AluCase{BPF_MOD, 42, 5, 2, 2},
        AluCase{BPF_MOD, 42, 0, 42, 42},  // mod by zero: dst unchanged
        AluCase{BPF_AND, 0xff00ff, 0x0ff0f0, 0x0f00f0, 0x0f00f0},
        AluCase{BPF_OR, 0xf0, 0x0f, 0xff, 0xff},
        AluCase{BPF_XOR, 0xff, 0x0f, 0xf0, 0xf0},
        AluCase{BPF_LSH, 1, 40, 1ULL << 40, 1 << 8},  // 32-bit masks shift
        AluCase{BPF_RSH, -1, 60, 15, 0xf},
        AluCase{BPF_ARSH, -16, 2, static_cast<u64>(-4), 0xfffffffcu}));

TEST_F(InterpTest, NegAndByteswap) {
  {
    ProgramBuilder b("neg", ProgType::kKprobe);
    b.Ins(Mov64Imm(R0, 5)).Ins(Neg64(R0)).Ins(Exit());
    EXPECT_EQ(Run(b), static_cast<u64>(-5));
  }
  {
    // to-be16 of 0x1234 -> 0x3412.
    ProgramBuilder b("be16", ProgType::kKprobe);
    b.Ins(Mov64Imm(R0, 0x1234))
        .Ins(Insn{static_cast<u8>(BPF_ALU | BPF_END | BPF_X), R0, 0, 0, 16})
        .Ins(Exit());
    EXPECT_EQ(Run(b), 0x3412u);
  }
  {
    // to-le32 truncates on the little-endian simulation.
    ProgramBuilder b("le32", ProgType::kKprobe);
    b.Ins(LdImm64(R0, 0x1122334455667788ULL))
        .Ins(Insn{static_cast<u8>(BPF_ALU | BPF_END | BPF_K), R0, 0, 0, 32})
        .Ins(Exit());
    EXPECT_EQ(Run(b), 0x55667788u);
  }
}

struct JmpCase {
  u8 op;
  s64 lhs;
  s64 rhs;
  bool taken;
};

class JmpTest : public InterpTest,
                public ::testing::WithParamInterface<JmpCase> {};

TEST_P(JmpTest, ComparatorSemantics) {
  const JmpCase& test_case = GetParam();
  ProgramBuilder b("jmp", ProgType::kKprobe);
  b.Ins(LdImm64(R1, static_cast<u64>(test_case.lhs)))
      .Ins(LdImm64(R2, static_cast<u64>(test_case.rhs)))
      .JmpRegTo(test_case.op, R1, R2, "taken")
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit())
      .Bind("taken")
      .Ins(Mov64Imm(R0, 1))
      .Ins(Exit());
  EXPECT_EQ(Run(b), test_case.taken ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, JmpTest,
    ::testing::Values(JmpCase{BPF_JEQ, 5, 5, true},
                      JmpCase{BPF_JEQ, 5, 6, false},
                      JmpCase{BPF_JNE, 5, 6, true},
                      JmpCase{BPF_JGT, -1, 1, true},   // unsigned!
                      JmpCase{BPF_JSGT, -1, 1, false}, // signed
                      JmpCase{BPF_JGE, 5, 5, true},
                      JmpCase{BPF_JLT, 1, -1, true},
                      JmpCase{BPF_JLE, 5, 5, true},
                      JmpCase{BPF_JSLT, -2, -1, true},
                      JmpCase{BPF_JSLE, -1, -1, true},
                      JmpCase{BPF_JSET, 0b1010, 0b0010, true},
                      JmpCase{BPF_JSET, 0b1010, 0b0101, false}));

TEST_F(InterpTest, ScratchRegistersArePoisonedAcrossHelperCalls) {
  // The verifier rejects reads of r1-r5 after a call; the interpreter also
  // poisons them so a (hypothetically mis-verified) program fails loudly.
  ProgramBuilder b("poison", ProgType::kKprobe);
  b.Ins(CallHelper(kHelperKtimeGetNs))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  auto prog = b.Build();
  auto id = loader_.Load(prog.value());
  ASSERT_TRUE(id.ok());
  auto loaded = loader_.Find(id.value());
  auto result = Execute(bpf_, *loaded.value(), ctx_, {}, &loader_);
  ASSERT_TRUE(result.ok());
}

TEST_F(InterpTest, FuelCapTerminatesRunawayProgram) {
  ProgramBuilder b("spin", ProgType::kKprobe);
  b.Ins(Mov64Imm(R0, 0)).Bind("top").JaTo("top");
  auto prog = b.Build();
  auto id = loader_.Load(prog.value());
  ASSERT_FALSE(id.ok());  // v5.18 rejects: infinite loop, budget blown

  // Load at a "buggy" state: disable the budget by using a tiny program
  // that the verifier accepts but runs long (bpf_loop).
  // Covered by sec22; here assert the cap status code directly.
  ExecOptions opts;
  opts.max_insns = 100;
  ProgramBuilder ok_b("finite", ProgType::kKprobe);
  ok_b.Ins(Mov64Imm(R6, 0))
      .Ins(Mov64Imm(R0, 0))
      .Bind("top")
      .JmpTo(BPF_JGE, R6, 1000, "done")
      .Ins(Alu64Imm(BPF_ADD, R6, 1))
      .JaTo("top")
      .Bind("done")
      .Ins(Exit());
  auto ok_prog = ok_b.Build();
  auto ok_id = loader_.Load(ok_prog.value());
  ASSERT_TRUE(ok_id.ok());
  auto loaded = loader_.Find(ok_id.value());
  auto result = Execute(bpf_, *loaded.value(), ctx_, opts, &loader_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), xbase::Code::kTerminated);
}

TEST_F(InterpTest, SimulatedTimeAdvancesWithExecution) {
  const u64 before = kernel_.clock().now_ns();
  ProgramBuilder b("clocked", ProgType::kKprobe);
  b.Ins(Mov64Imm(R6, 0))
      .Ins(Mov64Imm(R0, 0))
      .Bind("top")
      .JmpTo(BPF_JGE, R6, 100, "done")
      .Ins(Alu64Imm(BPF_ADD, R6, 1))
      .JaTo("top")
      .Bind("done")
      .Ins(Exit());
  Run(b);
  EXPECT_GT(kernel_.clock().now_ns(), before + 300);
}

TEST_F(InterpTest, TailCallLimitFallsThrough) {
  // A program that tail-calls itself: the 33-call limit makes the helper
  // fail eventually and execution falls through to exit.
  MapSpec spec;
  spec.type = MapType::kProgArray;
  spec.key_size = 4;
  spec.value_size = 4;
  spec.max_entries = 1;
  spec.name = "selfjmp";
  const int fd = bpf_.maps().Create(spec).value();

  ProgramBuilder b("self", ProgType::kKprobe);
  b.Ins(Mov64Reg(R1, R1))
      .Ins(LdMapFd(R2, fd))
      .Ins(Mov64Imm(R3, 0))
      .Ins(CallHelper(kHelperTailCall))
      .Ins(Mov64Imm(R0, 77))
      .Ins(Exit());
  auto prog = b.Build();
  auto id = loader_.Load(prog.value());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Point the slot at itself.
  auto map = bpf_.maps().Find(fd);
  xbase::u8 key[4] = {};
  xbase::u8 value[4];
  xbase::StoreLe32(value, id.value());
  ASSERT_TRUE(map.value()->Update(kernel_, key, value, kBpfAny).ok());

  auto loaded = loader_.Find(id.value());
  auto result = Execute(bpf_, *loaded.value(), ctx_, {}, &loader_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().r0, 77u);
  EXPECT_EQ(result.value().stats.tail_calls, kMaxTailCallDepth);
}

TEST_F(InterpTest, RunsUnderRcuReadLock) {
  ProgramBuilder b("rcu", ProgType::kKprobe);
  b.Ins(Mov64Imm(R0, 0)).Ins(Exit());
  Run(b);
  EXPECT_FALSE(kernel_.rcu().InCriticalSection())
      << "lock must be released after execution";
}

// Execute runs only a program that carries its decoded image: a hand-built
// one without it is refused up front on both engines, before the threaded
// engine could read past an empty micro-op table, and the kernel records no
// oops.
TEST_F(InterpTest, ProgramWithoutDecodedImageIsRefusedOnBothEngines) {
  LoadedProgram raw;
  raw.image.type = ProgType::kKprobe;
  raw.image.name = "undecoded";
  raw.image.insns = {Mov64Imm(R0, 7), Exit()};
  for (const ExecEngine engine :
       {ExecEngine::kThreaded, ExecEngine::kLegacy}) {
    ExecOptions opts;
    opts.engine = engine;
    auto result = Execute(bpf_, raw, ctx_, opts, nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), xbase::Code::kFailedPrecondition)
        << result.status().ToString();
  }
  EXPECT_TRUE(kernel_.oopses().empty());
  EXPECT_FALSE(kernel_.crashed());

  raw.decoded = DecodeProgram(raw.image, &bpf_.helpers(), &bpf_.kfuncs());
  for (const ExecEngine engine :
       {ExecEngine::kThreaded, ExecEngine::kLegacy}) {
    ExecOptions opts;
    opts.engine = engine;
    auto result = Execute(bpf_, raw, ctx_, opts, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().r0, 7u);
  }
}

TEST_F(InterpTest, ExecStatsAreAccurate) {
  ProgramBuilder b("stats", ProgType::kKprobe);
  b.Ins(Mov64Imm(R0, 0))
      .Ins(CallHelper(kHelperKtimeGetNs))
      .Ins(CallHelper(kHelperGetSmpProcessorId))
      .Ins(Mov64Imm(R0, 0))
      .Ins(Exit());
  auto prog = b.Build();
  auto id = loader_.Load(prog.value());
  auto loaded = loader_.Find(id.value());
  auto result = Execute(bpf_, *loaded.value(), ctx_, {}, &loader_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.insns, 5u);
  EXPECT_EQ(result.value().stats.helper_calls, 2u);
}

TEST_F(InterpTest, PercpuSlotsDoNotAliasAcrossExecutingCpus) {
  // Regression for the LookupAddr cpu-0 hardcode: an execution pinned to
  // cpu N must read and write cpu N's slot, on both engines.
  MapSpec spec;
  spec.type = MapType::kPercpuArray;
  spec.key_size = 4;
  spec.value_size = 8;
  spec.max_entries = 1;
  spec.name = "percpu";
  const int fd = bpf_.maps().Create(spec).value();

  // Writes (smp_processor_id + 1) into this CPU's slot; returns the same.
  ProgramBuilder b("percpu", ProgType::kKprobe);
  b.Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(LdMapFd(R1, fd))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(Mov64Reg(R6, R0))
      .Ins(CallHelper(kHelperGetSmpProcessorId))
      .Ins(Alu64Imm(BPF_ADD, R0, 1))
      .Ins(StxMem(BPF_DW, R6, R0, 0))
      .Bind("out")
      .Ins(Exit());
  auto prog = b.Build();
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto id = loader_.Load(prog.value());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto loaded = loader_.Find(id.value());

  for (const ExecEngine engine : {ExecEngine::kThreaded, ExecEngine::kLegacy}) {
    for (u32 cpu = 0; cpu < kernel_.config().num_cpus; ++cpu) {
      ExecOptions opts;
      opts.engine = engine;
      // A run executes on the CPU its thread is bound to.
      const simkern::CpuBinding saved = simkern::ThisThreadCpuBinding();
      simkern::ThisThreadCpuBinding() = simkern::CpuBinding{&kernel_, cpu};
      auto result = Execute(bpf_, *loaded.value(), ctx_, opts, &loader_);
      simkern::ThisThreadCpuBinding() = saved;
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().r0, cpu + 1u);
    }
    auto* map = dynamic_cast<PercpuArrayMap*>(bpf_.maps().Find(fd).value());
    ASSERT_NE(map, nullptr);
    xbase::u8 key[4] = {};
    for (u32 cpu = 0; cpu < kernel_.config().num_cpus; ++cpu) {
      const auto addr = map->LookupAddrForCpu(key, cpu);
      ASSERT_TRUE(addr.ok());
      const auto value = kernel_.mem().ReadU64(addr.value());
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(value.value(), cpu + 1u)
          << "cpu " << cpu << " slot aliased under engine "
          << static_cast<int>(engine);
    }
  }
}

}  // namespace
}  // namespace ebpf
