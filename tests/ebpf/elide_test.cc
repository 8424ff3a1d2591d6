// Directed tests for analysis-driven check elision in the JIT lowering.
// The contract under test (jit.h: JitClaims):
//   - a proven per-pc memory claim strips the runtime bounds check (the
//     unchecked `...U` handler variants appear, checks_elided counts);
//   - absent, unproven, or disabled claims keep every check, and the
//     lowering is then byte-identical to the pre-elision JIT;
//   - the jit.elide_unproven fault is the dispatch-layer defect that
//     elides without a proof;
//   - an injected *verifier* range defect converts into an elided check:
//     the out-of-bounds access that the checked engines catch as an oops
//     completes silently as a wild access — the paper's "buggy verifier
//     ⇒ silent corruption" chain, end to end, bracketed by clean runs.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "src/analysis/workloads.h"
#include "src/ebpf/asm.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/jit.h"
#include "src/ebpf/loader.h"
#include "src/ebpf/rangetrace.h"

namespace ebpf {
namespace {

using xbase::u32;
using xbase::u64;
using xbase::u8;

// A small verified program with provably-in-bounds memory on every access:
// a stack spill for the key, a map lookup, and a DW load from the value.
Program BuildProvenMemProgram(int fd) {
  ProgramBuilder b("proven", ProgType::kKprobe);
  b.Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(LdMapFd(R1, fd))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(LdxMem(BPF_DW, R0, R0, 0))
      .Bind("out")
      .Ins(Exit());
  return b.Build().value();
}

MapSpec SmallArraySpec(u32 value_size) {
  MapSpec spec;
  spec.type = MapType::kArray;
  spec.key_size = 4;
  spec.value_size = value_size;
  spec.max_entries = 1;
  spec.name = "elide";
  return spec;
}

bool OpsIdentical(const DecodedImage& a, const DecodedImage& b) {
  if (a.ops.size() != b.ops.size()) {
    return false;
  }
  for (xbase::usize i = 0; i < a.ops.size(); ++i) {
    const MicroOp& x = a.ops[i];
    const MicroOp& y = b.ops[i];
    if (x.handler != y.handler || x.dst != y.dst || x.src != y.src ||
        x.jump != y.jump || x.imm != y.imm) {
      return false;
    }
  }
  return true;
}

// Claim present → check gone; elision disabled → check kept; and the
// disabled lowering is byte-identical to a claims-free DecodeProgram.
TEST(ElideTest, ProvenClaimStripsChecksAndDisabledLoweringIsIdentical) {
  simkern::Kernel kernel;
  Bpf bpf(kernel);
  Loader loader(bpf);
  ASSERT_TRUE(kernel.BootstrapWorkload().ok());
  const int fd = bpf.maps().Create(SmallArraySpec(8)).value();
  const Program prog = BuildProvenMemProgram(fd);

  LoadOptions on;
  on.elide_checks = true;
  auto elided_id = loader.Load(prog, on);
  ASSERT_TRUE(elided_id.ok()) << elided_id.status().ToString();
  const LoadedProgram* elided = loader.Find(elided_id.value()).value();
  EXPECT_GT(elided->jit.checks_elided, 0u)
      << "every access is provably in bounds; claims must elide";

  LoadOptions off;
  off.elide_checks = false;
  auto kept_id = loader.Load(prog, off);
  ASSERT_TRUE(kept_id.ok());
  const LoadedProgram* kept = loader.Find(kept_id.value()).value();
  EXPECT_EQ(kept->jit.checks_elided, 0u);
  EXPECT_EQ(kept->jit.superblocks, 0u);
  EXPECT_EQ(kept->jit.pairs_fused, 0u);
  EXPECT_TRUE(kept->decoded.sb_ops.empty());
  EXPECT_FALSE(OpsIdentical(elided->decoded, kept->decoded))
      << "elision must actually change the lowered form";

  // Fail-closed baseline: lowering the same post-JIT image without claims
  // reproduces the elision-off image bit for bit.
  const DecodedImage bare =
      DecodeProgram(kept->image, &bpf.helpers(), &bpf.kfuncs());
  EXPECT_TRUE(OpsIdentical(bare, kept->decoded));
  EXPECT_TRUE(bare.sb_ops.empty());
}

// Unit-level fail-closed matrix on a single load: proven claim elides,
// unproven or missing claims keep the check, and the jit.elide_unproven
// defect elides regardless.
TEST(ElideTest, ElisionIsFailClosedPerClaim) {
  Program prog;
  prog.type = ProgType::kKprobe;
  prog.name = "one_load";
  prog.insns = {Mov64Reg(R6, R1), LdxMem(BPF_W, R0, R6, 0), Exit()};
  const u32 mem_pc = 1;
  FaultRegistry no_faults;
  FaultRegistry elide_fault;
  elide_fault.Inject(kFaultJitElideUnproven);

  auto lower = [&](const RangeTrace* verifier, const RangeTrace* staticcheck,
                   const FaultRegistry& faults, JitStats* stats) {
    JitClaims claims;
    claims.verifier = verifier;
    claims.staticcheck = staticcheck;
    return DecodeProgram(prog, nullptr, nullptr, stats, nullptr, &faults,
                         &claims);
  };

  RangeTrace proven;
  proven.mem_only = true;
  proven.Reset(prog.insns.size());
  proven.mem_per_pc[mem_pc].Record(true);

  RangeTrace unproven;
  unproven.mem_only = true;
  unproven.Reset(prog.insns.size());
  unproven.mem_per_pc[mem_pc].Record(true);
  unproven.mem_per_pc[mem_pc].Record(false);  // AND-semantics: one bad path

  JitStats stats;
  DecodedImage lowered = lower(&proven, nullptr, no_faults, &stats);
  EXPECT_EQ(stats.checks_elided, 1u);
  EXPECT_EQ(lowered.ops[mem_pc].handler, static_cast<u16>(UOp::kLdxWU));

  stats = {};
  lowered = lower(&unproven, nullptr, no_faults, &stats);
  EXPECT_EQ(stats.checks_elided, 0u);
  EXPECT_EQ(lowered.ops[mem_pc].handler, static_cast<u16>(UOp::kLdxW));

  // Verifier proves but staticcheck (supplied as defense in depth) does
  // not: the disagreement keeps the check.
  stats = {};
  lowered = lower(&proven, &unproven, no_faults, &stats);
  EXPECT_EQ(stats.checks_elided, 0u);
  EXPECT_EQ(lowered.ops[mem_pc].handler, static_cast<u16>(UOp::kLdxW));

  // Never analysed (seen == false) is not a proof.
  RangeTrace unseen;
  unseen.mem_only = true;
  unseen.Reset(prog.insns.size());
  stats = {};
  lowered = lower(&unseen, nullptr, no_faults, &stats);
  EXPECT_EQ(stats.checks_elided, 0u);

  // The dispatch-layer defect: elides with no proof at all.
  stats = {};
  lowered = lower(&unseen, nullptr, elide_fault, &stats);
  EXPECT_EQ(stats.checks_elided, 1u);
  EXPECT_EQ(lowered.ops[mem_pc].handler, static_cast<u16>(UOp::kLdxWU));
}

// Straight-line runs lower into entry-charged superblocks only when claims
// flow (the same loader option gates both elision and block formation).
TEST(ElideTest, StraightLineLowersIntoSuperblocks) {
  simkern::Kernel kernel;
  Bpf bpf(kernel);
  Loader loader(bpf);
  ASSERT_TRUE(kernel.BootstrapWorkload().ok());
  const Program prog = analysis::BuildStraightLine(200).value();

  LoadOptions on;
  on.elide_checks = true;
  auto id = loader.Load(prog, on);
  ASSERT_TRUE(id.ok());
  const LoadedProgram* loaded = loader.Find(id.value()).value();
  EXPECT_GT(loaded->jit.superblocks, 0u);
  EXPECT_FALSE(loaded->decoded.sb_ops.empty());

  LoadOptions off;
  off.elide_checks = false;
  auto plain_id = loader.Load(prog, off);
  ASSERT_TRUE(plain_id.ok());
  const LoadedProgram* plain = loader.Find(plain_id.value()).value();
  EXPECT_EQ(plain->jit.superblocks, 0u);
  EXPECT_TRUE(plain->decoded.sb_ops.empty());
}

// The end-to-end witness, bracketed by clean runs: with the verifier's
// jgt_refine_off_by_one defect injected, the wrongly-proven bounds claim
// strips the runtime check, so the out-of-bounds DW read at value+9 (into
// a 16-byte value) completes *silently* on the threaded engine — no oops,
// wild-read counter as the only witness — while the still-checked legacy
// engine catches the same access as a kernel oops. Clean runs before and
// after reject the program outright.
TEST(ElideTest, InjectedRangeFaultConvertsIntoElidedCheckWitness) {
  struct Phase {
    bool inject = false;
    ExecEngine engine = ExecEngine::kThreaded;
  };
  // clean → buggy(threaded) → buggy(legacy) → clean
  const Phase phases[] = {
      {false, ExecEngine::kThreaded},
      {true, ExecEngine::kThreaded},
      {true, ExecEngine::kLegacy},
      {false, ExecEngine::kThreaded},
  };
  for (const Phase& phase : phases) {
    simkern::Kernel kernel;
    Bpf bpf(kernel);
    Loader loader(bpf);
    ASSERT_TRUE(kernel.BootstrapWorkload().ok());
    const int fd = bpf.maps().Create(SmallArraySpec(16)).value();
    // Seed value[0..8) = 9: the runtime index that crosses the region end
    // once the buggy refinement admits it.
    std::array<u8, 16> value{};
    const u64 idx = 9;
    std::memcpy(value.data(), &idx, 8);
    const u32 key = 0;
    Map* map = bpf.maps().Find(fd).value();
    ASSERT_TRUE(map->Update(kernel,
                            std::span<const u8>(
                                reinterpret_cast<const u8*>(&key),
                                sizeof(key)),
                            value, kBpfAny)
                    .ok());
    if (phase.inject) {
      bpf.faults().Inject(kFaultVerifierJgtOffByOne);
    }
    const Program prog = analysis::BuildJgtOffByOneExploit(fd).value();
    LoadOptions on;
    on.elide_checks = true;
    auto id = loader.Load(prog, on);
    if (!phase.inject) {
      EXPECT_FALSE(id.ok()) << "clean verifier must reject the exploit";
      continue;
    }
    ASSERT_TRUE(id.ok()) << "buggy refinement must admit the exploit: "
                         << id.status().ToString();
    const LoadedProgram* loaded = loader.Find(id.value()).value();
    EXPECT_GT(loaded->jit.checks_elided, 0u)
        << "the wrong proof must strip runtime checks";
    auto ctx = kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                simkern::RegionKind::kKernelData, "ctx");
    ExecOptions opts;
    opts.engine = phase.engine;
    auto result = Execute(bpf, *loaded, ctx.value(), opts, &loader);
    if (phase.engine == ExecEngine::kThreaded) {
      // Elided check: the OOB access goes wild, silently.
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_FALSE(kernel.crashed());
      EXPECT_GT(kernel.mem().unchecked_wild_reads(), 0u)
          << "the wild counter is the only witness";
    } else {
      // The legacy engine still runs the check the elision removed: the
      // same access is a caught fault — the contrast IS the demonstration.
      EXPECT_FALSE(result.ok());
      EXPECT_TRUE(kernel.crashed());
      EXPECT_EQ(kernel.mem().unchecked_wild_reads(), 0u);
    }
  }
}

}  // namespace
}  // namespace ebpf
