// Differential test for the two execution engines: the pre-decoded
// threaded engine must be observationally identical to the legacy
// decode-per-step interpreter. Identical means *everything* the harness
// can observe: load verdict, execution status, r0, the full ExecStats
// block (instruction count, helper calls, simulated time, frame depth),
// map end-state bytes, and the per-instruction tracer stream (pc plus all
// eleven registers before each instruction executes).
//
// The corpus is the rangefuzz generator's — boundary-biased ALU, forward
// branches, stack spills and map accesses — so the spine the threaded
// engine optimizes is exactly what gets cross-checked.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "src/analysis/rangefuzz.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/asm.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/jit.h"
#include "src/ebpf/loader.h"
#include "src/xbase/strfmt.h"

namespace ebpf {
namespace {

using xbase::u32;
using xbase::u64;
using xbase::u8;

constexpr u64 kMasterSeeds[] = {1, 42, 1337};
constexpr u32 kProgramsPerSeed = 200;  // 600 generated; >= 500 must execute
constexpr u32 kBodyLen = 24;

u64 Mix(u64 x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

struct TraceEntry {
  u32 pc = 0;
  std::array<u64, kNumRegs> regs{};

  bool operator==(const TraceEntry& other) const = default;
};

class RecordingTracer : public InsnTracer {
 public:
  void OnInsn(u32 pc, const u64* regs) override {
    TraceEntry entry;
    entry.pc = pc;
    std::copy(regs, regs + kNumRegs, entry.regs.begin());
    trace.push_back(entry);
  }

  std::vector<TraceEntry> trace;
};

// Everything one engine run exposes to the harness.
struct EngineRun {
  bool load_ok = false;
  std::string load_status;
  bool exec_ok = false;
  std::string exec_status;
  u64 r0 = 0;
  ExecStats stats;
  std::array<u8, analysis::kRangeFuzzValueSize> map_end{};
  std::vector<TraceEntry> trace;
};

EngineRun RunOn(u64 program_seed, ExecEngine engine, bool elide = true) {
  EngineRun run;
  simkern::Kernel kernel;
  Bpf bpf(kernel);
  Loader loader(bpf);
  EXPECT_TRUE(kernel.BootstrapWorkload().ok());

  MapSpec spec;
  spec.type = MapType::kArray;
  spec.key_size = 4;
  spec.value_size = analysis::kRangeFuzzValueSize;
  spec.max_entries = 1;
  spec.name = "equiv";
  const int fd = bpf.maps().Create(spec).value();

  // Deterministic per-program initial map value: both engines start from
  // the same unknown-scalar world.
  std::array<u8, analysis::kRangeFuzzValueSize> value{};
  for (xbase::usize i = 0; i < value.size(); i += 8) {
    const u64 word = Mix(program_seed + i);
    std::memcpy(value.data() + i, &word, 8);
  }
  Map* map = bpf.maps().Find(fd).value();
  const u32 key = 0;
  EXPECT_TRUE(map->Update(kernel,
                          std::span<const u8>(
                              reinterpret_cast<const u8*>(&key), sizeof(key)),
                          value, kBpfAny)
                  .ok());

  auto prog = analysis::BuildFuzzProgram(program_seed, fd, kBodyLen, "equiv");
  EXPECT_TRUE(prog.ok()) << prog.status().ToString();
  LoadOptions lopts;
  lopts.elide_checks = elide;
  auto id = loader.Load(prog.value(), lopts);
  run.load_ok = id.ok();
  run.load_status = id.ok() ? "" : id.status().ToString();
  if (!id.ok()) {
    return run;
  }

  auto ctx = kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                              simkern::RegionKind::kKernelData, "ctx");
  RecordingTracer tracer;
  ExecOptions opts;
  opts.engine = engine;
  opts.tracer = &tracer;
  auto loaded = loader.Find(id.value());
  auto result = Execute(bpf, *loaded.value(), ctx.value(), opts, &loader);
  run.exec_ok = result.ok();
  run.exec_status = result.ok() ? "" : result.status().ToString();
  if (result.ok()) {
    run.r0 = result.value().r0;
    run.stats = result.value().stats;
  }
  run.trace = std::move(tracer.trace);

  auto addr = map->LookupAddr(
      kernel,
      std::span<const u8>(reinterpret_cast<const u8*>(&key), sizeof(key)));
  EXPECT_TRUE(addr.ok());
  EXPECT_TRUE(kernel.mem().Read(addr.value(), run.map_end).ok());
  return run;
}

// The full corpus: every observable of the threaded run must equal the
// legacy run, byte for byte.
TEST(EngineEquivalence, RangefuzzCorpusIsObservationallyIdentical) {
  u32 generated = 0;
  u32 executed = 0;
  for (const u64 master_seed : kMasterSeeds) {
    for (const u64 program_seed :
         analysis::FuzzProgramSeeds(master_seed, kProgramsPerSeed)) {
      ++generated;
      const EngineRun threaded = RunOn(program_seed, ExecEngine::kThreaded);
      const EngineRun legacy = RunOn(program_seed, ExecEngine::kLegacy);
      const std::string label = xbase::StrFormat(
          "program_seed=%llu", static_cast<unsigned long long>(program_seed));

      ASSERT_EQ(threaded.load_ok, legacy.load_ok) << label;
      ASSERT_EQ(threaded.load_status, legacy.load_status) << label;
      if (!threaded.load_ok) {
        continue;  // same rejection on both sides: equivalent
      }
      ++executed;
      ASSERT_EQ(threaded.exec_ok, legacy.exec_ok) << label;
      ASSERT_EQ(threaded.exec_status, legacy.exec_status) << label;
      ASSERT_EQ(threaded.r0, legacy.r0) << label;
      ASSERT_EQ(threaded.stats.insns, legacy.stats.insns) << label;
      ASSERT_EQ(threaded.stats.helper_calls, legacy.stats.helper_calls)
          << label;
      ASSERT_EQ(threaded.stats.sim_time_charged_ns,
                legacy.stats.sim_time_charged_ns)
          << label;
      ASSERT_EQ(threaded.stats.tail_calls, legacy.stats.tail_calls) << label;
      ASSERT_EQ(threaded.stats.max_frame_depth, legacy.stats.max_frame_depth)
          << label;
      ASSERT_EQ(threaded.map_end, legacy.map_end) << label;
      ASSERT_EQ(threaded.trace.size(), legacy.trace.size()) << label;
      for (xbase::usize i = 0; i < threaded.trace.size(); ++i) {
        ASSERT_EQ(threaded.trace[i], legacy.trace[i])
            << label << " trace index " << i;
      }
    }
  }
  EXPECT_EQ(generated, kProgramsPerSeed * 3);
  EXPECT_GE(executed, 500u) << "corpus too small to claim equivalence";
}

// The same corpus with elision disabled: turning the optimization off must
// not change a single observable either. Together with the test above
// (threaded-with-elision ≡ legacy) this pins the three-way equivalence
// threaded+elide ≡ threaded-no-elide ≡ legacy over the full corpus.
TEST(EngineEquivalence, RangefuzzCorpusElisionOffIsObservationallyIdentical) {
  u32 executed = 0;
  for (const u64 master_seed : kMasterSeeds) {
    for (const u64 program_seed :
         analysis::FuzzProgramSeeds(master_seed, kProgramsPerSeed)) {
      const EngineRun elided =
          RunOn(program_seed, ExecEngine::kThreaded, /*elide=*/true);
      const EngineRun unelided =
          RunOn(program_seed, ExecEngine::kThreaded, /*elide=*/false);
      const std::string label = xbase::StrFormat(
          "program_seed=%llu", static_cast<unsigned long long>(program_seed));

      ASSERT_EQ(elided.load_ok, unelided.load_ok) << label;
      ASSERT_EQ(elided.load_status, unelided.load_status) << label;
      if (!elided.load_ok) {
        continue;
      }
      ++executed;
      ASSERT_EQ(elided.exec_ok, unelided.exec_ok) << label;
      ASSERT_EQ(elided.exec_status, unelided.exec_status) << label;
      ASSERT_EQ(elided.r0, unelided.r0) << label;
      ASSERT_EQ(elided.stats.insns, unelided.stats.insns) << label;
      ASSERT_EQ(elided.stats.helper_calls, unelided.stats.helper_calls)
          << label;
      ASSERT_EQ(elided.stats.sim_time_charged_ns,
                unelided.stats.sim_time_charged_ns)
          << label;
      ASSERT_EQ(elided.map_end, unelided.map_end) << label;
      ASSERT_EQ(elided.trace.size(), unelided.trace.size()) << label;
      for (xbase::usize i = 0; i < elided.trace.size(); ++i) {
        ASSERT_EQ(elided.trace[i], unelided.trace[i])
            << label << " trace index " << i;
      }
    }
  }
  EXPECT_GE(executed, 500u) << "corpus too small to claim equivalence";
}

// ---- insn-cap / RCU-probe boundary parity ---------------------------------
// The threaded engine batches its per-insn bookkeeping (EBPF_NEXT counts in
// a local, flushes at EBPF_SYNC points) while the legacy loop counts and
// charges eagerly; superblocks batch even harder (block cost at entry) and
// fused pairs count their tail insn inside the handler. All of that must be
// invisible at the two boundary events: the RCU stall probe every 4096
// insns and the harness cap at exactly max_insns. One observable run per
// (engine × elision) at each boundary: status, r0, trace stream, and the
// simulated-time charge (read off the kernel clock, so it is visible even
// when the run terminates and no ExecStats are returned).
struct BoundaryRun {
  bool exec_ok = false;
  std::string exec_status;
  u64 r0 = 0;
  u64 insns = 0;
  u64 clock_delta_ns = 0;
  std::vector<TraceEntry> trace;
};

BoundaryRun RunStraightLineAt(u32 len, u64 max_insns, bool with_tracer,
                              ExecEngine engine, bool elide) {
  BoundaryRun run;
  simkern::Kernel kernel;
  Bpf bpf(kernel);
  Loader loader(bpf);
  EXPECT_TRUE(kernel.BootstrapWorkload().ok());
  auto prog = analysis::BuildStraightLine(len);
  EXPECT_TRUE(prog.ok());
  LoadOptions lopts;
  lopts.elide_checks = elide;
  auto id = loader.Load(prog.value(), lopts);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  auto loaded = loader.Find(id.value());
  auto ctx = kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                              simkern::RegionKind::kKernelData, "ctx");
  RecordingTracer tracer;
  ExecOptions opts;
  opts.engine = engine;
  opts.max_insns = max_insns;
  if (with_tracer) {
    opts.tracer = &tracer;
  }
  const u64 clock_before = kernel.clock().now_ns();
  auto result = Execute(bpf, *loaded.value(), ctx.value(), opts, &loader);
  run.clock_delta_ns = kernel.clock().now_ns() - clock_before;
  run.exec_ok = result.ok();
  run.exec_status = result.ok() ? "" : result.status().ToString();
  if (result.ok()) {
    run.r0 = result.value().r0;
    run.insns = result.value().stats.insns;
  }
  run.trace = std::move(tracer.trace);
  return run;
}

TEST(EngineEquivalence, InsnCapAndProbeBoundariesMatchAcrossEngines) {
  // A straight-line program of length L executes exactly L instructions
  // (mov, L-2 adds, exit) — with elision on it lowers into superblocks, so
  // these cases also cross-check the superblock entry's cap/probe bail.
  const struct {
    u32 len;
    u64 max_insns;
  } kCases[] = {
      {64, 63},      // cap one short of completion, no probe involved
      {64, 64},      // cap exactly at the executed count: must complete
      {4200, 4095},  // cap boundary coincides with the 4096 stall probe
      {4200, 4096},  // capped on the insn right after the probe fires
      {4200, 4097},
      {4200, 4199},  // capped at the exit insn
      {4200, 4200},  // exact fit across a probe boundary
      {9000, 8191},  // second probe multiple
      {9000, 8192},
  };
  for (const auto& test_case : kCases) {
    for (const bool with_tracer : {false, true}) {
      const std::string label = xbase::StrFormat(
          "len=%u max_insns=%llu tracer=%d", test_case.len,
          static_cast<unsigned long long>(test_case.max_insns),
          with_tracer ? 1 : 0);
      const BoundaryRun legacy = RunStraightLineAt(
          test_case.len, test_case.max_insns, with_tracer,
          ExecEngine::kLegacy, /*elide=*/true);
      for (const bool elide : {true, false}) {
        const BoundaryRun threaded = RunStraightLineAt(
            test_case.len, test_case.max_insns, with_tracer,
            ExecEngine::kThreaded, elide);
        const std::string sub = label + (elide ? " elide=1" : " elide=0");
        ASSERT_EQ(threaded.exec_ok, legacy.exec_ok) << sub;
        ASSERT_EQ(threaded.exec_status, legacy.exec_status) << sub;
        ASSERT_EQ(threaded.r0, legacy.r0) << sub;
        ASSERT_EQ(threaded.insns, legacy.insns) << sub;
        ASSERT_EQ(threaded.clock_delta_ns, legacy.clock_delta_ns) << sub;
        ASSERT_EQ(threaded.trace.size(), legacy.trace.size()) << sub;
        for (xbase::usize i = 0; i < threaded.trace.size(); ++i) {
          ASSERT_EQ(threaded.trace[i], legacy.trace[i])
              << sub << " trace index " << i;
        }
      }
    }
  }
}

// ---- stale pre-resolved CallSite::fn audit --------------------------------
// The DecodedImage pins helper fn pointers and costs at lowering time. The
// registry is append-only and node-stable (std::map), so a pinned pointer
// can never dangle — but helper *behaviour* must still be read at invoke
// time. Toggling injected faults after load bumps the fault epoch without
// re-lowering; both engines must keep agreeing because they consult the
// live FaultRegistry through HelperCtx, not anything baked into the image.
TEST(EngineEquivalence, FaultEpochToggleAfterLoadCannotDivergeEngines) {
  auto run = [](ExecEngine engine) {
    simkern::Kernel kernel;
    Bpf bpf(kernel);
    Loader loader(bpf);
    EXPECT_TRUE(kernel.BootstrapWorkload().ok());
    MapSpec spec;
    spec.type = MapType::kArray;
    spec.key_size = 4;
    spec.value_size = 8;
    spec.max_entries = 1;
    spec.name = "epoch";
    const int fd = bpf.maps().Create(spec).value();
    const u32 key = 0;
    const u64 seeded = 0x1122334455667788ULL;
    std::array<u8, 8> value{};
    std::memcpy(value.data(), &seeded, 8);
    Map* map = bpf.maps().Find(fd).value();
    EXPECT_TRUE(map->Update(kernel,
                            std::span<const u8>(
                                reinterpret_cast<const u8*>(&key),
                                sizeof(key)),
                            value, kBpfAny)
                    .ok());
    ProgramBuilder b("epoch", ProgType::kKprobe);
    b.Ins(StMemImm(BPF_W, R10, -4, 0))
        .Ins(LdMapFd(R1, fd))
        .Ins(Mov64Reg(R2, R10))
        .Ins(Alu64Imm(BPF_ADD, R2, -4))
        .Ins(CallHelper(kHelperMapLookupElem))
        .JmpTo(BPF_JEQ, R0, 0, "out")
        .Ins(LdxMem(BPF_DW, R0, R0, 0))
        .Bind("out")
        .Ins(Exit());
    auto id = loader.Load(b.Build().value());
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    // Epoch churn between load and execute: inject a verifier-stage fault
    // (inert at runtime) and a lowering-stage fault (lowering already
    // happened), then clear one — four epoch bumps against a pinned image.
    bpf.faults().Inject(kFaultVerifierScalarBounds);
    bpf.faults().Inject(kFaultJitElideUnproven);
    bpf.faults().Clear(kFaultVerifierScalarBounds);
    auto loaded = loader.Find(id.value());
    auto ctx = kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                simkern::RegionKind::kKernelData, "ctx");
    ExecOptions opts;
    opts.engine = engine;
    auto result = Execute(bpf, *loaded.value(), ctx.value(), opts, &loader);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value() : ExecResult{};
  };
  const ExecResult threaded = run(ExecEngine::kThreaded);
  const ExecResult legacy = run(ExecEngine::kLegacy);
  EXPECT_EQ(threaded.r0, 0x1122334455667788ULL);
  EXPECT_EQ(threaded.r0, legacy.r0);
  EXPECT_EQ(threaded.stats.insns, legacy.stats.insns);
  EXPECT_EQ(threaded.stats.helper_calls, legacy.stats.helper_calls);
  EXPECT_EQ(threaded.stats.sim_time_charged_ns,
            legacy.stats.sim_time_charged_ns);
}

// A decoded image lowered without registries leaves CallSite::fn null; the
// threaded engine must then resolve at runtime exactly like legacy — same
// helper result and cost for a known id, the same fault message for an
// unknown one.
TEST(EngineEquivalence, NullCallSiteFnFallbackMatchesLegacy) {
  for (const s32 helper_id :
       {static_cast<s32>(kHelperKtimeGetNs), s32{9999}}) {
    std::string status_by_engine[2];
    u64 r0_by_engine[2] = {};
    u64 charged_by_engine[2] = {};
    int slot = 0;
    for (const ExecEngine engine :
         {ExecEngine::kThreaded, ExecEngine::kLegacy}) {
      simkern::Kernel kernel;
      Bpf bpf(kernel);
      EXPECT_TRUE(kernel.BootstrapWorkload().ok());
      LoadedProgram raw;
      raw.image.type = ProgType::kKprobe;
      raw.image.name = "nullfn";
      raw.image.insns = {CallHelper(helper_id), Exit()};
      // Lower without registries: every call site keeps fn == nullptr and
      // takes the runtime-resolution path in the threaded engine.
      raw.decoded = DecodeProgram(raw.image, nullptr, nullptr);
      auto ctx = kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                  simkern::RegionKind::kKernelData, "ctx");
      ExecOptions opts;
      opts.engine = engine;
      const u64 clock_before = kernel.clock().now_ns();
      auto result = Execute(bpf, raw, ctx.value(), opts, nullptr);
      charged_by_engine[slot] = kernel.clock().now_ns() - clock_before;
      status_by_engine[slot] =
          result.ok() ? "" : result.status().ToString();
      r0_by_engine[slot] = result.ok() ? result.value().r0 : 0;
      if (helper_id == 9999) {
        EXPECT_FALSE(result.ok());
      } else {
        EXPECT_TRUE(result.ok()) << result.status().ToString();
      }
      ++slot;
    }
    EXPECT_EQ(status_by_engine[0], status_by_engine[1])
        << "helper_id=" << helper_id;
    EXPECT_EQ(r0_by_engine[0], r0_by_engine[1]) << "helper_id=" << helper_id;
    EXPECT_EQ(charged_by_engine[0], charged_by_engine[1])
        << "helper_id=" << helper_id;
  }
}

// ---- EBPF_MEM_OFF round-trip at the s16 extremes --------------------------
// Memory micro-ops carry insn.off through the u32 `jump` field and widen it
// back at dispatch; these raw programs pin the widening against the legacy
// `regs[x] + (s64)insn.off` at both extremes (−32768 and +32767) for loads,
// stores and atomics, including the wrap-exact out-of-bounds case.
struct RawMemRun {
  bool exec_ok = false;
  std::string exec_status;
  u64 r0 = 0;
  std::array<u8, 16> arena_head{};
  std::array<u8, 16> arena_tail{};
};

RawMemRun RunRawOnArena(const std::vector<Insn>& insns, u64 arena_bytes,
                        ExecEngine engine) {
  RawMemRun run;
  simkern::Kernel kernel;
  Bpf bpf(kernel);
  EXPECT_TRUE(kernel.BootstrapWorkload().ok());
  auto arena = kernel.mem().Map(arena_bytes, simkern::MemPerm::kReadWrite,
                                simkern::RegionKind::kKernelData, "arena");
  EXPECT_TRUE(arena.ok());
  // Deterministic nonzero fill so loads have something to find.
  for (u64 i = 0; i < arena_bytes; i += 8) {
    const u64 word = Mix(i + 1);
    EXPECT_TRUE(kernel.mem().WriteU64(arena.value() + i, word).ok());
  }
  LoadedProgram raw;
  raw.image.type = ProgType::kKprobe;
  raw.image.name = "memoff";
  raw.image.insns = insns;
  raw.decoded = DecodeProgram(raw.image, &bpf.helpers(), &bpf.kfuncs());
  ExecOptions opts;
  opts.engine = engine;
  auto result = Execute(bpf, raw, arena.value(), opts, nullptr);
  run.exec_ok = result.ok();
  run.exec_status = result.ok() ? "" : result.status().ToString();
  if (result.ok()) {
    run.r0 = result.value().r0;
  }
  EXPECT_TRUE(kernel.mem().Read(arena.value(), run.arena_head).ok());
  EXPECT_TRUE(
      kernel.mem().Read(arena.value() + arena_bytes - 16, run.arena_tail)
          .ok());
  return run;
}

TEST(EngineEquivalence, MemOffsetS16ExtremesRoundTripOnBothEngines) {
  constexpr u64 kArena = 65536;  // 32768 + 32767 + 8 fits with room
  struct Case {
    const char* name;
    std::vector<Insn> insns;
    bool expect_ok;
  };
  std::vector<Case> cases;
  auto with_base = [](s32 base_add, std::vector<Insn> tail) {
    std::vector<Insn> insns = {Mov64Reg(R6, R1)};
    if (base_add != 0) {
      insns.push_back(Alu64Imm(BPF_ADD, R6, base_add));
    }
    insns.insert(insns.end(), tail.begin(), tail.end());
    insns.push_back(Exit());
    return insns;
  };
  // Loads at both extremes, every width at −32768, DW at +32767.
  for (const u8 size : {BPF_B, BPF_H, BPF_W, BPF_DW}) {
    cases.push_back({"ldx_neg", with_base(32768, {LdxMem(size, R0, R6,
                                                         -32768)}),
                     true});
  }
  cases.push_back(
      {"ldx_pos", with_base(0, {LdxMem(BPF_DW, R0, R6, 32767)}), true});
  // Stores at both extremes, read back through r0.
  {
    auto ldimm = LdImm64(R7, 0xa5a5a5a5deadbeefULL);
    std::vector<Insn> tail(ldimm.begin(), ldimm.end());
    tail.push_back(StxMem(BPF_DW, R6, R7, -32768));
    tail.push_back(LdxMem(BPF_DW, R0, R6, -32768));
    cases.push_back({"stx_neg", with_base(32768, tail), true});
    tail.assign(ldimm.begin(), ldimm.end());
    tail.push_back(StxMem(BPF_DW, R6, R7, 32767));
    tail.push_back(LdxMem(BPF_DW, R0, R6, 32767));
    cases.push_back({"stx_pos", with_base(0, tail), true});
  }
  // St-immediate and atomic fetch-add at both extremes.
  cases.push_back({"st_neg",
                   with_base(32768, {StMemImm(BPF_W, R6, -32768, -7),
                                     LdxMem(BPF_W, R0, R6, -32768)}),
                   true});
  cases.push_back({"atomic_neg",
                   with_base(32768, {Mov64Imm(R7, 3),
                                     AtomicAdd(BPF_DW, R6, R7, -32768),
                                     LdxMem(BPF_DW, R0, R6, -32768)}),
                   true});
  cases.push_back({"atomic_pos",
                   with_base(0, {Mov64Imm(R7, 11),
                                 AtomicAdd(BPF_DW, R6, R7, 32767),
                                 LdxMem(BPF_DW, R0, R6, 32767)}),
                   true});
  // Out of bounds: base at the region end plus the max positive offset —
  // both engines must fault with the identical message.
  cases.push_back({"ldx_oob",
                   with_base(static_cast<s32>(kArena),
                             {LdxMem(BPF_DW, R0, R6, 32767)}),
                   false});

  for (const Case& test_case : cases) {
    const RawMemRun threaded =
        RunRawOnArena(test_case.insns, kArena, ExecEngine::kThreaded);
    const RawMemRun legacy =
        RunRawOnArena(test_case.insns, kArena, ExecEngine::kLegacy);
    EXPECT_EQ(threaded.exec_ok, test_case.expect_ok) << test_case.name;
    EXPECT_EQ(threaded.exec_ok, legacy.exec_ok) << test_case.name;
    EXPECT_EQ(threaded.exec_status, legacy.exec_status) << test_case.name;
    EXPECT_EQ(threaded.r0, legacy.r0) << test_case.name;
    EXPECT_EQ(threaded.arena_head, legacy.arena_head) << test_case.name;
    EXPECT_EQ(threaded.arena_tail, legacy.arena_tail) << test_case.name;
  }
}

// The CVE-2021-29154 branch-displacement fault operates on the lowered
// form: the pre-relocated target in the decoded image is the corrupted
// one, and the threaded engine produces the same documented witness
// (verified program, hijacked control flow, kernel crash) as the legacy
// engine does.
TEST(EngineEquivalence, JitBranchFaultWitnessOnBothEngines) {
  const Program victim = analysis::BuildJitHijackVictim().value();
  for (const ExecEngine engine :
       {ExecEngine::kThreaded, ExecEngine::kLegacy}) {
    for (const bool inject : {false, true}) {
      simkern::Kernel kernel;
      Bpf bpf(kernel);
      Loader loader(bpf);
      ASSERT_TRUE(kernel.BootstrapWorkload().ok());
      if (inject) {
        bpf.faults().Inject(kFaultJitBranchOffByOne);
      }
      auto id = loader.Load(victim);
      ASSERT_TRUE(id.ok()) << "verifier passed it; the JIT broke it";
      auto loaded = loader.Find(id.value());
      auto ctx = kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                                  simkern::RegionKind::kKernelData, "ctx");
      ExecOptions opts;
      opts.engine = engine;
      auto result = Execute(bpf, *loaded.value(), ctx.value(), opts, &loader);
      if (!inject) {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result.value().r0, 42u);
        EXPECT_FALSE(kernel.crashed());
      } else {
        EXPECT_TRUE(kernel.crashed())
            << "corrupted displacement must hijack verified control flow";
      }
    }
  }
}

// The corrupted displacement is visible in the lowered form itself: under
// the fault the decoded image's pre-relocated target differs from the
// clean lowering of the same program.
TEST(EngineEquivalence, BranchFaultCorruptsPreRelocatedTargets) {
  const Program victim = analysis::BuildJitHijackVictim().value();
  FaultRegistry clean_faults;
  FaultRegistry buggy_faults;
  buggy_faults.Inject(kFaultJitBranchOffByOne);
  auto clean = JitCompile(victim, clean_faults);
  auto buggy = JitCompile(victim, buggy_faults);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(buggy.ok());
  EXPECT_EQ(clean.value().stats.branches_corrupted, 0u);
  EXPECT_GT(buggy.value().stats.branches_corrupted, 0u);
  ASSERT_EQ(clean.value().decoded.ops.size(), buggy.value().decoded.ops.size());
  u32 diverging_targets = 0;
  for (xbase::usize pc = 0; pc < clean.value().decoded.ops.size(); ++pc) {
    const MicroOp& a = clean.value().decoded.ops[pc];
    const MicroOp& b = buggy.value().decoded.ops[pc];
    EXPECT_EQ(a.handler, b.handler) << "fault must only move targets";
    if (a.jump != b.jump) {
      ++diverging_targets;
    }
  }
  EXPECT_GT(diverging_targets, 0u);
}

}  // namespace
}  // namespace ebpf
