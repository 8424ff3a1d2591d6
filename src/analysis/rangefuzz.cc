#include "src/analysis/rangefuzz.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <set>
#include <span>
#include <string_view>
#include <utility>

#include "src/analysis/diffcheck.h"
#include "src/analysis/workloads.h"
#include "src/ebpf/asm.h"
#include "src/ebpf/bpf.h"
#include "src/ebpf/disasm.h"
#include "src/ebpf/interp.h"
#include "src/ebpf/jit.h"
#include "src/ebpf/loader.h"
#include "src/ebpf/verifier.h"
#include "src/staticcheck/check.h"
#include "src/xbase/rand.h"
#include "src/xbase/strfmt.h"

namespace analysis {
namespace {

using namespace ebpf;  // NOLINT: assembler DSL (R0..R10, BPF_* opcodes)
using xbase::StrFormat;
using xbase::s16;
using xbase::s32;
using xbase::u32;
using xbase::u64;
using xbase::u8;
using xbase::usize;

// splitmix64: tiny, seedable, and identical everywhere — findings replay
// from the printed program seed alone.
struct Rng {
  u64 state;
  explicit Rng(u64 seed) : state(seed) {}
  u64 Next() { return xbase::SplitMix64(state); }
  u64 Below(u64 n) { return n == 0 ? 0 : Next() % n; }
  bool Chance(u32 percent) { return Below(100) < percent; }
  template <typename T, usize N>
  T Pick(const T (&arr)[N]) {
    return arr[Below(N)];
  }
};

// Immediates biased toward the boundaries where range-analysis bugs live
// (powers of two, sign boundaries, 32/64-bit edges).
s32 BiasedImm(Rng& rng) {
  static const s32 kBoundary[] = {
      0,    1,    -1,   2,          7,
      8,    15,   16,   31,         32,
      63,   64,   255,  256,        4095,
      4096, -256, -255, 0x7ffffffe, 0x7fffffff,
      static_cast<s32>(0x80000000u), static_cast<s32>(0xffff0000u)};
  if (rng.Chance(60)) {
    return rng.Pick(kBoundary);
  }
  return static_cast<s32>(rng.Next());
}

u64 BiasedU64(Rng& rng) {
  static const u64 kBoundary[] = {0,
                                  1,
                                  2,
                                  7,
                                  255,
                                  4096,
                                  0x7fffffffULL,
                                  0x80000000ULL,
                                  0xffffffffULL,
                                  0x100000000ULL,
                                  0x7fffffffffffffffULL,
                                  0x8000000000000000ULL,
                                  0xfffffffffffffff8ULL,
                                  ~0ULL};
  if (rng.Chance(60)) {
    return rng.Pick(kBoundary);
  }
  return rng.Next();
}

constexpr u32 kFuzzValueSize = 64;
// Findings kept in a report; a campaign stops recording past this many.
constexpr xbase::usize kMaxFindings = 16;
constexpr u8 kScalarPool[] = {R0, R1, R2, R3, R4, R5, R6, R7, R8};

// One seeded random program. Shape: map-lookup prologue that seeds R6/R7
// with unknown 64-bit scalars and R8 with an unknown u32, constant pool in
// R0..R5, then `body_len` random single-slot ALU / forward-branch / stack /
// map-access instructions (so a branch skipping k instructions is exactly
// `off = k`). Every program is memory-safe by construction: R9 stays the
// map-value pointer, all accesses use constant in-bounds offsets.
xbase::Result<Program> GenProgram(Rng& rng, int map_fd, u32 body_len,
                                  const std::string& name) {
  ProgramBuilder b(name, ProgType::kKprobe);
  b.Ins(StMemImm(BPF_W, R10, -4, 0))
      .Ins(LdMapFd(R1, map_fd))
      .Ins(Mov64Reg(R2, R10))
      .Ins(Alu64Imm(BPF_ADD, R2, -4))
      .Ins(CallHelper(kHelperMapLookupElem))
      .JmpTo(BPF_JEQ, R0, 0, "out")
      .Ins(Mov64Reg(R9, R0))
      .Ins(LdxMem(BPF_DW, R6, R9, 0))
      .Ins(LdxMem(BPF_DW, R7, R9, 8))
      .Ins(LdxMem(BPF_W, R8, R9, 16));
  for (const u8 reg : {R0, R1, R2, R3, R4, R5}) {
    if (rng.Chance(50)) {
      b.Ins(Mov64Imm(reg, BiasedImm(rng)));
    } else {
      b.Ins(LdImm64(reg, BiasedU64(rng)));
    }
  }

  static const u8 kRegOps[] = {BPF_ADD, BPF_SUB, BPF_MUL,
                               BPF_AND, BPF_OR,  BPF_XOR};
  static const u8 kImmOps[] = {BPF_ADD, BPF_SUB, BPF_MUL, BPF_AND,
                               BPF_OR,  BPF_XOR, BPF_DIV, BPF_MOD,
                               BPF_LSH, BPF_RSH, BPF_ARSH};
  static const u8 kJmpOps[] = {BPF_JEQ,  BPF_JNE,  BPF_JGT, BPF_JGE,
                               BPF_JLT,  BPF_JLE,  BPF_JSGT, BPF_JSGE,
                               BPF_JSLT, BPF_JSLE, BPF_JSET};
  static const u8 kSizes[] = {BPF_B, BPF_H, BPF_W, BPF_DW};

  u32 branches = 0;
  bool spilled[4] = {false, false, false, false};
  for (u32 i = 0; i < body_len; ++i) {
    const u32 remaining = body_len - i - 1;
    const u8 dst = rng.Pick(kScalarPool);
    const u8 src = rng.Pick(kScalarPool);
    const bool is64 = rng.Chance(60);
    const u32 pick = static_cast<u32>(rng.Below(100));
    if (pick < 15 && branches < 6 && remaining >= 1) {
      ++branches;
      const u8 op = rng.Pick(kJmpOps);
      const s16 off =
          static_cast<s16>(1 + rng.Below(std::min<u32>(4, remaining)));
      switch (rng.Below(4)) {
        case 0:
          b.Ins(JmpImm(op, dst, BiasedImm(rng), off));
          break;
        case 1:
          b.Ins(JmpReg(op, dst, src, off));
          break;
        case 2:
          b.Ins(Jmp32Imm(op, dst, BiasedImm(rng), off));
          break;
        default:
          b.Ins(Jmp32Reg(op, dst, src, off));
          break;
      }
    } else if (pick < 45) {
      const u8 op = rng.Pick(kImmOps);
      s32 imm = BiasedImm(rng);
      if (op == BPF_LSH || op == BPF_RSH || op == BPF_ARSH) {
        imm = static_cast<s32>(rng.Below(is64 ? 64 : 32));
      } else if ((op == BPF_DIV || op == BPF_MOD) && imm == 0) {
        imm = 7;
      }
      b.Ins(is64 ? Alu64Imm(op, dst, imm) : Alu32Imm(op, dst, imm));
    } else if (pick < 70) {
      const u8 op = rng.Pick(kRegOps);
      b.Ins(is64 ? Alu64Reg(op, dst, src) : Alu32Reg(op, dst, src));
    } else if (pick < 78) {
      if (rng.Chance(40)) {
        b.Ins(is64 ? Mov64Imm(dst, BiasedImm(rng))
                   : Mov32Imm(dst, BiasedImm(rng)));
      } else if (rng.Chance(70)) {
        b.Ins(is64 ? Mov64Reg(dst, src) : Mov32Reg(dst, src));
      } else {
        b.Ins(Neg64(dst));
      }
    } else if (pick < 88) {
      const u32 slot = static_cast<u32>(rng.Below(4));
      const s16 off = static_cast<s16>(-8 * static_cast<s32>(slot + 1));
      if (!spilled[slot] || rng.Chance(50)) {
        b.Ins(StxMem(BPF_DW, R10, dst, off));
        spilled[slot] = true;
      } else if (rng.Chance(30)) {
        // Narrow scribble over a live spill slot: both analyses must
        // demote the slot (the spill-width invariant under fuzz).
        b.Ins(StxMem(rng.Chance(50) ? BPF_B : BPF_W, R10, dst, off));
      } else {
        b.Ins(LdxMem(BPF_DW, dst, R10, off));
      }
    } else {
      const u8 size = rng.Pick(kSizes);
      const u32 bytes = SizeBytes(size);
      const s16 off =
          static_cast<s16>(rng.Below(kFuzzValueSize / bytes) * bytes);
      if (rng.Chance(50)) {
        b.Ins(LdxMem(size, dst, R9, off));
      } else {
        b.Ins(StxMem(size, R9, dst, off));
      }
    }
  }
  b.Bind("out").Ins(Mov64Imm(R0, 0)).Ins(Exit());
  return b.Build();
}

// One kernel + BPF stack per fuzzed program, so map state and injected
// faults cannot bleed across programs.
struct FuzzCell {
  FuzzCell() : kernel(simkern::KernelConfig{}), bpf(kernel) {
    boot_ok = kernel.BootstrapWorkload().ok();
    auto ctx_or =
        kernel.mem().Map(64, simkern::MemPerm::kReadWrite,
                         simkern::RegionKind::kKernelData, "rangefuzz-ctx");
    if (ctx_or.ok()) {
      ctx = ctx_or.value();
    } else {
      boot_ok = false;
    }
  }

  xbase::Result<int> CreateMap(u32 value_size) {
    MapSpec spec;
    spec.type = MapType::kArray;
    spec.key_size = 4;
    spec.value_size = value_size;
    spec.max_entries = 1;
    spec.name = "rangefuzz";
    return bpf.maps().Create(spec);
  }

  xbase::Status SetValue(int fd, std::span<const u8> value) {
    XB_ASSIGN_OR_RETURN(Map * map, bpf.maps().Find(fd));
    const u32 key = 0;
    return map->Update(
        kernel,
        std::span<const u8>(reinterpret_cast<const u8*>(&key), sizeof(key)),
        value, kBpfAny);
  }

  simkern::Kernel kernel;
  Bpf bpf;
  simkern::Addr ctx = 0;
  bool boot_ok = false;
};

// Oracles 1 and 2: the two static analyses with their range traces. A
// rejected verification or an incomplete fixpoint empties the matching
// trace — partial claims cover only the paths walked before the bail-out,
// and checking concrete values against them would flag phantom escapes.
struct OracleRun {
  bool verifier_accepted = false;
  bool static_complete = false;
  usize static_errors = 0;
  RangeTrace static_trace;
  RangeTrace verifier_trace;
};

OracleRun RunStaticOracles(FuzzCell& cell, const Program& prog,
                           const FaultRegistry* faults) {
  OracleRun run;
  VerifyOptions vopts;
  vopts.version = cell.kernel.version();
  vopts.faults = faults;
  vopts.kfuncs = &cell.bpf.kfuncs();
  vopts.range_trace = &run.verifier_trace;
  run.verifier_accepted =
      Verify(prog, cell.bpf.maps(), cell.bpf.helpers(), vopts).ok();
  if (!run.verifier_accepted) {
    run.verifier_trace.Reset(0);
  }

  staticcheck::CheckOptions copts;
  copts.maps = &cell.bpf.maps();
  copts.helpers = &cell.bpf.helpers();
  copts.callgraph = &cell.kernel.callgraph();
  copts.range_trace = &run.static_trace;
  auto report = staticcheck::RunChecks(prog, copts);
  if (report.ok()) {
    run.static_complete = report.value().analysis_complete;
    run.static_errors = report.value().errors();
  }
  if (!run.static_complete) {
    run.static_trace.Reset(0);
  }
  return run;
}

// Oracle 3: checks every concrete register value the interpreter produces
// against both analyses' claims at that pc.
class ClaimChecker : public InsnTracer {
 public:
  struct Escape {
    u32 pc = 0;
    u8 reg = 0;
    u64 value = 0;
    RegClaim claim;
  };

  // A concrete register-pair difference outside a claimed bound: the
  // relational analog of Escape.
  struct RelEscape {
    u32 pc = 0;
    u8 i = 0;
    u8 j = 0;
    u64 vi = 0;
    u64 vj = 0;
    s64 bound = 0;  // violated claim: ri - rj <= bound
  };

  ClaimChecker(const RangeTrace& static_trace,
               const RangeTrace& verifier_trace, RangeFuzzStats* stats)
      : static_(static_trace), verifier_(verifier_trace), stats_(stats) {}

  void OnInsn(u32 pc, const u64* regs) override {
    if (pc >= executed_pcs_.size()) {
      executed_pcs_.resize(pc + 1, false);
    }
    executed_pcs_[pc] = true;
    Check(static_, pc, regs, static_escapes_, seen_static_);
    Check(verifier_, pc, regs, verifier_escapes_, seen_verifier_);
    CheckRel(static_, pc, regs, static_rel_escapes_, seen_static_rel_);
    CheckRel(verifier_, pc, regs, verifier_rel_escapes_, seen_verifier_rel_);
  }

  // Pcs at least one concrete execution reached; claims elsewhere are
  // vacuously true and excluded from the divergence comparison.
  const std::vector<bool>& executed_pcs() const { return executed_pcs_; }

  const std::vector<Escape>& static_escapes() const {
    return static_escapes_;
  }
  const std::vector<Escape>& verifier_escapes() const {
    return verifier_escapes_;
  }
  const std::vector<RelEscape>& static_rel_escapes() const {
    return static_rel_escapes_;
  }
  const std::vector<RelEscape>& verifier_rel_escapes() const {
    return verifier_rel_escapes_;
  }

 private:
  void Check(const RangeTrace& trace, u32 pc, const u64* regs,
             std::vector<Escape>& out, std::set<u32>& seen) {
    if (pc >= trace.per_pc.size()) {
      return;
    }
    for (u32 reg = 0; reg < kNumRegs; ++reg) {
      const RegClaim& claim = trace.per_pc[pc][reg];
      if (claim.kind != RegClaim::Kind::kScalar) {
        continue;
      }
      ++stats_->points_checked;
      if (claim.Admits(regs[reg])) {
        continue;
      }
      const u32 key = pc * kNumRegs + reg;
      if (!seen.insert(key).second || out.size() >= 4) {
        continue;
      }
      out.push_back({pc, static_cast<u8>(reg), regs[reg], claim});
    }
  }

  // Relational claims speak about the mathematical s64 views of the
  // registers; a difference outside a finite bound is an unsoundness
  // witness exactly like a scalar escape.
  void CheckRel(const RangeTrace& trace, u32 pc, const u64* regs,
                std::vector<RelEscape>& out, std::set<u32>& seen) {
    if (pc >= trace.rel_per_pc.size()) {
      return;
    }
    const RelClaims& claims = trace.rel_per_pc[pc];
    if (!claims.seen) {
      return;
    }
    for (int i = 0; i < kRelRegs; ++i) {
      for (int j = 0; j < kRelRegs; ++j) {
        if (i == j) {
          continue;
        }
        const s64 bound = claims.At(i, j);
        if (bound == kRelInf) {
          continue;
        }
        ++stats_->rel_points_checked;
        const __int128 diff =
            static_cast<__int128>(static_cast<s64>(regs[i])) -
            static_cast<__int128>(static_cast<s64>(regs[j]));
        if (diff <= static_cast<__int128>(bound)) {
          continue;
        }
        const u32 key =
            (pc * static_cast<u32>(kRelRegs) + static_cast<u32>(i)) *
                static_cast<u32>(kRelRegs) +
            static_cast<u32>(j);
        if (!seen.insert(key).second || out.size() >= 4) {
          continue;
        }
        out.push_back({pc, static_cast<u8>(i), static_cast<u8>(j), regs[i],
                       regs[j], bound});
      }
    }
  }

  const RangeTrace& static_;
  const RangeTrace& verifier_;
  RangeFuzzStats* stats_;
  std::vector<bool> executed_pcs_;
  std::vector<Escape> static_escapes_;
  std::vector<Escape> verifier_escapes_;
  std::vector<RelEscape> static_rel_escapes_;
  std::vector<RelEscape> verifier_rel_escapes_;
  std::set<u32> seen_static_;
  std::set<u32> seen_verifier_;
  std::set<u32> seen_static_rel_;
  std::set<u32> seen_verifier_rel_;
};

// `prog` as Execute runs it, lowered once for all of its executions. The
// image is the generated program itself: the engines resolve map-fd pseudo
// loads at runtime.
LoadedProgram ExecFixture(FuzzCell& cell, const Program& prog) {
  LoadedProgram loaded;
  loaded.image = prog;
  loaded.decoded =
      DecodeProgram(prog, &cell.bpf.helpers(), &cell.bpf.kfuncs());
  return loaded;
}

u64 ExecuteWithChecker(FuzzCell& cell, const LoadedProgram& loaded,
                       ClaimChecker& checker) {
  ExecOptions eopts;
  eopts.max_insns = 1u << 20;
  eopts.tracer = &checker;
  auto result = Execute(cell.bpf, loaded, cell.ctx, eopts, nullptr);
  // A runtime fault (possible only under injected verifier defects) ends
  // the execution; the escapes observed before it stand.
  return result.ok() ? result.value().stats.insns : 0;
}

std::string EscapeDetail(const ClaimChecker::Escape& esc,
                         std::string_view analysis) {
  return StrFormat("r%u = %llu (0x%llx) escapes %s claim %s",
                   static_cast<unsigned>(esc.reg),
                   static_cast<unsigned long long>(esc.value),
                   static_cast<unsigned long long>(esc.value),
                   std::string(analysis).c_str(),
                   esc.claim.ToString().c_str());
}

std::string RelEscapeDetail(const ClaimChecker::RelEscape& esc,
                            std::string_view analysis) {
  const s64 vi = static_cast<s64>(esc.vi);
  const s64 vj = static_cast<s64>(esc.vj);
  return StrFormat(
      "r%u - r%u = %lld - %lld escapes %s bound r%u-r%u<=%lld",
      static_cast<unsigned>(esc.i), static_cast<unsigned>(esc.j),
      static_cast<long long>(vi), static_cast<long long>(vj),
      std::string(analysis).c_str(), static_cast<unsigned>(esc.i),
      static_cast<unsigned>(esc.j), static_cast<long long>(esc.bound));
}

}  // namespace

std::string_view RangeFindingKindName(RangeFinding::Kind kind) {
  switch (kind) {
    case RangeFinding::Kind::kStaticUnsound:
      return "STATICCHECK-UNSOUND";
    case RangeFinding::Kind::kVerifierUnsound:
      return "VERIFIER-UNSOUND";
    case RangeFinding::Kind::kDivergence:
      return "DIVERGENCE";
    case RangeFinding::Kind::kStaticRelUnsound:
      return "STATICCHECK-REL-UNSOUND";
    case RangeFinding::Kind::kVerifierRelUnsound:
      return "VERIFIER-REL-UNSOUND";
    case RangeFinding::Kind::kRelDivergence:
      return "REL-DIVERGENCE";
  }
  return "?";
}

bool RangeFuzzReport::StaticUnsound() const {
  for (const RangeFinding& f : findings) {
    if (f.kind == RangeFinding::Kind::kStaticUnsound ||
        f.kind == RangeFinding::Kind::kStaticRelUnsound) {
      return true;
    }
  }
  return false;
}

bool RangeFuzzReport::VerifierUnsound() const {
  for (const RangeFinding& f : findings) {
    if (f.kind == RangeFinding::Kind::kVerifierUnsound ||
        f.kind == RangeFinding::Kind::kVerifierRelUnsound) {
      return true;
    }
  }
  return false;
}

std::vector<u64> FuzzProgramSeeds(u64 master_seed, u32 count) {
  Rng scheduler(master_seed);
  std::vector<u64> seeds(count);
  for (u64& seed : seeds) {
    seed = scheduler.Next();
  }
  return seeds;
}

xbase::Result<Program> BuildFuzzProgram(u64 program_seed, int map_fd,
                                        u32 body_len,
                                        const std::string& name) {
  Rng rng(program_seed);
  return GenProgram(rng, map_fd, body_len, name);
}

static_assert(kRangeFuzzValueSize == kFuzzValueSize,
              "exported value size must match the generator's");

xbase::Result<RangeFuzzReport> RunRangeFuzz(const RangeFuzzOptions& opts) {
  RangeFuzzReport report;
  Rng scheduler(opts.seed);
  FaultRegistry faults;
  const std::vector<FaultInfo>& catalog = FaultRegistry::Catalog();
  for (const std::string& id : opts.verifier_faults) {
    if (std::none_of(catalog.begin(), catalog.end(),
                     [&](const FaultInfo& info) { return info.id == id; })) {
      return xbase::InvalidArgument(
          StrFormat("unknown fault id '%s'", id.c_str()));
    }
    faults.Inject(id);
  }
  const FaultRegistry* faults_ptr =
      opts.verifier_faults.empty() ? nullptr : &faults;

  const u32 programs =
      opts.replay_program_seed != 0 ? 1 : opts.programs;
  for (u32 i = 0; i < programs; ++i) {
    const u64 program_seed = opts.replay_program_seed != 0
                                 ? opts.replay_program_seed
                                 : scheduler.Next();
    Rng rng(program_seed);
    FuzzCell cell;
    if (!cell.boot_ok) {
      return xbase::Internal("rangefuzz: cell bootstrap failed");
    }
    XB_ASSIGN_OR_RETURN(int fd, cell.CreateMap(kFuzzValueSize));
    XB_ASSIGN_OR_RETURN(
        Program prog,
        GenProgram(rng, fd, opts.body_len,
                   StrFormat("fuzz_%llu",
                             static_cast<unsigned long long>(program_seed))));
    ++report.stats.programs;

    OracleRun run = RunStaticOracles(cell, prog, faults_ptr);
    if (run.verifier_accepted) {
      ++report.stats.verifier_accepted;
    }
    if (run.static_complete) {
      ++report.stats.staticcheck_complete;
    }

    ClaimChecker checker(run.static_trace, run.verifier_trace,
                         &report.stats);
    const LoadedProgram loaded = ExecFixture(cell, prog);
    for (u32 e = 0; e < opts.execs; ++e) {
      std::array<u8, kFuzzValueSize> value;
      for (u32 off = 0; off < kFuzzValueSize; off += 8) {
        const u64 word = BiasedU64(rng);
        std::memcpy(value.data() + off, &word, sizeof(word));
      }
      XB_RETURN_IF_ERROR(cell.SetValue(fd, value));
      report.stats.exec_insns += ExecuteWithChecker(cell, loaded, checker);
      ++report.stats.executions;
    }

    const auto add_finding = [&](RangeFinding::Kind kind, u32 pc, u8 reg,
                                 std::string detail) {
      if (report.findings.size() >= kMaxFindings) {
        return;
      }
      RangeFinding finding;
      finding.kind = kind;
      finding.program_seed = program_seed;
      finding.prog_index = i;
      finding.pc = pc;
      finding.reg = reg;
      finding.detail = std::move(detail);
      finding.disasm = DisasmProgram(prog);
      report.findings.push_back(std::move(finding));
    };
    for (const auto& esc : checker.static_escapes()) {
      add_finding(RangeFinding::Kind::kStaticUnsound, esc.pc, esc.reg,
                  EscapeDetail(esc, "staticcheck"));
    }
    for (const auto& esc : checker.verifier_escapes()) {
      add_finding(RangeFinding::Kind::kVerifierUnsound, esc.pc, esc.reg,
                  EscapeDetail(esc, "verifier"));
    }
    for (const auto& esc : checker.static_rel_escapes()) {
      add_finding(RangeFinding::Kind::kStaticRelUnsound, esc.pc, esc.i,
                  RelEscapeDetail(esc, "staticcheck"));
    }
    for (const auto& esc : checker.verifier_rel_escapes()) {
      add_finding(RangeFinding::Kind::kVerifierRelUnsound, esc.pc, esc.i,
                  RelEscapeDetail(esc, "verifier"));
    }

    if (run.verifier_accepted && run.static_complete) {
      const RangeCompareResult cmp = CompareRangeTraces(
          run.static_trace, run.verifier_trace, &checker.executed_pcs());
      report.stats.points_compared += cmp.points;
      report.stats.width_ratio_sum += cmp.width_ratio_sum;
      report.stats.disjoint_points += cmp.disjoint;
      for (const RangeDisagreement& d : cmp.disagreements) {
        add_finding(RangeFinding::Kind::kDivergence, d.pc, d.reg,
                    StrFormat("staticcheck %s vs verifier %s",
                              d.staticcheck.ToString().c_str(),
                              d.verifier.ToString().c_str()));
      }
      const RelCompareResult relcmp = CompareRelTraces(
          run.static_trace, run.verifier_trace, &checker.executed_pcs());
      report.stats.rel_points_compared += relcmp.points;
      report.stats.rel_contradictions += relcmp.contradictions;
      for (const RelDisagreement& d : relcmp.disagreements) {
        add_finding(
            RangeFinding::Kind::kRelDivergence, d.pc, d.i,
            StrFormat("staticcheck r%u-r%u<=%lld vs verifier r%u-r%u<=%lld",
                      static_cast<unsigned>(d.i), static_cast<unsigned>(d.j),
                      static_cast<long long>(d.static_bound),
                      static_cast<unsigned>(d.j), static_cast<unsigned>(d.i),
                      static_cast<long long>(d.verifier_rev_bound)));
      }
    }
  }
  return report;
}

std::string FormatRangeFuzzReport(const RangeFuzzReport& report) {
  const RangeFuzzStats& st = report.stats;
  std::string out = StrFormat(
      "rangefuzz: %u programs (%u verifier-accepted, %u staticcheck-"
      "complete), %llu executions, %llu insns interpreted\n"
      "  concrete claim checks: %llu   static claim pairs compared: %llu "
      "(%llu disjoint)\n"
      "  relational bound checks: %llu   bound pairs cross-checked: %llu "
      "(%llu contradictory)\n"
      "  mean interval width ratio staticcheck/verifier: %.3f\n",
      st.programs, st.verifier_accepted, st.staticcheck_complete,
      static_cast<unsigned long long>(st.executions),
      static_cast<unsigned long long>(st.exec_insns),
      static_cast<unsigned long long>(st.points_checked),
      static_cast<unsigned long long>(st.points_compared),
      static_cast<unsigned long long>(st.disjoint_points),
      static_cast<unsigned long long>(st.rel_points_checked),
      static_cast<unsigned long long>(st.rel_points_compared),
      static_cast<unsigned long long>(st.rel_contradictions),
      st.MeanWidthRatio());
  if (report.findings.empty()) {
    out += "  no unsoundness, no divergence\n";
    return out;
  }
  for (const RangeFinding& f : report.findings) {
    out += StrFormat(
        "FINDING %s prog=%u pc=%u r%u: %s\n  replay: rangefuzz --replay "
        "%llu --execs 64\n",
        std::string(RangeFindingKindName(f.kind)).c_str(), f.prog_index,
        f.pc, static_cast<unsigned>(f.reg), f.detail.c_str(),
        static_cast<unsigned long long>(f.program_seed));
    out += f.disasm;
  }
  return out;
}

namespace {

// Triggering inputs: alu32-trunc reads a u32 (0x100 + 8 = 264 escapes the
// truncated [0,7]); jgt needs exactly the off-by-one value 9; tnum-mul
// needs an odd word so (r & 1) * 24 lands on 24; sign-ext triggers
// independently of the map value. reg-reg needs r8 == 8 (u32 at offset 8)
// and the one-excluded value r7 == 7; spill-width needs a small spilled
// value whose low byte the narrow store replaces with 0x7f; the packet
// witness triggers statically (the stale dereference is in the bytecode).
const FaultWitness kFaultWitnesses[] = {
    {kFaultVerifierAlu32BoundsTrunc, "alu32-trunc-oob",
     BuildAlu32TruncExploit, false, 16, {0x100, 0}},
    {kFaultVerifierSignExtConfusion, "sign-ext-oob", BuildSignExtExploit,
     false, 16, {0, 0}},
    {kFaultVerifierJgtOffByOne, "jgt-off-by-one", BuildJgtOffByOneExploit,
     false, 16, {9, 0}},
    {kFaultVerifierTnumMulPrecision, "tnum-mul-oob", BuildTnumMulExploit,
     false, 16, {1, 0}},
    {kFaultVerifierRegRegOffByOne, "reg-reg-off-by-one",
     BuildRegRegOffByOneExploit, true, kFuzzValueSize, {7, 8}},
    {kFaultVerifierSpillWidth, "spill-width", BuildSpillWidthExploit, true,
     kFuzzValueSize, {1, 0}},
    {kFaultVerifierPktRangeStale, "pkt-range-stale",
     [](int) { return BuildPktRangeStaleExploit(); }, true, 0, {0, 0}},
};

// The range (`relational` false) or the relational half of the rows.
std::string FormatFaultTable(const std::vector<FaultWitnessResult>& rows,
                             bool relational) {
  const char* kind = relational ? "relational" : "range";
  const int id_width = relational ? 38 : 36;
  const int name_width = id_width - 18;
  const std::string rule(static_cast<usize>(id_width + name_width + 56), '-');
  const std::string title = StrFormat("injected %s fault", kind);
  std::string out =
      StrFormat("%-*s %-*s %7s %7s %8s %8s %8s  %s\n", id_width,
                title.c_str(), name_width, "witness", "cleanV", "faultV",
                "unsound", "diverge", "detected", "staticcheck");
  out += rule + "\n";
  usize shown = 0;
  usize detected = 0;
  std::string tsv;
  for (const FaultWitnessResult& row : rows) {
    if (row.witness.relational != relational) {
      continue;
    }
    ++shown;
    detected += row.detected() ? 1 : 0;
    const std::string id(row.witness.fault_id);
    out += StrFormat("%-*s %-*s %7s %7s %8s %8s %8s  %s\n", id_width,
                     id.c_str(), name_width, row.witness.name,
                     row.clean_verifier_rejects ? "reject" : "accept",
                     row.faulted_verifier_accepts ? "accept" : "reject",
                     row.witness_unsound ? "YES" : "no",
                     row.witness_divergence ? "YES" : "no",
                     row.detected() ? "YES" : "NO",
                     row.staticcheck_rejects ? "reject" : "accept");
    tsv += StrFormat("%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
                     relational ? "RELFAULT-TSV" : "RANGEFAULT-TSV",
                     id.c_str(), row.witness.name,
                     row.clean_verifier_rejects ? 1 : 0,
                     row.faulted_verifier_accepts ? 1 : 0,
                     row.witness_unsound ? 1 : 0,
                     row.witness_divergence ? 1 : 0, row.detected() ? 1 : 0,
                     row.staticcheck_rejects ? 1 : 0);
  }
  out += rule + "\n";
  out += StrFormat("injected %s faults detected: %zu/%zu\n", kind, detected,
                   shown);
  return out + tsv;
}

}  // namespace

std::span<const FaultWitness> FaultWitnesses() { return kFaultWitnesses; }

xbase::Result<std::vector<FaultWitnessResult>> CheckFaultWitnesses(
    u32 execs) {
  std::vector<FaultWitnessResult> rows;
  for (const FaultWitness& witness : kFaultWitnesses) {
    FaultWitnessResult row;
    row.witness = witness;

    FuzzCell cell;
    if (!cell.boot_ok) {
      return xbase::Internal("rangefuzz: cell bootstrap failed");
    }
    int fd = -1;
    if (witness.value_size != 0) {
      XB_ASSIGN_OR_RETURN(fd, cell.CreateMap(witness.value_size));
    }
    XB_ASSIGN_OR_RETURN(Program prog, witness.build(fd));

    row.clean_verifier_rejects =
        !RunStaticOracles(cell, prog, nullptr).verifier_accepted;
    FaultRegistry faults;
    faults.Inject(witness.fault_id);
    const OracleRun run = RunStaticOracles(cell, prog, &faults);
    row.faulted_verifier_accepts = run.verifier_accepted;
    row.staticcheck_rejects = run.static_errors > 0;
    row.witness_divergence =
        CompareRangeTraces(run.static_trace, run.verifier_trace).disjoint >
            0 ||
        (witness.relational &&
         CompareRelTraces(run.static_trace, run.verifier_trace)
                 .contradictions > 0);

    RangeFuzzStats scratch;
    ClaimChecker checker(run.static_trace, run.verifier_trace, &scratch);
    if (fd >= 0) {
      std::vector<u8> value(witness.value_size);
      std::memcpy(value.data(), witness.words, sizeof(witness.words));
      XB_RETURN_IF_ERROR(cell.SetValue(fd, value));
    }
    const LoadedProgram loaded = ExecFixture(cell, prog);
    for (u32 e = 0; e < std::max<u32>(execs, 1); ++e) {
      ExecuteWithChecker(cell, loaded, checker);
    }
    row.witness_unsound =
        !checker.verifier_escapes().empty() ||
        (witness.relational && !checker.verifier_rel_escapes().empty());
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string FormatFaultWitnessTables(
    const std::vector<FaultWitnessResult>& rows) {
  return FormatFaultTable(rows, false) + "\n" + FormatFaultTable(rows, true);
}

}  // namespace analysis
