#include "src/ebpf/verifier.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "src/ebpf/disasm.h"
#include "src/ebpf/runtime.h"
#include "src/simkern/lsm.h"
#include "src/simkern/sched.h"
#include "src/xbase/strfmt.h"

namespace ebpf {

using simkern::KernelVersion;
using xbase::StrFormat;
using xbase::usize;

std::string_view RegTypeName(RegType type) {
  switch (type) {
    case RegType::kNotInit:
      return "?";
    case RegType::kScalar:
      return "scalar";
    case RegType::kPtrToCtx:
      return "ctx";
    case RegType::kConstPtrToMap:
      return "map_ptr";
    case RegType::kPtrToMapValue:
      return "map_value";
    case RegType::kPtrToMapValueOrNull:
      return "map_value_or_null";
    case RegType::kPtrToStack:
      return "fp";
    case RegType::kPtrToPacket:
      return "pkt";
    case RegType::kPtrToPacketEnd:
      return "pkt_end";
    case RegType::kPtrToMem:
      return "mem";
    case RegType::kPtrToMemOrNull:
      return "mem_or_null";
    case RegType::kPtrToSock:
      return "sock";
    case RegType::kPtrToSockOrNull:
      return "sock_or_null";
    case RegType::kPtrToTask:
      return "task";
    case RegType::kPtrToTaskOrNull:
      return "task_or_null";
    case RegType::kPtrToFunc:
      return "func";
  }
  return "?";
}

RegType UnwrapOrNull(RegType type) {
  switch (type) {
    case RegType::kPtrToMapValueOrNull:
      return RegType::kPtrToMapValue;
    case RegType::kPtrToMemOrNull:
      return RegType::kPtrToMem;
    case RegType::kPtrToSockOrNull:
      return RegType::kPtrToSock;
    case RegType::kPtrToTaskOrNull:
      return RegType::kPtrToTask;
    default:
      return type;
  }
}

void RegState::MarkUnknownScalar() {
  *this = RegState{};
  type = RegType::kScalar;
}

// A load of `size` bytes zero-extends into the register, so sub-8-byte
// loads are bounded by the load width (the kernel's coerce_reg_to_size).
// Dropping this on the floor is not just imprecision: a W-loaded value
// the verifier thinks might be negative makes signed-compare edges look
// feasible that concretely never execute.
void RegState::MarkScalarLoad(u32 size) {
  MarkUnknownScalar();
  if (size < 8) {
    const u64 max = (u64{1} << (size * 8)) - 1;
    umin = 0;
    umax = max;
    smin = 0;
    smax = static_cast<s64>(max);
    var_off = Tnum{0, max};
  }
}

void RegState::MarkConst(u64 value) {
  *this = RegState{};
  type = RegType::kScalar;
  var_off = TnumConst(value);
  umin = value;
  umax = value;
  smin = static_cast<s64>(value);
  smax = static_cast<s64>(value);
}

void RegState::SyncBounds() {
  // __update_reg_bounds: pull range information out of the tnum.
  umin = std::max(umin, var_off.value);
  umax = std::min(umax, var_off.value | var_off.mask);

  // __reg_deduce_bounds: transfer between signed and unsigned views when
  // the sign is determined.
  if (static_cast<s64>(umax) >= 0) {
    // The whole unsigned range lies in the non-negative signed half.
    smin = std::max(smin, static_cast<s64>(umin));
    smax = std::min(smax, static_cast<s64>(umax));
  } else if (static_cast<s64>(umin) < 0) {
    // The whole unsigned range lies in the negative signed half.
    smin = std::max(smin, static_cast<s64>(umin));
    smax = std::min(smax, static_cast<s64>(umax));
  }
  if (smin >= 0) {
    umin = std::max(umin, static_cast<u64>(smin));
    umax = std::min(umax, static_cast<u64>(smax));
  }

  // __reg_bound_offset: feed the ranges back into the tnum.
  var_off = TnumIntersect(var_off, TnumRange(umin, umax));
}

std::string RegState::ToString() const {
  if (type == RegType::kScalar) {
    if (var_off.IsConst()) {
      return StrFormat("%lld", static_cast<long long>(smin));
    }
    return StrFormat("scalar(umin=%llu,umax=%llu,var=%s)",
                     static_cast<unsigned long long>(umin),
                     static_cast<unsigned long long>(umax),
                     var_off.ToString().c_str());
  }
  return StrFormat("%s(off=%d)", RegTypeName(type).data(), off);
}

CtxRules CtxRulesFor(ProgType type) {
  switch (type) {
    case ProgType::kXdp:
    case ProgType::kSocketFilter:
    case ProgType::kCgroupSkb:
      return CtxRules{simkern::SkBuffLayout::kSize, true, true};
    case ProgType::kKprobe:
    case ProgType::kTracepoint:
    case ProgType::kPerfEvent:
      return CtxRules{64, false, false};
    case ProgType::kSyscall:
      return CtxRules{64, true, false};
    case ProgType::kSchedExt:
      // Read-only pick context (now, nr_runnable, prev_pid, tick).
      return CtxRules{simkern::SchedCtxLayout::kSize, false, false};
    case ProgType::kLsm:
      // Read-only decision context (pid, uid, inode, flags, path).
      return CtxRules{simkern::LsmCtxLayout::kSize, false, false};
  }
  return CtxRules{};
}

namespace {

constexpr s64 kS64Min = std::numeric_limits<s64>::min();
constexpr s64 kS64Max = std::numeric_limits<s64>::max();
constexpr u64 kU64Max = std::numeric_limits<u64>::max();

// Upper bound on states stored per instruction for pruning (memory bound).
constexpr usize kMaxStoredStatesPerPc = 64;
// Hard cap on pending branch states.
constexpr usize kMaxPendingStates = 8192;

struct Pending {
  u32 pc;
  VerifierState state;
};

class Verifier {
 public:
  Verifier(const Program& prog, const MapTable& maps,
           const HelperRegistry& helpers, const VerifyOptions& opts)
      : prog_(prog), maps_(maps), helpers_(helpers), opts_(opts),
        ctx_rules_(CtxRulesFor(prog.type)) {}

  xbase::Result<VerifyResult> Run();

 private:
  bool Feat(VFeature feature) const {
    return FeatureEnabled(feature, opts_.version);
  }
  bool FaultOn(std::string_view id) const {
    return opts_.faults != nullptr && opts_.faults->IsActive(id);
  }
  xbase::Status Reject(u32 pc, const std::string& message) const {
    return xbase::Rejected(StrFormat("at insn %u (%s): %s", pc,
                                     pc < prog_.len()
                                         ? DisasmInsn(prog_.insns[pc]).c_str()
                                         : "<eof>",
                                     message.c_str()));
  }

  xbase::Status CheckCfg();
  void MarkPrunePoint(u32 pc);
  xbase::Status VerifyEntry(u32 entry_pc, VerifierState state);
  xbase::Status ExplorePaths();

  // Steps one instruction; appends follow-on states to worklist_. Returns
  // OK always unless the program must be rejected.
  xbase::Status Step(VerifierState& state, u32 pc, bool& path_done,
                     u32& next_pc);

  xbase::Status CheckAlu(VerifierState& state, const Insn& insn, u32 pc);
  xbase::Status ApplyScalarAlu(RegState& dst, const RegState& src, u8 op,
                               bool is64, u32 pc);
  xbase::Status ApplyPtrArith(VerifierState& state, RegState& dst,
                              const RegState& src, u8 op, u32 pc);

  xbase::Status CheckMemInsn(VerifierState& state, const Insn& insn, u32 pc);
  xbase::Status CheckMemInsnImpl(VerifierState& state, const Insn& insn,
                                 u32 pc);
  xbase::Status CheckMemAccess(VerifierState& state, u8 regno, s32 insn_off,
                               u32 size, bool is_write, u32 pc,
                               RegState* load_dest, const RegState* store_src);
  xbase::Status CheckStackAccess(FuncState& frame, const RegState& base,
                                 s32 insn_off, u32 size, bool is_write,
                                 u32 pc, RegState* load_dest,
                                 const RegState* store_src);
  xbase::Status CheckHelperMemArg(VerifierState& state, u8 regno, u32 size,
                                  bool is_write, u32 pc);

  xbase::Status CheckCall(VerifierState& state, const Insn& insn, u32 pc,
                          bool& path_done, u32& next_pc);
  xbase::Status CheckHelperCall(VerifierState& state, const Insn& insn,
                                u32 pc);
  xbase::Status CheckKfuncCall(VerifierState& state, const Insn& insn,
                               u32 pc);
  xbase::Status CheckExit(VerifierState& state, u32 pc, bool& path_done,
                          u32& next_pc);

  // Refines `state` in place into the fall-through edge and returns the
  // taken edge, copied from `state` only when that edge is feasible (the
  // kernel's push_stack): a conditional branch copies its state at most
  // once.
  VerifierState ApplyCondBranch(VerifierState& state, const Insn& insn,
                                bool& taken_possible, bool& fall_possible);
  void RefineScalar(RegState& reg, u8 jmp_op, u64 imm, bool branch_taken,
                    bool is32);
  void RefineRegReg(RegState& dst, RegState& src, u8 jmp_op,
                    bool branch_taken);
  void MarkPtrOrNull(VerifierState& state, u32 id, bool is_null);
  void FindGoodPktPointers(FuncState& frame, u32 pkt_id, u32 range);
  void RecordRangeTrace(const VerifierState& state, u32 pc);

  bool StatesEqual(const VerifierState& old_state,
                   const VerifierState& new_state) const;
  bool RegSafe(const RegState& old_reg, const RegState& new_reg) const;

  u32 NextId() { return next_id_++; }

  const Program& prog_;
  const MapTable& maps_;
  const HelperRegistry& helpers_;
  VerifyOptions opts_;
  CtxRules ctx_rules_;

  struct StoredState {
    VerifierState state;
    u64 path_id;  // which DFS path stored it (infinite-loop detection)
  };
  static constexpr u32 kNotPrunePoint = std::numeric_limits<u32>::max();
  std::vector<Pending> worklist_;
  // Pruning points (jump targets and callback entries) indexed by pc: the
  // pc's row in explored_, or kNotPrunePoint. Both are sized by CheckCfg
  // and never grow after it, so a nested callback walk cannot move a row
  // out from under the walk that started it.
  std::vector<u32> prune_row_;
  std::vector<std::vector<StoredState>> explored_;
  std::vector<u32> subprog_starts_;
  std::set<u32> verified_callbacks_;
  VerifyStats stats_;
  u32 next_id_ = 1;
  u32 insn_budget_ = 0;
  u64 path_counter_ = 0;
};

// ---- CFG ------------------------------------------------------------------------

xbase::Status Verifier::CheckCfg() {
  const u32 len = prog_.len();
  if (len == 0) {
    return xbase::Rejected("empty program");
  }
  const u32 max_len = opts_.privileged ? 1'000'000 : kMaxProgLenUnpriv;
  if (len > max_len) {
    return xbase::Rejected(StrFormat("program too large: %u insns (max %u)",
                                     len, max_len));
  }

  prune_row_.assign(len, kNotPrunePoint);

  // Identify the second slots of ld_imm64 pairs; jumps may not land there.
  std::vector<bool> is_ld64_cont(len, false);
  std::set<u32> pseudo_func_targets;
  for (u32 pc = 0; pc < len; ++pc) {
    if (prog_.insns[pc].IsLdImm64()) {
      if (pc + 1 >= len) {
        return Reject(pc, "incomplete ld_imm64");
      }
      is_ld64_cont[pc + 1] = true;
      if (prog_.insns[pc].src == BPF_PSEUDO_FUNC) {
        const s32 target = prog_.insns[pc].imm;
        if (target < 0 || static_cast<u32>(target) >= len) {
          return Reject(pc, "callback target out of range");
        }
        pseudo_func_targets.insert(static_cast<u32>(target));
      }
      ++pc;
    }
  }

  // Roots: entry, BPF-to-BPF call targets, callback entries.
  std::vector<u32> roots{0};
  for (u32 pc = 0; pc < len; ++pc) {
    const Insn& insn = prog_.insns[pc];
    if (insn.IsPseudoCall()) {
      if (!Feat(VFeature::kBpf2BpfCalls)) {
        return Reject(pc, "function calls are not supported before v4.16");
      }
      const s64 target = static_cast<s64>(pc) + 1 + insn.imm;
      if (target < 0 || target >= len) {
        return Reject(pc, "call target out of range");
      }
      roots.push_back(static_cast<u32>(target));
      subprog_starts_.push_back(static_cast<u32>(target));
    }
  }
  for (u32 target : pseudo_func_targets) {
    roots.push_back(target);
    MarkPrunePoint(target);
  }

  // Iterative DFS with colors for back-edge detection and reachability.
  enum : u8 { kWhite, kGray, kBlack };
  std::vector<u8> color(len, kWhite);

  const auto edge_targets = [&](u32 pc, std::vector<u32>& out)
      -> xbase::Status {
    const Insn& insn = prog_.insns[pc];
    out.clear();
    if (insn.IsLdImm64()) {
      out.push_back(pc + 2);
      return xbase::Status::Ok();
    }
    const u8 cls = insn.Class();
    if (cls != BPF_JMP && cls != BPF_JMP32) {
      out.push_back(pc + 1);
      return xbase::Status::Ok();
    }
    if (insn.IsExit()) {
      return xbase::Status::Ok();
    }
    if (insn.IsCall()) {
      out.push_back(pc + 1);  // subprogs walked as separate roots
      return xbase::Status::Ok();
    }
    const s64 target = static_cast<s64>(pc) + 1 + insn.off;
    if (target < 0 || target >= len) {
      return Reject(pc, "jump out of range");
    }
    if (is_ld64_cont[static_cast<u32>(target)]) {
      return Reject(pc, "jump into the middle of ld_imm64");
    }
    out.push_back(static_cast<u32>(target));
    if (insn.JmpOp() != BPF_JA) {
      out.push_back(pc + 1);
    }
    return xbase::Status::Ok();
  };

  std::vector<u32> targets;
  for (u32 root : roots) {
    if (color[root] == kBlack) {
      continue;
    }
    // (pc, next edge index) stack.
    std::vector<std::pair<u32, u32>> stack{{root, 0}};
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [pc, edge] = stack.back();
      if (pc >= len) {
        return Reject(pc, "fell off the end of the program");
      }
      XB_RETURN_IF_ERROR(edge_targets(pc, targets));
      if (targets.empty() && edge == 0) {
        // exit insn
        color[pc] = kBlack;
        stack.pop_back();
        continue;
      }
      if (edge >= targets.size()) {
        color[pc] = kBlack;
        stack.pop_back();
        continue;
      }
      const u32 next = targets[edge];
      ++edge;
      // `pc`/`edge` reference into `stack`; the push_back below may
      // reallocate it, so keep a copy for use past that point.
      const u32 cur_pc = pc;
      if (next >= len) {
        return Reject(pc, "control flow runs past the last instruction");
      }
      if (color[next] == kGray) {
        if (!Feat(VFeature::kBoundedLoops)) {
          return Reject(pc, StrFormat("back-edge from insn %u to %u "
                                      "(loops are not allowed before v5.3)",
                                      pc, next));
        }
        continue;  // loop: the path explorer bounds it by the insn budget
      }
      if (color[next] == kWhite) {
        color[next] = kGray;
        stack.push_back({next, 0});
      }
      // Record jump targets as pruning points.
      if (targets.size() > 1 || next != cur_pc + 1) {
        MarkPrunePoint(next);
      }
    }
  }

  for (u32 pc = 0; pc < len; ++pc) {
    if (color[pc] == kWhite && !is_ld64_cont[pc]) {
      return Reject(pc, "unreachable insn");
    }
  }

  // Control flow must not run off the end: the kernel requires the final
  // instruction to be an exit or an unconditional jump.
  const Insn& last = prog_.insns[len - 1];
  const bool last_ok = last.IsExit() || (last.Class() == BPF_JMP &&
                                         last.JmpOp() == BPF_JA);
  if (!last_ok) {
    return Reject(len - 1, "last insn is not an exit or jmp");
  }
  return xbase::Status::Ok();
}

void Verifier::MarkPrunePoint(u32 pc) {
  if (prune_row_[pc] == kNotPrunePoint) {
    prune_row_[pc] = static_cast<u32>(explored_.size());
    explored_.emplace_back();
  }
}

// ---- scalar ALU -------------------------------------------------------------------

xbase::Status Verifier::ApplyScalarAlu(RegState& dst, const RegState& src,
                                       u8 op, bool is64, u32 pc) {
  Tnum a = dst.var_off;
  Tnum b = src.var_off;
  // Pre-op operand bounds: the 32-bit truncation epilogue below needs to
  // know whether the operands already fit in 32 bits (dst is overwritten
  // by then, and src may alias dst).
  const u64 dst_umax_in = dst.umax;
  const u64 src_umax_in = src.umax;
  if (!is64) {
    a = TnumCast(a, 4);
    b = TnumCast(b, 4);
  }

  // Bounds first (only ops with cheap exact range rules keep bounds; the
  // rest re-derive from the tnum).
  s64 new_smin = kS64Min, new_smax = kS64Max;
  u64 new_umin = 0, new_umax = kU64Max;

  switch (op) {
    case BPF_ADD: {
      // Unsigned: overflow check.
      if (dst.umax + src.umax >= dst.umax) {  // no wrap
        new_umin = dst.umin + src.umin;
        new_umax = dst.umax + src.umax;
      }
      const bool smin_overflows =
          (src.smin < 0 && dst.smin < kS64Min - src.smin) ||
          (src.smin > 0 && dst.smin > kS64Max - src.smin);
      const bool smax_overflows =
          (src.smax < 0 && dst.smax < kS64Min - src.smax) ||
          (src.smax > 0 && dst.smax > kS64Max - src.smax);
      if (!smin_overflows && !smax_overflows) {
        new_smin = dst.smin + src.smin;
        new_smax = dst.smax + src.smax;
      }
      dst.var_off = TnumAdd(a, b);
      break;
    }
    case BPF_SUB: {
      if (dst.umin >= src.umax) {  // no unsigned underflow
        new_umin = dst.umin - src.umax;
        new_umax = dst.umax - src.umin;
      }
      dst.var_off = TnumSub(a, b);
      break;
    }
    case BPF_MUL:
      if (FaultOn(kFaultVerifierTnumMulPrecision)) {
        // Buggy: multiplies the known values and only ORs the uncertainty
        // masks, dropping the cross terms — bits the product can flip are
        // recorded as known (tnum_mul rewrite class).
        dst.var_off = Tnum{a.value * b.value, a.mask | b.mask};
      } else {
        dst.var_off = TnumMul(a, b);
      }
      if (dst.umax <= 0xffffffff && src.umax <= 0xffffffff) {
        new_umin = dst.umin * src.umin;
        new_umax = dst.umax * src.umax;
        if (static_cast<s64>(new_umax) >= 0) {
          new_smin = 0;
          new_smax = static_cast<s64>(new_umax);
        }
      }
      break;
    case BPF_AND:
      dst.var_off = TnumAnd(a, b);
      if (b.IsConst()) {
        new_umax = std::min(dst.umax, b.value);
        new_umin = 0;
        if (static_cast<s64>(new_umax) >= 0) {
          new_smin = 0;
          new_smax = static_cast<s64>(new_umax);
        }
      }
      break;
    case BPF_OR:
      dst.var_off = TnumOr(a, b);
      new_umin = std::max(dst.umin, src.umin);
      break;
    case BPF_XOR:
      dst.var_off = TnumXor(a, b);
      break;
    case BPF_DIV:
      if (b.IsConst() && b.value == 0) {
        return Reject(pc, "division by zero");
      }
      // Division narrows: result <= dividend.
      dst.var_off = TnumUnknown();
      new_umax = dst.umax;
      new_umin = 0;
      break;
    case BPF_MOD:
      if (b.IsConst() && b.value == 0) {
        return Reject(pc, "division by zero");
      }
      dst.var_off = TnumUnknown();
      if (src.umax > 0) {
        new_umax = src.umax - 1;
      }
      new_umin = 0;
      break;
    case BPF_LSH: {
      if (!b.IsConst() || b.value >= (is64 ? 64u : 32u)) {
        if (b.IsConst()) {
          return Reject(pc, "invalid shift amount");
        }
        dst.var_off = TnumUnknown();
        break;
      }
      const u8 shift = static_cast<u8>(b.value);
      dst.var_off = TnumLshift(a, shift);
      if (dst.umax <= (kU64Max >> shift)) {
        new_umin = dst.umin << shift;
        new_umax = dst.umax << shift;
      }
      break;
    }
    case BPF_RSH: {
      if (!b.IsConst() || b.value >= (is64 ? 64u : 32u)) {
        if (b.IsConst()) {
          return Reject(pc, "invalid shift amount");
        }
        dst.var_off = TnumUnknown();
        break;
      }
      const u8 shift = static_cast<u8>(b.value);
      dst.var_off = TnumRshift(a, shift);
      new_umin = dst.umin >> shift;
      new_umax = dst.umax >> shift;
      // A shift of zero leaves bit 63 in place, so the result is only
      // provably non-negative for shift >= 1 (where umax <= s64 max).
      if (shift > 0) {
        new_smin = 0;
        new_smax = static_cast<s64>(new_umax);
      }
      break;
    }
    case BPF_ARSH: {
      if (!b.IsConst() || b.value >= (is64 ? 64u : 32u)) {
        dst.var_off = TnumUnknown();
        break;
      }
      dst.var_off = TnumArshift(a, static_cast<u8>(b.value), is64 ? 64 : 32);
      new_smin = dst.smin >> b.value;
      new_smax = dst.smax >> b.value;
      break;
    }
    default:
      return Reject(pc, "unknown ALU op");
  }

  dst.smin = new_smin;
  dst.smax = new_smax;
  dst.umin = new_umin;
  dst.umax = new_umax;
  if (!is64) {
    dst.var_off = TnumCast(dst.var_off, 4);
    if (FaultOn(kFaultVerifierAlu32BoundsTrunc)) {
      // Buggy (CVE-2020-8835 shape): the 64-bit bounds are truncated
      // modulo 2^32 instead of being widened to the full 32-bit range, so
      // a wrapped 32-bit result keeps a deceptively narrow interval.
      dst.umin &= 0xffffffff;
      dst.umax &= 0xffffffff;
      if (dst.umin > dst.umax) {
        dst.umin = 0;
      }
      dst.smin = static_cast<s64>(dst.umin);
      dst.smax = static_cast<s64>(dst.umax);
    } else {
      // Sound zero-extension: the result is the low 32 bits of the
      // value. The interval computed above bounds the *64-bit* op
      // result; it transfers to the truncated result only when the
      // interval already sits inside [0, 2^32) (so truncation is the
      // identity on every admitted value) AND the 32-bit op agrees with
      // the 64-bit op on the operands actually seen.
      bool keep = new_umin <= new_umax && new_umax <= 0xffffffff;
      switch (op) {
        case BPF_ADD:
        case BPF_SUB:
        case BPF_MUL:
        case BPF_AND:
        case BPF_OR:
        case BPF_XOR:
        case BPF_LSH:
          // low32(op64(x, y)) == op32(low32(x), low32(y)) for these, so
          // a 64-bit result interval inside [0, 2^32) pins the result.
          break;
        case BPF_RSH:
        case BPF_DIV:
        case BPF_MOD:
          // Not truncation-compatible: high operand bits change the low
          // result bits. Agreement only when both operands fit in u32.
          keep = keep && dst_umax_in <= 0xffffffff &&
                 src_umax_in <= 0xffffffff;
          break;
        default:
          // ARSH and anything else: the 32-bit sign bit is bit 31, not
          // bit 63, so the 64-bit signed bounds say nothing about the
          // 32-bit result (ARSH above set only smin/smax anyway, which
          // leaves `keep` false via new_umax == kU64Max).
          keep = false;
          break;
      }
      if (keep) {
        dst.umin = new_umin;
        dst.umax = new_umax;
      } else {
        dst.umin = 0;
        dst.umax = 0xffffffff;
      }
      // A zero-extended value is non-negative: signed view == unsigned.
      dst.smin = static_cast<s64>(dst.umin);
      dst.smax = static_cast<s64>(dst.umax);
    }
  }
  dst.SyncBounds();
  return xbase::Status::Ok();
}

xbase::Status Verifier::ApplyPtrArith(VerifierState& state, RegState& dst,
                                      const RegState& src, u8 op, u32 pc) {
  (void)state;
  if (op != BPF_ADD && op != BPF_SUB) {
    return Reject(pc, StrFormat("%s on pointer prohibited",
                                AluOpName(op).data()));
  }
  switch (dst.type) {
    case RegType::kPtrToStack:
    case RegType::kPtrToMapValue:
    case RegType::kPtrToMem:
    case RegType::kPtrToPacket:
      break;
    case RegType::kPtrToCtx:
      if (!src.IsConst()) {
        return Reject(pc, "variable ctx access is not allowed");
      }
      break;
    default:
      return Reject(pc, StrFormat("pointer arithmetic on %s prohibited",
                                  RegTypeName(dst.type).data()));
  }

  if (src.IsConst()) {
    const s64 delta = (op == BPF_ADD ? 1 : -1) *
                      static_cast<s64>(src.var_off.value);
    const s64 new_off = static_cast<s64>(dst.off) + delta;
    if (new_off < std::numeric_limits<s32>::min() ||
        new_off > std::numeric_limits<s32>::max()) {
      return Reject(pc, "pointer offset out of range");
    }
    dst.off = static_cast<s32>(new_off);
    return xbase::Status::Ok();
  }

  // Variable offset: requires full range tracking (v4.14+); earlier
  // verifiers rejected it outright — one of the expressiveness walls the
  // paper describes.
  if (!Feat(VFeature::kFullRangeTracking)) {
    return Reject(pc,
                  "variable offset on pointer requires range tracking "
                  "(v4.14+)");
  }
  if (op == BPF_SUB) {
    return Reject(pc, "variable subtraction from pointer prohibited");
  }
  // Fold the scalar into the pointer's variable part.
  RegState var = dst;
  var.type = RegType::kScalar;
  var.off = 0;
  XB_RETURN_IF_ERROR(ApplyScalarAlu(var, src, BPF_ADD, true, pc));
  const RegType keep_type = dst.type;
  const s32 keep_off = dst.off;
  const int keep_fd = dst.map_fd;
  const u32 keep_mem = dst.mem_size;
  const u32 keep_range = dst.pkt_range;
  const u32 keep_id = dst.id;
  dst = var;
  dst.type = keep_type;
  dst.off = keep_off;
  dst.map_fd = keep_fd;
  dst.mem_size = keep_mem;
  dst.pkt_range = keep_range;
  dst.id = keep_id;
  return xbase::Status::Ok();
}

xbase::Status Verifier::CheckAlu(VerifierState& state, const Insn& insn,
                                 u32 pc) {
  FuncState& frame = state.cur();
  const bool is64 = insn.Class() == BPF_ALU64;
  const u8 op = insn.AluOp();
  RegState& dst = frame.regs[insn.dst];

  if (insn.dst >= R10) {
    return Reject(pc, "frame pointer is read only");
  }

  if (op == BPF_END) {
    if (dst.type != RegType::kScalar) {
      return Reject(pc, "byteswap on pointer prohibited");
    }
    dst.MarkUnknownScalar();
    return xbase::Status::Ok();
  }
  if (op == BPF_NEG) {
    if (dst.type != RegType::kScalar) {
      return Reject(pc, "negation of pointer prohibited");
    }
    if (dst.type == RegType::kNotInit) {
      return Reject(pc, StrFormat("R%d !read_ok", insn.dst));
    }
    // -x == 0 - x: reuse the subtraction transfer so constants stay
    // constants (dropping to unknown here loses the equality facts later
    // conditional jumps need to kill infeasible edges).
    RegState val = dst;
    dst.MarkConst(0);
    return ApplyScalarAlu(dst, val, BPF_SUB, is64, pc);
  }

  // Operand.
  RegState src_val;
  if (insn.UsesRegSrc()) {
    const RegState& src = frame.regs[insn.src];
    if (src.type == RegType::kNotInit) {
      return Reject(pc, StrFormat("R%d !read_ok", insn.src));
    }
    src_val = src;
  } else {
    src_val.MarkConst(is64 ? static_cast<u64>(static_cast<s64>(insn.imm))
                           : static_cast<u32>(insn.imm));
  }

  if (op == BPF_MOV) {
    if (insn.UsesRegSrc()) {
      if (!is64 && IsPointerType(src_val.type)) {
        // mov32 truncates: a pointer becomes an unknown scalar (and leaks
        // half the address — rejected for unprivileged).
        if (!opts_.privileged && !FaultOn(kFaultVerifierPtrLeak)) {
          return Reject(pc, "partial copy of pointer (leak)");
        }
        dst.MarkUnknownScalar();
        return xbase::Status::Ok();
      }
      dst = src_val;
      if (!is64) {
        dst.var_off = TnumCast(dst.var_off, 4);
        dst.umin = 0;
        dst.umax = std::min<u64>(dst.umax, 0xffffffff);
        dst.smin = 0;
        dst.smax = 0xffffffff;
        dst.SyncBounds();
      }
    } else if (!is64 && FaultOn(kFaultVerifierSignExtConfusion)) {
      // Buggy (CVE-2017-16995 shape): records the sign-extended 64-bit
      // constant for a 32-bit move although the runtime zero-extends.
      dst.MarkConst(static_cast<u64>(static_cast<s64>(insn.imm)));
    } else {
      dst.MarkConst(is64 ? static_cast<u64>(static_cast<s64>(insn.imm))
                         : static_cast<u32>(insn.imm));
    }
    return xbase::Status::Ok();
  }

  // Arithmetic proper.
  if (dst.type == RegType::kNotInit) {
    return Reject(pc, StrFormat("R%d !read_ok", insn.dst));
  }

  const bool dst_ptr = IsPointerType(dst.type);
  const bool src_ptr = IsPointerType(src_val.type);

  if (dst_ptr && src_ptr) {
    // ptr - ptr of the same kind yields a scalar (privileged only).
    if (op == BPF_SUB && dst.type == src_val.type && is64) {
      if (!opts_.privileged && !FaultOn(kFaultVerifierPtrLeak)) {
        return Reject(pc, "pointer subtraction prohibited for unprivileged");
      }
      dst.MarkUnknownScalar();
      return xbase::Status::Ok();
    }
    return Reject(pc, "arithmetic between two pointers prohibited");
  }
  if (dst_ptr || src_ptr) {
    if (!is64) {
      return Reject(pc, "32-bit pointer arithmetic prohibited");
    }
    if (src_ptr) {
      // scalar += ptr: only commutative ADD can be rewritten.
      if (op != BPF_ADD) {
        return Reject(pc, "pointer on the right-hand side of non-add");
      }
      const RegState scalar = dst;
      dst = src_val;
      return ApplyPtrArith(state, dst, scalar, BPF_ADD, pc);
    }
    return ApplyPtrArith(state, dst, src_val, op, pc);
  }

  return ApplyScalarAlu(dst, src_val, op, is64, pc);
}

// ---- memory access ------------------------------------------------------------------

xbase::Status Verifier::CheckStackAccess(FuncState& frame,
                                         const RegState& base, s32 insn_off,
                                         u32 size, bool is_write, u32 pc,
                                         RegState* load_dest,
                                         const RegState* store_src) {
  if (!base.var_off.IsConst()) {
    return Reject(pc, "variable stack access prohibited");
  }
  const s64 off = static_cast<s64>(base.off) +
                  static_cast<s64>(base.var_off.value) + insn_off;
  if (off >= 0 || off < -static_cast<s64>(kMaxStackBytes)) {
    return Reject(pc, StrFormat("invalid stack access off=%lld size=%u",
                                static_cast<long long>(off), size));
  }
  if (off + static_cast<s64>(size) > 0) {
    return Reject(pc, "stack access past the frame base");
  }
  stats_.max_stack_depth =
      std::max<u32>(stats_.max_stack_depth, static_cast<u32>(-off));

  // Slots by depth: the access covers slots [shallow, deep].
  const u32 deep = static_cast<u32>((-off - 1) / 8);
  const u32 shallow = static_cast<u32>((-off - size) / 8);

  if (is_write) {
    if (frame.stack.size() <= deep) {
      frame.stack.resize(deep + 1);
    }
    const bool full_spill = size == 8 && (off % 8) == 0 &&
                            store_src != nullptr &&
                            store_src->type != RegType::kNotInit;
    for (u32 slot = shallow; slot <= deep; ++slot) {
      StackSlot& stack_slot = frame.stack[slot];
      if (full_spill) {
        stack_slot.kind = SlotKind::kSpill;
        stack_slot.spilled = *store_src;
      } else if (FaultOn(kFaultVerifierSpillWidth) &&
                 stack_slot.kind == SlotKind::kSpill) {
        // Buggy: a narrow store into a spilled slot leaves the old spill
        // record intact, so a later 8-byte fill restores pre-overwrite
        // bounds the runtime bytes no longer satisfy (commit 27113c59b6d0
        // class).
      } else {
        stack_slot.kind = SlotKind::kMisc;
        stack_slot.spilled = RegState{};
      }
    }
    return xbase::Status::Ok();
  }

  // Read.
  if (size == 8 && (off % 8) == 0 && deep < frame.stack.size() &&
      frame.stack[deep].kind == SlotKind::kSpill) {
    if (load_dest != nullptr) {
      *load_dest = frame.stack[deep].spilled;
    }
    return xbase::Status::Ok();
  }
  for (u32 slot = shallow; slot <= deep; ++slot) {
    if (slot >= frame.stack.size() ||
        frame.stack[slot].kind == SlotKind::kInvalid) {
      return Reject(pc, StrFormat("invalid read from stack off %lld+%u",
                                  static_cast<long long>(off), size));
    }
  }
  if (load_dest != nullptr) {
    load_dest->MarkScalarLoad(size);
  }
  return xbase::Status::Ok();
}

xbase::Status Verifier::CheckMemAccess(VerifierState& state, u8 regno,
                                       s32 insn_off, u32 size, bool is_write,
                                       u32 pc, RegState* load_dest,
                                       const RegState* store_src) {
  FuncState& frame = state.cur();
  RegState& base = frame.regs[regno];

  switch (base.type) {
    case RegType::kNotInit:
      return Reject(pc, StrFormat("R%d !read_ok", regno));
    case RegType::kScalar:
      return Reject(pc, StrFormat("R%d invalid mem access 'scalar'", regno));
    case RegType::kConstPtrToMap:
      return Reject(pc, "direct dereference of map pointer prohibited");
    case RegType::kPtrToFunc:
      return Reject(pc, "dereference of callback pointer prohibited");
    case RegType::kPtrToMapValueOrNull:
    case RegType::kPtrToMemOrNull:
    case RegType::kPtrToSockOrNull:
    case RegType::kPtrToTaskOrNull:
      return Reject(pc, StrFormat("R%d invalid mem access '%s': possibly "
                                  "NULL; check before use",
                                  regno, RegTypeName(base.type).data()));
    case RegType::kPtrToPacketEnd:
      return Reject(pc, "access to pkt_end prohibited");
    case RegType::kPtrToStack:
      return CheckStackAccess(frame, base, insn_off, size, is_write, pc,
                              load_dest, store_src);
    case RegType::kPtrToCtx: {
      if (!base.var_off.IsConst() || base.var_off.value != 0) {
        return Reject(pc, "variable ctx access prohibited");
      }
      const s64 off = static_cast<s64>(base.off) + insn_off;
      if (off < 0 || off + size > ctx_rules_.size) {
        return Reject(pc, StrFormat("invalid bpf_context access off=%lld "
                                    "size=%u",
                                    static_cast<long long>(off), size));
      }
      if (is_write && !ctx_rules_.writable) {
        return Reject(pc, "write into ctx prohibited for this program type");
      }
      if (!is_write && load_dest != nullptr) {
        if (ctx_rules_.has_packet_ptrs && Feat(VFeature::kDirectPacketAccess)) {
          if (off == simkern::SkBuffLayout::kDataPtr && size == 8) {
            *load_dest = RegState{};
            load_dest->type = RegType::kPtrToPacket;
            load_dest->var_off = TnumConst(0);
            load_dest->umin = load_dest->umax = 0;
            load_dest->smin = load_dest->smax = 0;
            load_dest->id = NextId();
            return xbase::Status::Ok();
          }
          if (off == simkern::SkBuffLayout::kDataEndPtr && size == 8) {
            *load_dest = RegState{};
            load_dest->type = RegType::kPtrToPacketEnd;
            return xbase::Status::Ok();
          }
        }
        load_dest->MarkScalarLoad(size);
        if (off == simkern::SkBuffLayout::kLen && size == 4) {
          load_dest->umin = 0;
          load_dest->umax = 0xffff;
          load_dest->smin = 0;
          load_dest->smax = 0xffff;
          load_dest->var_off = TnumRange(0, 0xffff);
          load_dest->SyncBounds();
        }
      }
      return xbase::Status::Ok();
    }
    case RegType::kPtrToMapValue: {
      auto map = maps_.Find(base.map_fd);
      if (!map.ok()) {
        return Reject(pc, "stale map reference");
      }
      const u32 value_size = map.value()->spec().value_size;
      if (FaultOn(kFaultVerifierScalarBounds)) {
        // Injected CVE-2022-23222-class defect: pointer bounds unchecked.
        if (!is_write && load_dest != nullptr) {
          load_dest->MarkUnknownScalar();
        }
        return xbase::Status::Ok();
      }
      const s64 min_off = static_cast<s64>(base.off) + insn_off + base.smin;
      const s64 max_off = static_cast<s64>(base.off) + insn_off + base.smax;
      if (min_off < 0) {
        return Reject(pc, StrFormat("R%d min value is negative (%lld), "
                                    "either use unsigned index or do a "
                                    "if (index >=0) check",
                                    regno, static_cast<long long>(min_off)));
      }
      if (max_off + size > value_size) {
        return Reject(pc, StrFormat("invalid access to map value, "
                                    "value_size=%u off=%lld size=%u",
                                    value_size,
                                    static_cast<long long>(max_off), size));
      }
      if (!is_write && load_dest != nullptr) {
        load_dest->MarkScalarLoad(size);
      }
      return xbase::Status::Ok();
    }
    case RegType::kPtrToMem: {
      const s64 min_off = static_cast<s64>(base.off) + insn_off + base.smin;
      const s64 max_off = static_cast<s64>(base.off) + insn_off + base.smax;
      if (min_off < 0 || max_off + size > base.mem_size) {
        return Reject(pc, StrFormat("invalid access to mem, mem_size=%u",
                                    base.mem_size));
      }
      if (!is_write && load_dest != nullptr) {
        load_dest->MarkScalarLoad(size);
      }
      return xbase::Status::Ok();
    }
    case RegType::kPtrToPacket: {
      const s64 max_off = static_cast<s64>(base.off) + insn_off +
                          static_cast<s64>(base.umax);
      const s64 min_off = static_cast<s64>(base.off) + insn_off +
                          static_cast<s64>(base.umin);
      if (min_off < 0 || max_off + size > base.pkt_range) {
        return Reject(pc, StrFormat("invalid access to packet, off=%lld "
                                    "size=%u, R%d range=%u",
                                    static_cast<long long>(max_off), size,
                                    regno, base.pkt_range));
      }
      if (!is_write && load_dest != nullptr) {
        load_dest->MarkScalarLoad(size);
      }
      return xbase::Status::Ok();
    }
    case RegType::kPtrToSock:
    case RegType::kPtrToTask: {
      if (is_write) {
        return Reject(pc, StrFormat("write into %s prohibited",
                                    RegTypeName(base.type).data()));
      }
      if (!base.var_off.IsConst()) {
        return Reject(pc, "variable offset into kernel structure");
      }
      const s64 off = static_cast<s64>(base.off) + insn_off;
      if (off < 0 || off + size > 64) {  // both sim structs are 64 bytes
        return Reject(pc, "out-of-bounds access to kernel structure");
      }
      if (load_dest != nullptr) {
        load_dest->MarkScalarLoad(size);
      }
      return xbase::Status::Ok();
    }
  }
  return Reject(pc, "unhandled pointer type");
}

// Thin recording wrapper: exports a per-pc memory-safety claim into the
// RangeTrace. An accepted check means the verifier believes every concrete
// execution reaching this pc stays in bounds — exactly the precondition the
// JIT needs to elide the runtime check. Injected verifier range faults
// (scalar_bounds, jgt_refine_off_by_one) make unsound checks *succeed*, so
// a buggy proof automatically becomes a wrongly-proven claim here and, via
// elision, real silent corruption downstream — no extra plumbing.
xbase::Status Verifier::CheckMemInsn(VerifierState& state, const Insn& insn,
                                     u32 pc) {
  xbase::Status st = CheckMemInsnImpl(state, insn, pc);
  if (opts_.range_trace != nullptr &&
      pc < opts_.range_trace->mem_per_pc.size()) {
    opts_.range_trace->mem_per_pc[pc].Record(st.ok());
  }
  return st;
}

xbase::Status Verifier::CheckMemInsnImpl(VerifierState& state,
                                         const Insn& insn, u32 pc) {
  FuncState& frame = state.cur();
  const u32 size = SizeBytes(insn.Size());
  if (size == 0) {
    return Reject(pc, "bad access size");
  }
  switch (insn.Class()) {
    case BPF_LDX: {
      if (insn.dst >= R10) {
        return Reject(pc, "frame pointer is read only");
      }
      RegState dest;
      XB_RETURN_IF_ERROR(CheckMemAccess(state, insn.src, insn.off, size,
                                        false, pc, &dest, nullptr));
      frame.regs[insn.dst] = dest;
      return xbase::Status::Ok();
    }
    case BPF_STX: {
      const RegState& src = frame.regs[insn.src];
      if (src.type == RegType::kNotInit) {
        return Reject(pc, StrFormat("R%d !read_ok", insn.src));
      }
      if (insn.Mode() == BPF_ATOMIC) {
        // BPF_XADD and friends: only fetch-add is supported (pre-v5.12
        // semantics), word sizes only, scalar operand, and the target must
        // be readable AND writable.
        if (insn.imm != BPF_ADD) {
          return Reject(pc, "unsupported atomic operation");
        }
        if (size != 4 && size != 8) {
          return Reject(pc, "atomic access must be 4 or 8 bytes");
        }
        if (src.type != RegType::kScalar) {
          return Reject(pc, "atomic operand must be a scalar");
        }
        RegState scratch;
        XB_RETURN_IF_ERROR(CheckMemAccess(state, insn.dst, insn.off, size,
                                          false, pc, &scratch, nullptr));
        return CheckMemAccess(state, insn.dst, insn.off, size, true, pc,
                              nullptr, &src);
      }
      // Leak check: storing a pointer anywhere but the stack exposes a
      // kernel address (to userspace via the map).
      if (IsPointerType(src.type) &&
          frame.regs[insn.dst].type != RegType::kPtrToStack &&
          !opts_.privileged && !FaultOn(kFaultVerifierPtrLeak)) {
        return Reject(pc, StrFormat("R%d leaks addr into map/mem", insn.src));
      }
      return CheckMemAccess(state, insn.dst, insn.off, size, true, pc,
                            nullptr, &src);
    }
    case BPF_ST: {
      RegState imm_reg;
      imm_reg.MarkConst(static_cast<u64>(static_cast<s64>(insn.imm)));
      return CheckMemAccess(state, insn.dst, insn.off, size, true, pc,
                            nullptr, &imm_reg);
    }
  }
  return Reject(pc, "unhandled memory class");
}

// ---- helper calls ------------------------------------------------------------------

xbase::Status Verifier::CheckHelperMemArg(VerifierState& state, u8 regno,
                                          u32 size, bool is_write, u32 pc) {
  if (size == 0) {
    return xbase::Status::Ok();
  }
  // A helper memory argument is equivalent to an access of `size` bytes at
  // offset 0 from the register.
  RegState scratch;
  return CheckMemAccess(state, regno, 0, size, is_write, pc,
                        is_write ? nullptr : &scratch,
                        is_write ? &scratch : nullptr);
}

xbase::Status Verifier::CheckHelperCall(VerifierState& state,
                                        const Insn& insn, u32 pc) {
  FuncState& frame = state.cur();
  const u32 helper_id = static_cast<u32>(insn.imm);

  auto spec_result = helpers_.FindSpec(helper_id);
  if (!spec_result.ok()) {
    return Reject(pc, StrFormat("invalid func unknown#%u", helper_id));
  }
  const HelperSpec& spec = *spec_result.value();
  simkern::KernelVersion gate_version = opts_.version;
  if (FaultOn(kFaultVerifierVersionGateOffByOne)) {
    // Defect: the gate compares against the *next* minor release, so a
    // helper is admitted one kernel version before it exists.
    ++gate_version.minor;
  }
  if (spec.introduced > gate_version) {
    return Reject(pc, StrFormat("unknown func %s#%u (introduced in %s)",
                                spec.name.c_str(), helper_id,
                                spec.introduced.ToString().c_str()));
  }
  // Helper-family access-control model (the declared contract lives in
  // FamilyAdmitsProgType): decision-maker families (sched/lsm) are only
  // reachable from their own program type, and those program types cannot
  // touch the packet/socket family.
  if (!FamilyAdmitsProgType(spec.family, prog_.type) &&
      !FaultOn(kFaultVerifierFamilyGateSkip)) {
    if (spec.family == HelperFamily::kSched ||
        spec.family == HelperFamily::kLsm) {
      return Reject(
          pc, StrFormat("helper %s#%u is restricted to %s programs",
                        spec.name.c_str(), helper_id,
                        ProgTypeName(AdmittingProgType(spec.family)).data()));
    }
    return Reject(pc, StrFormat("helper %s#%u is not available to "
                                "%s programs",
                                spec.name.c_str(), helper_id,
                                ProgTypeName(prog_.type).data()));
  }

  const bool lock_checks =
      Feat(VFeature::kSpinLockTracking) && !FaultOn(kFaultVerifierSpinLock);
  if (lock_checks && state.active_spin_lock_id != 0 &&
      helper_id != kHelperSpinUnlock) {
    return Reject(pc, "helper call is not allowed while holding a lock");
  }

  const bool ref_checks =
      Feat(VFeature::kRefTracking) && !FaultOn(kFaultVerifierRefTracking);

  int map_arg_fd = -1;
  u32 released_ref = 0;

  for (int i = 0; i < 5; ++i) {
    const ArgType arg = spec.args[i];
    if (arg == ArgType::kNone) {
      break;
    }
    const u8 regno = static_cast<u8>(R1 + i);
    RegState& reg = frame.regs[regno];
    if (reg.type == RegType::kNotInit) {
      return Reject(pc, StrFormat("R%d !read_ok (arg %d of %s)", regno,
                                  i + 1, spec.name.c_str()));
    }
    switch (arg) {
      case ArgType::kAnything:
        break;
      case ArgType::kScalar:
        if (reg.type != RegType::kScalar) {
          return Reject(pc, StrFormat("R%d type=%s expected=scalar", regno,
                                      RegTypeName(reg.type).data()));
        }
        break;
      case ArgType::kConstMapPtr:
        if (reg.type != RegType::kConstPtrToMap) {
          return Reject(pc, StrFormat("R%d type=%s expected=map_ptr", regno,
                                      RegTypeName(reg.type).data()));
        }
        map_arg_fd = reg.map_fd;
        break;
      case ArgType::kMapKey:
      case ArgType::kMapValue: {
        if (map_arg_fd < 0) {
          return Reject(pc, "map argument must precede key/value argument");
        }
        auto map = maps_.Find(map_arg_fd);
        if (!map.ok()) {
          return Reject(pc, "stale map reference");
        }
        const u32 need = arg == ArgType::kMapKey
                             ? map.value()->spec().key_size
                             : map.value()->spec().value_size;
        XB_RETURN_IF_ERROR(CheckHelperMemArg(state, regno, need, false, pc));
        break;
      }
      case ArgType::kPtrToMem:
      case ArgType::kPtrToUninitMem: {
        // Size lives in the following kMemSize argument.
        if (i + 1 >= 5 || spec.args[i + 1] != ArgType::kMemSize) {
          return Reject(pc, "helper spec error: mem without size");
        }
        const RegState& size_reg = frame.regs[R1 + i + 1];
        if (size_reg.type != RegType::kScalar) {
          return Reject(pc, StrFormat("R%d type=%s expected=size scalar",
                                      R1 + i + 1,
                                      RegTypeName(size_reg.type).data()));
        }
        if (size_reg.umax > 8192) {
          return Reject(pc, StrFormat("R%d unbounded memory access, "
                                      "umax=%llu",
                                      R1 + i + 1,
                                      static_cast<unsigned long long>(
                                          size_reg.umax)));
        }
        XB_RETURN_IF_ERROR(CheckHelperMemArg(
            state, regno, static_cast<u32>(size_reg.umax),
            arg == ArgType::kPtrToUninitMem, pc));
        break;
      }
      case ArgType::kMemSize:
        if (reg.type != RegType::kScalar) {
          return Reject(pc, StrFormat("R%d size must be scalar", regno));
        }
        break;
      case ArgType::kCtx:
        if (reg.type != RegType::kPtrToCtx || reg.off != 0) {
          return Reject(pc, StrFormat("R%d type=%s expected=ctx", regno,
                                      RegTypeName(reg.type).data()));
        }
        break;
      case ArgType::kSock:
        if (reg.type != RegType::kPtrToSock) {
          return Reject(pc, StrFormat("R%d type=%s expected=sock", regno,
                                      RegTypeName(reg.type).data()));
        }
        if (ref_checks && spec.releases_ref_arg == i + 1) {
          if (reg.ref_obj_id == 0 ||
              std::find(state.acquired_refs.begin(),
                        state.acquired_refs.end(),
                        reg.ref_obj_id) == state.acquired_refs.end()) {
            return Reject(pc, StrFormat("release of unowned reference "
                                        "(R%d)",
                                        regno));
          }
          released_ref = reg.ref_obj_id;
        }
        break;
      case ArgType::kTask:
        if (reg.type != RegType::kPtrToTask &&
            reg.type != RegType::kPtrToTaskOrNull &&
            !(reg.IsConst() && reg.var_off.value == 0) &&
            reg.type != RegType::kScalar) {
          return Reject(pc, StrFormat("R%d type=%s expected=task", regno,
                                      RegTypeName(reg.type).data()));
        }
        // Note: a *possibly NULL* or even scalar task pointer is accepted —
        // the verifier performs no deep inspection of what the pointer
        // really designates. This shallowness is §2.2's point.
        break;
      case ArgType::kSpinLock: {
        if (reg.type != RegType::kPtrToMapValue) {
          return Reject(pc, StrFormat("R%d type=%s expected=map_value "
                                      "(spin lock)",
                                      regno, RegTypeName(reg.type).data()));
        }
        if (!lock_checks) {
          break;
        }
        const u32 lock_id = static_cast<u32>(reg.map_fd) * 65536 +
                            static_cast<u32>(reg.off) + 1;
        if (helper_id == kHelperSpinLock) {
          if (state.active_spin_lock_id != 0) {
            return Reject(pc, "lock is already held");
          }
          state.active_spin_lock_id = lock_id;
        } else if (helper_id == kHelperSpinUnlock) {
          if (state.active_spin_lock_id != lock_id) {
            return Reject(pc, "unlock of a lock that is not held");
          }
          state.active_spin_lock_id = 0;
        }
        break;
      }
      case ArgType::kFunc: {
        if (!Feat(VFeature::kBpfLoopCallbacks)) {
          return Reject(pc, "callbacks are not supported before v5.17");
        }
        if (reg.type != RegType::kPtrToFunc) {
          return Reject(pc, StrFormat("R%d type=%s expected=func", regno,
                                      RegTypeName(reg.type).data()));
        }
        if (FaultOn(kFaultVerifierLoopInlineUaf)) {
          // Injected verifier-crash defect (commit fb4e3b33e3e7): the
          // loop-inlining pass touches a freed state.
          return xbase::Internal(
              "verifier bug: use-after-free in inline_bpf_loop "
              "(injected defect verifier.loop_inline_uaf)");
        }
        const u32 callback_pc = reg.mem_size;  // entry stashed at ld time
        if (!verified_callbacks_.contains(callback_pc)) {
          verified_callbacks_.insert(callback_pc);
          VerifierState cb_state;
          cb_state.frames.emplace_back();
          FuncState& cb_frame = cb_state.frames.back();
          cb_frame.regs[R1].MarkUnknownScalar();  // loop index
          cb_frame.regs[R2].MarkUnknownScalar();  // callback ctx cookie
          cb_frame.regs[R10].type = RegType::kPtrToStack;
          cb_frame.regs[R10].var_off = TnumConst(0);
          cb_frame.regs[R10].umin = cb_frame.regs[R10].umax = 0;
          cb_frame.regs[R10].smin = cb_frame.regs[R10].smax = 0;
          cb_frame.subprog_start = callback_pc;
          XB_RETURN_IF_ERROR(VerifyEntry(callback_pc, std::move(cb_state)));
        }
        break;
      }
      case ArgType::kNone:
        break;
    }
  }

  // Tail calls need a prog-array map.
  if (helper_id == kHelperTailCall && map_arg_fd >= 0) {
    auto map = maps_.Find(map_arg_fd);
    if (map.ok() && map.value()->spec().type != MapType::kProgArray) {
      return Reject(pc, "tail_call map must be a prog array");
    }
  }

  if (ref_checks && released_ref != 0) {
    state.acquired_refs.erase(
        std::remove(state.acquired_refs.begin(), state.acquired_refs.end(),
                    released_ref),
        state.acquired_refs.end());
    // Every copy of the released pointer is dead now.
    for (FuncState& f : state.frames) {
      for (RegState& reg : f.regs) {
        if (reg.ref_obj_id == released_ref) {
          reg.MarkUnknownScalar();
        }
      }
    }
  }

  // Return value.
  RegState& r0 = frame.regs[R0];
  switch (spec.ret) {
    case RetType::kInteger:
    case RetType::kVoid:
      r0.MarkUnknownScalar();
      break;
    case RetType::kMapValueOrNull: {
      r0 = RegState{};
      r0.type = RegType::kPtrToMapValueOrNull;
      r0.map_fd = map_arg_fd;
      r0.id = NextId();
      r0.var_off = TnumConst(0);
      r0.umin = r0.umax = 0;
      r0.smin = r0.smax = 0;
      break;
    }
    case RetType::kSockOrNull: {
      r0 = RegState{};
      r0.type = RegType::kPtrToSockOrNull;
      r0.id = NextId();
      if (ref_checks && spec.acquires_ref) {
        r0.ref_obj_id = r0.id;
        state.acquired_refs.push_back(r0.id);
      }
      break;
    }
    case RetType::kTaskOrNull: {
      r0 = RegState{};
      r0.type = RegType::kPtrToTaskOrNull;
      r0.id = NextId();
      break;
    }
    case RetType::kMemOrNull: {
      // ringbuf_reserve: the record size is the (constant) second argument.
      const RegState& size_reg = frame.regs[R2];
      if (!size_reg.IsConst()) {
        return Reject(pc, "R2 must be a known constant record size");
      }
      r0 = RegState{};
      r0.type = RegType::kPtrToMemOrNull;
      r0.mem_size = static_cast<u32>(size_reg.var_off.value);
      r0.id = NextId();
      if (ref_checks && spec.acquires_ref) {
        r0.ref_obj_id = r0.id;
        state.acquired_refs.push_back(r0.id);
      }
      break;
    }
  }
  if (spec.releases_ref_arg != 0 && spec.ret == RetType::kVoid) {
    r0.MarkUnknownScalar();
  }

  // r1-r5 are clobbered by the call.
  for (u8 regno = R1; regno <= R5; ++regno) {
    frame.regs[regno] = RegState{};
  }

  // Packet pointers are invalidated by helpers that may reallocate data —
  // registers and spilled stack slots alike. The injectable defect skips
  // the whole sweep (commit 36bbef52c7eb class): stale data/data_end ranges
  // then keep authorizing reads into reallocated memory.
  if (spec.changes_packet_data && !FaultOn(kFaultVerifierPktRangeStale)) {
    for (FuncState& f : state.frames) {
      for (RegState& reg : f.regs) {
        if (reg.type == RegType::kPtrToPacket ||
            reg.type == RegType::kPtrToPacketEnd) {
          reg.MarkUnknownScalar();
        }
      }
      for (StackSlot& slot : f.stack) {
        if (slot.kind == SlotKind::kSpill &&
            (slot.spilled.type == RegType::kPtrToPacket ||
             slot.spilled.type == RegType::kPtrToPacketEnd)) {
          slot.spilled.MarkUnknownScalar();
        }
      }
    }
  }
  return xbase::Status::Ok();
}

xbase::Status Verifier::CheckKfuncCall(VerifierState& state,
                                       const Insn& insn, u32 pc) {
  // kfunc calls (v5.13+): internal kernel functions exposed through BTF.
  // The checking here is *shallower* than for helpers — argument classes
  // only, no sizes, no pointee validation — which is exactly the widened
  // escape hatch §2.2 warns about.
  if (!Feat(VFeature::kKfuncCalls)) {
    return Reject(pc, "kfunc calls are not supported before v5.13");
  }
  if (opts_.kfuncs == nullptr) {
    return Reject(pc, "no kfuncs exposed by this kernel");
  }
  auto spec_result = opts_.kfuncs->FindSpec(static_cast<u32>(insn.imm));
  if (!spec_result.ok()) {
    return Reject(pc, StrFormat("invalid kernel function call #%d",
                                insn.imm));
  }
  const KfuncSpec& spec = *spec_result.value();
  if (spec.introduced > opts_.version) {
    return Reject(pc, StrFormat("kfunc %s not exported until %s",
                                spec.name.c_str(),
                                spec.introduced.ToString().c_str()));
  }
  FuncState& frame = state.cur();
  for (int i = 0; i < spec.arg_count(); ++i) {
    const u8 regno = static_cast<u8>(R1 + i);
    RegState& reg = frame.regs[regno];
    if (reg.type == RegType::kNotInit) {
      return Reject(pc, StrFormat("R%d !read_ok (kfunc arg)", regno));
    }
    if (spec.args[i] == ArgType::kCtx &&
        (reg.type != RegType::kPtrToCtx || reg.off != 0)) {
      return Reject(pc, StrFormat("R%d type=%s expected=ctx", regno,
                                  RegTypeName(reg.type).data()));
    }
    // kAnything: anything goes. This is the hole.
  }

  const bool ref_checks =
      Feat(VFeature::kRefTracking) && !FaultOn(kFaultVerifierRefTracking);
  if (ref_checks && spec.releases_ref) {
    RegState& reg = frame.regs[R1];
    if (reg.ref_obj_id == 0 ||
        std::find(state.acquired_refs.begin(), state.acquired_refs.end(),
                  reg.ref_obj_id) == state.acquired_refs.end()) {
      return Reject(pc, "kfunc release of unowned reference");
    }
    const u32 released = reg.ref_obj_id;
    state.acquired_refs.erase(
        std::remove(state.acquired_refs.begin(), state.acquired_refs.end(),
                    released),
        state.acquired_refs.end());
    for (FuncState& f : state.frames) {
      for (RegState& r : f.regs) {
        if (r.ref_obj_id == released) {
          r.MarkUnknownScalar();
        }
      }
    }
  }

  RegState& r0 = frame.regs[R0];
  if (spec.acquires_ref) {
    r0 = RegState{};
    r0.type = RegType::kPtrToTaskOrNull;
    r0.id = NextId();
    if (ref_checks) {
      r0.ref_obj_id = r0.id;
      state.acquired_refs.push_back(r0.id);
    }
  } else {
    r0.MarkUnknownScalar();
  }
  for (u8 regno = R1; regno <= R5; ++regno) {
    frame.regs[regno] = RegState{};
  }
  return xbase::Status::Ok();
}

xbase::Status Verifier::CheckCall(VerifierState& state, const Insn& insn,
                                  u32 pc, bool& path_done, u32& next_pc) {
  if (insn.IsHelperCall()) {
    XB_RETURN_IF_ERROR(CheckHelperCall(state, insn, pc));
    path_done = false;
    next_pc = pc + 1;
    return xbase::Status::Ok();
  }
  if (insn.IsKfuncCall()) {
    XB_RETURN_IF_ERROR(CheckKfuncCall(state, insn, pc));
    path_done = false;
    next_pc = pc + 1;
    return xbase::Status::Ok();
  }
  // BPF-to-BPF call.
  if (!Feat(VFeature::kBpf2BpfCalls)) {
    return Reject(pc, "function calls are not supported before v4.16");
  }
  if (state.frames.size() >= kMaxCallFrames) {
    return Reject(pc, StrFormat("the call stack of %u frames is too deep",
                                kMaxCallFrames));
  }
  const u32 target = static_cast<u32>(static_cast<s64>(pc) + 1 + insn.imm);
  FuncState callee;
  callee.frame_no = static_cast<u32>(state.frames.size());
  callee.callsite = pc + 1;
  callee.subprog_start = target;
  for (u8 regno = R1; regno <= R5; ++regno) {
    callee.regs[regno] = state.cur().regs[regno];
  }
  callee.regs[R10].type = RegType::kPtrToStack;
  callee.regs[R10].var_off = TnumConst(0);
  callee.regs[R10].umin = callee.regs[R10].umax = 0;
  callee.regs[R10].smin = callee.regs[R10].smax = 0;
  state.frames.push_back(std::move(callee));
  path_done = false;
  next_pc = target;
  return xbase::Status::Ok();
}

xbase::Status Verifier::CheckExit(VerifierState& state, u32 pc,
                                  bool& path_done, u32& next_pc) {
  FuncState& frame = state.cur();
  const RegState& r0 = frame.regs[R0];
  if (r0.type == RegType::kNotInit) {
    return Reject(pc, "R0 !read_ok");
  }

  if (state.frames.size() > 1) {
    // Return from a BPF-to-BPF call.
    const u32 callsite = frame.callsite;
    const RegState ret = r0;
    state.frames.pop_back();
    FuncState& caller = state.cur();
    caller.regs[R0] = ret;
    for (u8 regno = R1; regno <= R5; ++regno) {
      caller.regs[regno] = RegState{};
    }
    path_done = false;
    next_pc = callsite;
    return xbase::Status::Ok();
  }

  // Program exit proper.
  if (IsPointerType(r0.type) && !opts_.privileged &&
      !FaultOn(kFaultVerifierPtrLeak)) {
    return Reject(pc, "R0 leaks addr as return value");
  }
  const bool ref_checks =
      Feat(VFeature::kRefTracking) && !FaultOn(kFaultVerifierRefTracking);
  if (ref_checks && !state.acquired_refs.empty()) {
    return Reject(pc, StrFormat("Unreleased reference id=%u",
                                state.acquired_refs.front()));
  }
  const bool lock_checks =
      Feat(VFeature::kSpinLockTracking) && !FaultOn(kFaultVerifierSpinLock);
  if (lock_checks && state.active_spin_lock_id != 0) {
    return Reject(pc, "bpf_spin_lock is not released on exit");
  }
  path_done = true;
  next_pc = 0;
  return xbase::Status::Ok();
}

// ---- branches --------------------------------------------------------------------------

void Verifier::RefineScalar(RegState& reg, u8 jmp_op, u64 imm,
                            bool branch_taken, bool is32) {
  if (reg.type != RegType::kScalar) {
    return;
  }
  // 32-bit compares refine 64-bit state only when the upper bits are known
  // zero — unless the jmp32-bounds defect is injected, which applies the
  // (unsound) 64-bit refinement unconditionally: the commit 3844d153 bug.
  if (is32 && !FaultOn(kFaultVerifierJmp32Bounds)) {
    const bool upper_known_zero =
        (reg.var_off.mask >> 32) == 0 && (reg.var_off.value >> 32) == 0;
    if (!upper_known_zero) {
      return;  // sound: nothing to conclude about the 64-bit value
    }
    // Signed 32-bit compares additionally need bit 31 known zero (and a
    // non-negative immediate): otherwise the s32 view the branch tested
    // disagrees with the s64 bounds tracked here, and refining them
    // manufactures bounds the runtime value escapes.
    if (jmp_op == BPF_JSGT || jmp_op == BPF_JSGE || jmp_op == BPF_JSLT ||
        jmp_op == BPF_JSLE) {
      const bool bit31_known_zero =
          ((reg.var_off.mask | reg.var_off.value) & 0x80000000u) == 0;
      if (!bit31_known_zero || static_cast<s32>(imm) < 0) {
        return;
      }
    }
  }
  // Equality against a 32-bit immediate pins the *zero-extended* 64-bit
  // value (the upper-known-zero guard above already ran); sign-extending
  // here would claim a negative s64 for a value that is provably positive.
  const s64 simm = is32 ? ((jmp_op == BPF_JEQ || jmp_op == BPF_JNE)
                               ? static_cast<s64>(imm)
                               : static_cast<s64>(static_cast<s32>(imm)))
                        : static_cast<s64>(imm);

  switch (jmp_op) {
    case BPF_JEQ:
    case BPF_JNE:
      // JEQ-taken and JNE-fallthrough both pin the register to `imm`.
      if (branch_taken == (jmp_op == BPF_JEQ)) {
        if (((reg.var_off.value ^ imm) & ~reg.var_off.mask) != 0) {
          // The pinned value contradicts a known bit: this edge is
          // infeasible. TnumIntersect would silently produce garbage
          // here, so express the contradiction as an empty interval for
          // the caller's feasibility check instead.
          reg.umin = 1;
          reg.umax = 0;
          return;
        }
        reg.var_off = TnumIntersect(reg.var_off, TnumConst(imm));
        reg.umin = std::max(reg.umin, imm);
        reg.umax = std::min(reg.umax, imm);
        reg.smin = std::max(reg.smin, simm);
        reg.smax = std::min(reg.smax, simm);
      }
      break;
    case BPF_JGT:
      if (branch_taken) {
        reg.umin = std::max(reg.umin, imm + 1);
      } else if (FaultOn(kFaultVerifierJgtOffByOne) && imm > 0) {
        // Buggy: the fall-through edge proves dst <= imm, but this claims
        // dst <= imm - 1 — one admitted value short (Table-1 bounds class).
        reg.umax = std::min(reg.umax, imm - 1);
      } else {
        reg.umax = std::min(reg.umax, imm);
      }
      break;
    case BPF_JGE:
      if (branch_taken) {
        reg.umin = std::max(reg.umin, imm);
      } else if (imm > 0) {
        reg.umax = std::min(reg.umax, imm - 1);
      }
      break;
    case BPF_JLT:
      if (branch_taken) {
        if (imm > 0) {
          reg.umax = std::min(reg.umax, imm - 1);
        }
      } else {
        reg.umin = std::max(reg.umin, imm);
      }
      break;
    case BPF_JLE:
      if (branch_taken) {
        reg.umax = std::min(reg.umax, imm);
      } else {
        reg.umin = std::max(reg.umin, imm + 1);
      }
      break;
    // Strict signed bounds shift by one; at INT64_MIN/INT64_MAX the shift
    // would overflow, and the edge it guards is infeasible anyway (nothing
    // is below INT64_MIN or above INT64_MAX), so the bound stays as it is.
    case BPF_JSGT:
      if (!branch_taken) {
        reg.smax = std::min(reg.smax, simm);
      } else if (simm != kS64Max) {
        reg.smin = std::max(reg.smin, simm + 1);
      }
      break;
    case BPF_JSGE:
      if (branch_taken) {
        reg.smin = std::max(reg.smin, simm);
      } else if (simm != kS64Min) {
        reg.smax = std::min(reg.smax, simm - 1);
      }
      break;
    case BPF_JSLT:
      if (!branch_taken) {
        reg.smin = std::max(reg.smin, simm);
      } else if (simm != kS64Min) {
        reg.smax = std::min(reg.smax, simm - 1);
      }
      break;
    case BPF_JSLE:
      if (branch_taken) {
        reg.smax = std::min(reg.smax, simm);
      } else if (simm != kS64Max) {
        reg.smin = std::max(reg.smin, simm + 1);
      }
      break;
    case BPF_JSET:
      if (!branch_taken) {
        // All tested bits are zero.
        reg.var_off.value &= ~imm;
        reg.var_off.mask &= ~imm;
      }
      break;
  }
  reg.SyncBounds();
}

// Mutual endpoint refinement for a 64-bit reg-reg compare: each side's
// interval endpoints bound the other (the reg_set_min_max two-register
// path). Only intervals move — tnums are left alone, and missed
// infeasibility is harmless (the edge is explored with sound bounds).
// Strict compares shift by one; the shift is skipped at the domain edge
// where +1/-1 would wrap, which merely keeps the weaker sound bound.
void Verifier::RefineRegReg(RegState& dst, RegState& src, u8 jmp_op,
                            bool branch_taken) {
  if (dst.type != RegType::kScalar || src.type != RegType::kScalar) {
    return;
  }
  // Normalize to the relation the edge proves: JGT/fall == JLE/taken etc.
  u8 op = jmp_op;
  if (!branch_taken) {
    switch (jmp_op) {
      case BPF_JEQ:  op = BPF_JNE;  break;
      case BPF_JNE:  op = BPF_JEQ;  break;
      case BPF_JGT:  op = BPF_JLE;  break;
      case BPF_JGE:  op = BPF_JLT;  break;
      case BPF_JLT:  op = BPF_JGE;  break;
      case BPF_JLE:  op = BPF_JGT;  break;
      case BPF_JSGT: op = BPF_JSLE; break;
      case BPF_JSGE: op = BPF_JSLT; break;
      case BPF_JSLT: op = BPF_JSGE; break;
      case BPF_JSLE: op = BPF_JSGT; break;
      default:
        return;  // JSET and friends: nothing relational to conclude
    }
  }
  // Injected defect: the bounded side of a strict less-than tightens one
  // value too far (dst < src claims dst <= src.umax - 2), the LT/LE range
  // markings class — a runtime value the refinement excluded still reaches
  // the guarded access.
  const u64 lt_slack = FaultOn(kFaultVerifierRegRegOffByOne) ? 2 : 1;
  switch (op) {
    case BPF_JEQ:
      dst.umin = src.umin = std::max(dst.umin, src.umin);
      dst.umax = src.umax = std::min(dst.umax, src.umax);
      dst.smin = src.smin = std::max(dst.smin, src.smin);
      dst.smax = src.smax = std::min(dst.smax, src.smax);
      break;
    case BPF_JNE:
      return;  // disequality refines nothing interval-wise
    case BPF_JGT:  // dst > src
      if (src.umin < kU64Max) {
        dst.umin = std::max(dst.umin, src.umin + 1);
      }
      if (dst.umax > 0) {
        src.umax = std::min(src.umax, dst.umax - lt_slack);
      }
      break;
    case BPF_JGE:  // dst >= src
      dst.umin = std::max(dst.umin, src.umin);
      src.umax = std::min(src.umax, dst.umax);
      break;
    case BPF_JLT:  // dst < src
      if (src.umax > 0) {
        dst.umax = std::min(dst.umax, src.umax - lt_slack);
      }
      if (dst.umin < kU64Max) {
        src.umin = std::max(src.umin, dst.umin + 1);
      }
      break;
    case BPF_JLE:  // dst <= src
      dst.umax = std::min(dst.umax, src.umax);
      src.umin = std::max(src.umin, dst.umin);
      break;
    case BPF_JSGT:  // dst >s src
      if (src.smin < kS64Max) {
        dst.smin = std::max(dst.smin, src.smin + 1);
      }
      if (dst.smax > kS64Min) {
        src.smax = std::min(src.smax, dst.smax - 1);
      }
      break;
    case BPF_JSGE:  // dst >=s src
      dst.smin = std::max(dst.smin, src.smin);
      src.smax = std::min(src.smax, dst.smax);
      break;
    case BPF_JSLT:  // dst <s src
      if (src.smax > kS64Min) {
        dst.smax = std::min(dst.smax, src.smax - 1);
      }
      if (dst.smin < kS64Max) {
        src.smin = std::max(src.smin, dst.smin + 1);
      }
      break;
    case BPF_JSLE:  // dst <=s src
      dst.smax = std::min(dst.smax, src.smax);
      src.smin = std::max(src.smin, dst.smin);
      break;
    default:
      return;
  }
  dst.SyncBounds();
  src.SyncBounds();
}

void Verifier::MarkPtrOrNull(VerifierState& state, u32 id, bool is_null) {
  for (FuncState& frame : state.frames) {
    for (RegState& reg : frame.regs) {
      if (IsOrNullType(reg.type) && reg.id == id) {
        if (is_null) {
          const u32 ref = reg.ref_obj_id;
          reg.MarkConst(0);
          if (ref != 0) {
            // NULL means the acquire failed: nothing to release.
            state.acquired_refs.erase(
                std::remove(state.acquired_refs.begin(),
                            state.acquired_refs.end(), ref),
                state.acquired_refs.end());
          }
        } else {
          reg.type = UnwrapOrNull(reg.type);
        }
      }
    }
  }
}

void Verifier::FindGoodPktPointers(FuncState& frame, u32 pkt_id, u32 range) {
  for (RegState& reg : frame.regs) {
    if (reg.type == RegType::kPtrToPacket && reg.id == pkt_id) {
      reg.pkt_range = std::max(reg.pkt_range, range);
    }
  }
  for (StackSlot& slot : frame.stack) {
    if (slot.kind == SlotKind::kSpill &&
        slot.spilled.type == RegType::kPtrToPacket &&
        slot.spilled.id == pkt_id) {
      slot.spilled.pkt_range = std::max(slot.spilled.pkt_range, range);
    }
  }
}

VerifierState Verifier::ApplyCondBranch(VerifierState& state, const Insn& insn,
                                        bool& taken_possible,
                                        bool& fall_possible) {
  taken_possible = true;
  fall_possible = true;

  const u8 op = insn.JmpOp();
  const bool is32 = insn.Class() == BPF_JMP32;
  // Copies: refining the fall-through edge rewrites these registers.
  const RegState dst = state.cur().regs[insn.dst];
  const RegState src = insn.UsesRegSrc() ? state.cur().regs[insn.src]
                                         : RegState{};

  // Pointer-or-null refinement: `if rX == 0` / `if rX != 0`.
  if (!insn.UsesRegSrc() && insn.imm == 0 && IsOrNullType(dst.type) &&
      (op == BPF_JEQ || op == BPF_JNE)) {
    const bool eq_branch_null = op == BPF_JEQ;
    VerifierState taken = state;
    MarkPtrOrNull(taken, dst.id, eq_branch_null);
    MarkPtrOrNull(state, dst.id, !eq_branch_null);
    return taken;
  }

  // Packet range discovery: compare a packet cursor against pkt_end.
  if (insn.UsesRegSrc() && Feat(VFeature::kDirectPacketAccess)) {
    if (dst.type == RegType::kPtrToPacket &&
        src.type == RegType::kPtrToPacketEnd && dst.var_off.IsConst()) {
      const u32 range = static_cast<u32>(
          std::max<s64>(0, dst.off + static_cast<s64>(dst.var_off.value)));
      VerifierState taken = state;
      if (op == BPF_JGT || op == BPF_JGE) {
        // if (cursor > end) goto X: fallthrough proves `range` bytes.
        FindGoodPktPointers(state.cur(), dst.id, range);
      } else if (op == BPF_JLE || op == BPF_JLT) {
        // if (cursor <= end) goto X: taken branch proves `range` bytes.
        FindGoodPktPointers(taken.cur(), dst.id, range);
      }
      return taken;
    }
  }

  if (dst.type != RegType::kScalar) {
    return state;  // other pointer compares: no refinement
  }

  // A scalar compare refines only the compared registers. The fall-through
  // edge refines them in place; the taken edge refines copies, which go
  // into a copy of the state below only if that edge is feasible.
  RegState taken_dst = dst;
  RegState taken_src = src;
  RegState& fall_dst = state.cur().regs[insn.dst];
  const auto infeasible = [](const RegState& r) {
    return r.umin > r.umax || r.smin > r.smax;
  };

  if (!insn.UsesRegSrc()) {
    // Constant folding: prune statically impossible branches.
    const u64 imm = is32 ? static_cast<u64>(static_cast<u32>(insn.imm))
                         : static_cast<u64>(static_cast<s64>(insn.imm));
    RefineScalar(taken_dst, op, imm, true, is32);
    RefineScalar(fall_dst, op, imm, false, is32);
    if (infeasible(taken_dst)) {
      taken_possible = false;
    }
    if (infeasible(fall_dst)) {
      fall_possible = false;
    }
    // Fully-known comparisons settle the branch.
    if (dst.IsConst() && !is32) {
      const u64 value = dst.var_off.value;
      const s64 svalue = static_cast<s64>(value);
      const s64 simm = static_cast<s64>(insn.imm);
      std::optional<bool> result;
      switch (op) {
        case BPF_JEQ:
          result = value == imm;
          break;
        case BPF_JNE:
          result = value != imm;
          break;
        case BPF_JGT:
          result = value > imm;
          break;
        case BPF_JGE:
          result = value >= imm;
          break;
        case BPF_JLT:
          result = value < imm;
          break;
        case BPF_JLE:
          result = value <= imm;
          break;
        case BPF_JSGT:
          result = svalue > simm;
          break;
        case BPF_JSGE:
          result = svalue >= simm;
          break;
        case BPF_JSLT:
          result = svalue < simm;
          break;
        case BPF_JSLE:
          result = svalue <= simm;
          break;
        case BPF_JSET:
          result = (value & imm) != 0;
          break;
      }
      if (result.has_value()) {
        taken_possible = *result;
        fall_possible = !*result;
      }
    }
  } else if (src.type == RegType::kScalar && !is32) {
    // Register comparand. A constant src keeps the full RefineScalar path
    // (tnum intersection on JEQ, JSET bit knowledge); a genuinely unknown
    // scalar src gets mutual endpoint refinement on both edges — `if r7 <
    // r8` with r8 <= 8 proves r7 <= 7 on the taken edge, and bounds r8
    // from r7 symmetrically. 32-bit reg-reg compares stay conservative:
    // the u32 views compared at runtime say nothing about the tracked
    // 64-bit bounds.
    if (src.IsConst()) {
      RefineScalar(taken_dst, op, src.var_off.value, true, false);
      RefineScalar(fall_dst, op, src.var_off.value, false, false);
      if (infeasible(taken_dst)) {
        taken_possible = false;
      }
      if (infeasible(fall_dst)) {
        fall_possible = false;
      }
    } else {
      // `if rX op rX` refines its one register from both sides.
      RegState& taken_src_reg =
          insn.src == insn.dst ? taken_dst : taken_src;
      RegState& fall_src = state.cur().regs[insn.src];
      RefineRegReg(taken_dst, taken_src_reg, op, true);
      RefineRegReg(fall_dst, fall_src, op, false);
      if (infeasible(taken_dst) || infeasible(taken_src_reg)) {
        taken_possible = false;
      }
      if (infeasible(fall_dst) || infeasible(fall_src)) {
        fall_possible = false;
      }
    }
  }

  if (!taken_possible) {
    return VerifierState{};
  }
  VerifierState taken = state;
  taken.cur().regs[insn.dst] = taken_dst;
  if (insn.UsesRegSrc() && insn.src != insn.dst) {
    taken.cur().regs[insn.src] = taken_src;
  }
  return taken;
}

// ---- pruning ---------------------------------------------------------------------------

// Forced inline: the pruning scan runs it for every stored state at a
// pruning point, and as a call it costs more than the check itself.
[[gnu::always_inline]] inline bool Verifier::RegSafe(const RegState& old_reg,
                                                     const RegState& new_reg)
    const {
  if (old_reg.type == RegType::kNotInit) {
    return true;  // the old path proved safe without reading it
  }
  if (old_reg.type != new_reg.type) {
    return false;
  }
  switch (old_reg.type) {
    case RegType::kScalar:
      return old_reg.umin <= new_reg.umin && old_reg.umax >= new_reg.umax &&
             old_reg.smin <= new_reg.smin && old_reg.smax >= new_reg.smax &&
             TnumIn(old_reg.var_off, new_reg.var_off);
    case RegType::kPtrToPacket:
      return old_reg.off == new_reg.off &&
             old_reg.pkt_range <= new_reg.pkt_range &&
             old_reg.umax >= new_reg.umax;
    default:
      return old_reg.off == new_reg.off &&
             old_reg.map_fd == new_reg.map_fd &&
             old_reg.mem_size == new_reg.mem_size &&
             (old_reg.ref_obj_id == 0) == (new_reg.ref_obj_id == 0);
  }
}

bool Verifier::StatesEqual(const VerifierState& old_state,
                           const VerifierState& new_state) const {
  const auto regs_safe = [this](const FuncState& of, const FuncState& nf) {
    for (int r = 0; r < kNumRegs; ++r) {
      if (!RegSafe(of.regs[r], nf.regs[r])) {
        return false;
      }
    }
    return true;
  };
  // The pruning scan runs this for every stored state at a pruning point,
  // and a stored state almost always differs from the new one in a
  // register of the outermost frame, which every state has: that
  // rejection goes first.
  if (!regs_safe(old_state.frames.front(), new_state.frames.front())) {
    return false;
  }
  if (old_state.frames.size() != new_state.frames.size()) {
    return false;
  }
  if (old_state.active_spin_lock_id != new_state.active_spin_lock_id) {
    return false;
  }
  if (old_state.acquired_refs.size() != new_state.acquired_refs.size()) {
    return false;
  }
  for (usize i = 0; i < old_state.frames.size(); ++i) {
    const FuncState& of = old_state.frames[i];
    const FuncState& nf = new_state.frames[i];
    if (of.callsite != nf.callsite || (i > 0 && !regs_safe(of, nf))) {
      return false;
    }
    for (usize s = 0; s < of.stack.size(); ++s) {
      const StackSlot& os = of.stack[s];
      if (os.kind == SlotKind::kInvalid) {
        continue;
      }
      if (s >= nf.stack.size()) {
        return false;  // the new state's slot reads as kInvalid
      }
      const StackSlot& ns = nf.stack[s];
      if (os.kind == SlotKind::kMisc) {
        if (ns.kind == SlotKind::kInvalid) {
          return false;
        }
        continue;
      }
      if (os.kind != ns.kind || !RegSafe(os.spilled, ns.spilled)) {
        return false;
      }
    }
  }
  return true;
}

// ---- main loop -------------------------------------------------------------------------

xbase::Status Verifier::Step(VerifierState& state, u32 pc, bool& path_done,
                             u32& next_pc) {
  if (pc >= prog_.len()) {
    return Reject(pc, "fell off the end of the program");
  }
  const Insn& insn = prog_.insns[pc];
  path_done = false;
  next_pc = pc + 1;

  switch (insn.Class()) {
    case BPF_ALU:
    case BPF_ALU64:
      return CheckAlu(state, insn, pc);
    case BPF_LD: {
      if (!insn.IsLdImm64()) {
        return Reject(pc, "legacy BPF_LD_ABS is not supported");
      }
      FuncState& frame = state.cur();
      if (insn.dst >= R10) {
        return Reject(pc, "frame pointer is read only");
      }
      RegState& dst = frame.regs[insn.dst];
      if (insn.src == BPF_PSEUDO_MAP_FD) {
        auto map = maps_.Find(insn.imm);
        if (!map.ok()) {
          return Reject(pc, StrFormat("fd %d is not pointing to a valid "
                                      "bpf_map",
                                      insn.imm));
        }
        dst = RegState{};
        dst.type = RegType::kConstPtrToMap;
        dst.map_fd = insn.imm;
      } else if (insn.src == BPF_PSEUDO_FUNC) {
        dst = RegState{};
        dst.type = RegType::kPtrToFunc;
        dst.mem_size = static_cast<u32>(insn.imm);  // callback entry pc
      } else {
        const u64 value =
            (static_cast<u64>(static_cast<u32>(prog_.insns[pc + 1].imm))
             << 32) |
            static_cast<u32>(insn.imm);
        dst.MarkConst(value);
      }
      next_pc = pc + 2;
      return xbase::Status::Ok();
    }
    case BPF_LDX:
    case BPF_ST:
    case BPF_STX:
      return CheckMemInsn(state, insn, pc);
    case BPF_JMP:
    case BPF_JMP32: {
      if (insn.Class() == BPF_JMP32 && !Feat(VFeature::k32BitBounds)) {
        return Reject(pc, "JMP32 is not supported before v5.1");
      }
      const u8 op = insn.JmpOp();
      if (op == BPF_CALL) {
        return CheckCall(state, insn, pc, path_done, next_pc);
      }
      if (op == BPF_EXIT) {
        return CheckExit(state, pc, path_done, next_pc);
      }
      if (op == BPF_JA) {
        next_pc = static_cast<u32>(static_cast<s64>(pc) + 1 + insn.off);
        return xbase::Status::Ok();
      }
      // Conditional branch.
      const RegState& dst = state.cur().regs[insn.dst];
      if (dst.type == RegType::kNotInit) {
        return Reject(pc, StrFormat("R%d !read_ok", insn.dst));
      }
      if (insn.UsesRegSrc() &&
          state.cur().regs[insn.src].type == RegType::kNotInit) {
        return Reject(pc, StrFormat("R%d !read_ok", insn.src));
      }
      bool taken_possible = false, fall_possible = false;
      VerifierState taken =
          ApplyCondBranch(state, insn, taken_possible, fall_possible);
      const u32 target =
          static_cast<u32>(static_cast<s64>(pc) + 1 + insn.off);
      if (taken_possible) {
        if (worklist_.size() >= kMaxPendingStates) {
          return xbase::Rejected("too many pending branch states "
                                 "(verifier memory limit)");
        }
        worklist_.push_back(Pending{target, std::move(taken)});
        ++stats_.states_explored;
      }
      if (!fall_possible) {
        path_done = true;
      }
      return xbase::Status::Ok();
    }
  }
  return Reject(pc, "unknown instruction class");
}

xbase::Status Verifier::VerifyEntry(u32 entry_pc, VerifierState state) {
  if (worklist_.size() >= kMaxPendingStates) {
    return xbase::Rejected("too many pending branch states");
  }
  worklist_.push_back(Pending{entry_pc, std::move(state)});
  ++stats_.states_explored;
  return ExplorePaths();
}

xbase::Status Verifier::ExplorePaths() {
  while (!worklist_.empty()) {
    stats_.peak_states = std::max<u64>(
        stats_.peak_states, worklist_.size());
    Pending pending = std::move(worklist_.back());
    worklist_.pop_back();
    u32 pc = pending.pc;
    VerifierState state = std::move(pending.state);
    const u64 path_id = ++path_counter_;

    bool path_done = false;
    while (!path_done) {
      // Pruning at join points.
      if (pc < prune_row_.size() && prune_row_[pc] != kNotPrunePoint) {
        auto& stored = explored_[prune_row_[pc]];
        bool pruned = false;
        for (const StoredState& old_state : stored) {
          if (StatesEqual(old_state.state, state)) {
            if (old_state.path_id == path_id) {
              // We walked back into a state recorded on the *current*
              // path with nothing changed: the program can loop forever
              // (the kernel's "infinite loop detected").
              return Reject(pc, "infinite loop detected");
            }
            if (opts_.disable_pruning) {
              continue;  // ablation: re-explore everything
            }
            ++stats_.states_pruned;
            pruned = true;
            break;
          }
        }
        if (pruned) {
          break;
        }
        if (stored.size() < kMaxStoredStatesPerPc) {
          stored.push_back(StoredState{state, path_id});
          if (opts_.faults != nullptr &&
              opts_.faults->IsActive(kFaultVerifierStateLeak)) {
            // Injected defect: duplicate bookkeeping entry that is never
            // reclaimed — visible as monotonically growing state memory.
            stored.push_back(StoredState{state, path_id});
            ++stats_.states_leaked;
          }
        }
      }

      ++stats_.insns_processed;
      if (stats_.insns_processed > insn_budget_) {
        return xbase::Rejected(StrFormat(
            "BPF program is too large. Processed %llu insn "
            "(budget %u at %s)",
            static_cast<unsigned long long>(stats_.insns_processed),
            insn_budget_, opts_.version.ToString().c_str()));
      }

      RecordRangeTrace(state, pc);
      u32 next_pc = pc;
      XB_RETURN_IF_ERROR(Step(state, pc, path_done, next_pc));
      pc = next_pc;
    }
  }
  return xbase::Status::Ok();
}

// Joins the current frame's registers into the per-pc claims. Recording
// the *active* frame matches the concrete interpreter, whose tracer also
// reports the executing frame's registers at each global pc.
void Verifier::RecordRangeTrace(const VerifierState& state, u32 pc) {
  if (opts_.range_trace == nullptr ||
      pc >= opts_.range_trace->per_pc.size()) {
    return;
  }
  std::array<RegClaim, kNumRegs>& claims = opts_.range_trace->per_pc[pc];
  const FuncState& frame = state.frames.back();
  for (int r = 0; r < kNumRegs; ++r) {
    const RegState& reg = frame.regs[r];
    if (reg.type == RegType::kScalar) {
      claims[static_cast<xbase::usize>(r)].JoinScalar(
          reg.umin, reg.umax, reg.smin, reg.smax, reg.var_off.value,
          reg.var_off.mask);
    } else {
      claims[static_cast<xbase::usize>(r)].JoinOther();
    }
  }
  // Relational claims: the interval-implied difference bound smax_i -
  // smin_j for every ordered scalar pair, path-joined so the per-pc claim
  // over-approximates every path through this instruction.
  if (pc < opts_.range_trace->rel_per_pc.size()) {
    std::array<s64, kRelRegs * kRelRegs> path;
    path.fill(kRelInf);
    for (int i = 0; i < kRelRegs; ++i) {
      const RegState& ri = frame.regs[i];
      if (ri.type != RegType::kScalar) {
        continue;
      }
      for (int j = 0; j < kRelRegs; ++j) {
        if (i == j) {
          continue;
        }
        const RegState& rj = frame.regs[j];
        if (rj.type != RegType::kScalar) {
          continue;
        }
        const __int128 bound =
            static_cast<__int128>(ri.smax) - static_cast<__int128>(rj.smin);
        if (bound < static_cast<__int128>(kRelInf)) {
          path[static_cast<xbase::usize>(i * kRelRegs + j)] =
              static_cast<s64>(bound);
        }
      }
    }
    opts_.range_trace->rel_per_pc[pc].JoinPath(path);
  }
}

xbase::Result<VerifyResult> Verifier::Run() {
  const auto start = std::chrono::steady_clock::now();
  insn_budget_ = InsnBudgetAtVersion(opts_.version);
  stats_.prog_len = prog_.len();
  if (opts_.range_trace != nullptr) {
    opts_.range_trace->Reset(prog_.len());
  }

  XB_RETURN_IF_ERROR(CheckCfg());

  VerifierState init;
  init.frames.emplace_back();
  FuncState& frame = init.frames.back();
  frame.regs[R1] = RegState{};
  frame.regs[R1].type = RegType::kPtrToCtx;
  frame.regs[R1].var_off = TnumConst(0);
  frame.regs[R1].umin = frame.regs[R1].umax = 0;
  frame.regs[R1].smin = frame.regs[R1].smax = 0;
  frame.regs[R10].type = RegType::kPtrToStack;
  frame.regs[R10].var_off = TnumConst(0);
  frame.regs[R10].umin = frame.regs[R10].umax = 0;
  frame.regs[R10].smin = frame.regs[R10].smax = 0;

  XB_RETURN_IF_ERROR(VerifyEntry(0, std::move(init)));

  stats_.subprog_count = 1 + static_cast<u32>(subprog_starts_.size());
  stats_.verification_wall_ns = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  VerifyResult result;
  result.stats = stats_;
  result.subprog_starts = subprog_starts_;
  result.callback_entries.assign(verified_callbacks_.begin(),
                                 verified_callbacks_.end());
  return result;
}

}  // namespace

xbase::Result<VerifyResult> Verify(const Program& prog, const MapTable& maps,
                                   const HelperRegistry& helpers,
                                   const VerifyOptions& options) {
  Verifier verifier(prog, maps, helpers, options);
  return verifier.Run();
}

}  // namespace ebpf
