#include "src/staticcheck/dataflow.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <utility>

#include "src/simkern/lsm.h"
#include "src/simkern/net.h"
#include "src/simkern/sched.h"
#include "src/xbase/strfmt.h"

namespace staticcheck {

namespace {

using ebpf::Insn;
using xbase::s32;
using xbase::StrFormat;

constexpr s64 kWideMin = std::numeric_limits<s64>::min() / 4;
constexpr s64 kWideMax = std::numeric_limits<s64>::max() / 4;
constexpr u32 kMergeWidenThreshold = 16;
constexpr s64 kStackBytes = static_cast<s64>(ebpf::kMaxStackBytes);

// Lineage tag of live packet pointers. A single flag (rather than per-load
// ids) suffices: simkern exposes one packet per invocation, so every load
// of data/data_end between two packet-mutating helper calls sees the same
// base. Helpers with changes_packet_data clear the tag (id = 0), after
// which the pointer's proven range never grows again and any dereference
// is flagged. Far outside the pc+1 id space used for null refinement.
constexpr u32 kPacketLiveId = 0xffffffffu;

AbsVal TopVal() {
  AbsVal val;
  val.kind = VK::kTop;
  return val;
}

AbsVal ConstVal(u64 value) {
  AbsVal val;
  val.kind = VK::kConst;
  val.cval = value;
  val.rng = RangeVal::Const(value);
  return val;
}

bool IsScalarKind(VK kind) { return kind == VK::kTop || kind == VK::kConst; }

// Context block size per program type, mirroring the simkern layouts the
// runtime maps (staticcheck derives this independently — it must not
// include the verifier it cross-checks).
s64 CtxBytesFor(ebpf::ProgType type) {
  switch (type) {
    case ebpf::ProgType::kXdp:
    case ebpf::ProgType::kSocketFilter:
    case ebpf::ProgType::kCgroupSkb:
      return static_cast<s64>(simkern::SkBuffLayout::kSize);
    case ebpf::ProgType::kSchedExt:
      return static_cast<s64>(simkern::SchedCtxLayout::kSize);
    case ebpf::ProgType::kLsm:
      return static_cast<s64>(simkern::LsmCtxLayout::kSize);
    case ebpf::ProgType::kKprobe:
    case ebpf::ProgType::kTracepoint:
    case ebpf::ProgType::kPerfEvent:
    case ebpf::ProgType::kSyscall:
      return 64;
  }
  return 0;
}

// The range claim of a scalar abstract value (Unknown for anything else,
// so callers stay sound without checking kinds twice).
RangeVal RngOf(const AbsVal& v) {
  if (v.kind == VK::kConst) {
    return RangeVal::Const(v.cval);
  }
  if (v.kind == VK::kTop) {
    return v.rng;
  }
  return RangeVal::Unknown();
}

// Installs a (refined) range into a scalar value, upgrading to kConst when
// the range pins a single value.
void SetScalarRng(AbsVal& reg, const RangeVal& rng) {
  if (reg.kind == VK::kConst) {
    return;  // already width zero; refinement cannot narrow further
  }
  if (rng.IsConst()) {
    reg = ConstVal(rng.umin);
    return;
  }
  if (reg.kind == VK::kTop) {
    reg.rng = rng;
  }
}

// Join of two abstract values (least upper bound, approximately).
AbsVal MergeVal(const AbsVal& a, const AbsVal& b) {
  if (a == b) {
    return a;
  }
  if (a.kind == VK::kUninit || b.kind == VK::kUninit) {
    // "maybe uninitialized" degrades to kTop: only *definitely*
    // uninitialized reads are reported, which keeps the lint quiet on
    // programs the verifier accepts path-sensitively.
    return TopVal();
  }
  // NULL-refined branches rejoining their pointer: keep the pointer, set
  // the maybe-NULL bit again.
  const auto null_merge = [](const AbsVal& ptr) -> AbsVal {
    AbsVal out = ptr;
    out.or_null = true;
    return out;
  };
  if (IsPointerKind(a.kind) && b.kind == VK::kConst && b.cval == 0) {
    return null_merge(a);
  }
  if (IsPointerKind(b.kind) && a.kind == VK::kConst && a.cval == 0) {
    return null_merge(b);
  }
  // Scalars (known-constant or not) keep a joined numeric range instead of
  // degrading to a bare kTop.
  if (IsScalarKind(a.kind) && IsScalarKind(b.kind)) {
    AbsVal out = TopVal();
    out.rng = RangeJoin(RngOf(a), RngOf(b));
    if (out.rng.IsConst()) {
      out = ConstVal(out.rng.umin);
    }
    return out;
  }
  if (a.kind != b.kind) {
    return TopVal();
  }
  AbsVal out = a;
  out.or_null = a.or_null || b.or_null;
  out.var_off = a.var_off || b.var_off;
  out.off_min = std::min(a.off_min, b.off_min);
  out.off_max = std::max(a.off_max, b.off_max);
  if (a.map_fd != b.map_fd) {
    // Pointer into one of several maps: bounds can no longer be checked.
    out.map_fd = -1;
    out.var_off = true;
  }
  if (a.mem_size != b.mem_size) {
    // For packet pointers mem_size is the *proven* readable range, so the
    // join is the smaller proof, not a giveup.
    out.mem_size =
        a.kind == VK::kPacket ? std::min(a.mem_size, b.mem_size) : 0;
  }
  if (a.id != b.id) {
    out.id = 0;
  }
  return out;
}

// Widening of one merged value against its previous fixpoint candidate:
// anything still changing jumps to the lattice top of its component so
// loops converge. Shared between registers and spilled slot values.
void WidenVal(AbsVal& out, const AbsVal& prev) {
  if (IsPointerKind(out.kind) &&
      (out.off_min != prev.off_min || out.off_max != prev.off_max)) {
    out.off_min = kWideMin;
    out.off_max = kWideMax;
    out.var_off = true;
  }
  if (out.kind == VK::kConst && !(out == prev)) {
    out = TopVal();
  }
  // Ranges form infinite ascending chains; a still-growing range at a
  // widening point jumps straight to Unknown.
  if (out.kind == VK::kTop && !(RngOf(out) == RngOf(prev))) {
    out.rng = RangeVal::Unknown();
  }
}

// Join of two whole states; `widen` forces offset ranges open so loops
// converge.
DfState MergeState(const DfState& a, const DfState& b, bool widen) {
  DfState out;
  out.valid = true;
  // Dead only while *every* incoming edge is range-infeasible.
  out.range_dead = a.range_dead && b.range_dead;
  for (int i = 0; i < ebpf::kNumRegs; ++i) {
    out.regs[i] = MergeVal(a.regs[i], b.regs[i]);
    if (widen) {
      WidenVal(out.regs[i], a.regs[i]);
    }
  }
  // A byte is initialized only where both sides say so, so the shorter
  // side bounds the result; a slot is non-empty where either side is.
  out.stack_init.resize(std::min(a.stack_init.size(), b.stack_init.size()));
  for (xbase::usize i = 0; i < out.stack_init.size(); ++i) {
    out.stack_init[i] =
        static_cast<u8>(a.stack_init[i] != 0 && b.stack_init[i] != 0);
  }
  out.stack.slots.resize(
      std::max(a.stack.slots.size(), b.stack.slots.size()));
  for (int i = 0; i < static_cast<int>(out.stack.slots.size()); ++i) {
    const StackSlot& sa = a.stack.At(i);
    const StackSlot& sb = b.stack.At(i);
    StackSlot& so = out.stack.slots[static_cast<xbase::usize>(i)];
    if (sa.kind == SlotKind::kEmpty && sb.kind == SlotKind::kEmpty) {
      so = StackSlot{};
    } else if (sa.kind == SlotKind::kSpill && sb.kind == SlotKind::kSpill) {
      so.kind = SlotKind::kSpill;
      so.val = MergeVal(sa.val, sb.val);
      if (widen) {
        WidenVal(so.val, sa.val);
      }
    } else {
      // A slot spilled on only one incoming path (or scribbled on) holds
      // no trackable value.
      so = StackSlot{SlotKind::kMisc, AbsVal{}};
    }
  }
  out.zone = Zone::Join(a.zone, b.zone);
  if (widen) {
    out.zone = Zone::Widen(a.zone, out.zone);
  }
  // Union of obligations: a reference open on *some* path must still be
  // released on every path that reaches exit.
  out.refs = a.refs;
  for (const RefObligation& ref : b.refs) {
    const auto same_id = [&ref](const RefObligation& other) {
      return other.id == ref.id;
    };
    if (std::find_if(out.refs.begin(), out.refs.end(), same_id) ==
        out.refs.end()) {
      out.refs.push_back(ref);
    }
  }
  std::sort(out.refs.begin(), out.refs.end(),
            [](const RefObligation& x, const RefObligation& y) {
              return x.id < y.id;
            });
  return out;
}

// The pass engine: per-block input states + a deduplicating finding sink.
class Dataflow {
 public:
  Dataflow(const ebpf::Program& prog, const Cfg& cfg,
           const CheckOptions& opts, std::vector<Finding>& findings)
      : prog_(prog), cfg_(cfg), opts_(opts), findings_(findings) {}

  DataflowResult Run();

 private:
  void Report(Severity severity, u32 pc, std::string_view rule,
              std::string message) {
    if (!reported_.insert({std::string(rule), pc}).second) {
      return;
    }
    Finding finding;
    finding.pass = Pass::kDataflow;
    finding.severity = severity;
    finding.pc = pc;
    finding.rule = std::string(rule);
    finding.message = std::move(message);
    findings_.push_back(std::move(finding));
  }

  // Marks a register as consumed; reports a definite use-before-init.
  void Use(DfState& state, u8 regno, u32 pc) {
    AbsVal& reg = state.regs[regno];
    if (reg.kind == VK::kUninit) {
      Report(Severity::kError, pc, "use-before-init",
             StrFormat("R%d is read but never written on any path", regno));
      reg = TopVal();  // stop the cascade
    }
  }

  void WriteReg(DfState& state, u8 regno, AbsVal value, u32 pc) {
    if (regno == ebpf::R10) {
      Report(Severity::kError, pc, "r10-write",
             "the frame pointer R10 is read-only");
      return;
    }
    state.regs[regno] = std::move(value);
  }

  u32 MapValueSize(int map_fd) const {
    if (opts_.maps == nullptr || map_fd < 0) {
      return 0;
    }
    auto map = opts_.maps->Find(map_fd);
    return map.ok() ? map.value()->spec().value_size : 0;
  }

  u32 MapKeySize(int map_fd) const {
    if (opts_.maps == nullptr || map_fd < 0) {
      return 0;
    }
    auto map = opts_.maps->Find(map_fd);
    return map.ok() ? map.value()->spec().key_size : 0;
  }

  void CheckMemAccess(DfState& state, const AbsVal& base, s64 insn_off,
                      u32 size, bool is_write, u32 pc);
  bool CheckMemAccessImpl(DfState& state, const AbsVal& base, s64 insn_off,
                          u32 size, bool is_write, u32 pc);
  void MarkStackBytes(DfState& state, const AbsVal& base, s64 insn_off,
                      u32 size);
  void CheckStackInit(const DfState& state, const AbsVal& base, u32 size,
                      u32 pc, std::string_view what);
  void CheckNullArg(const AbsVal& reg, int argno,
                    const ebpf::HelperSpec& spec, u32 pc);
  void HelperCall(DfState& state, u32 pc, s32 helper_id);
  void TransferAlu(DfState& state, const Insn& insn, u32 pc);
  void Transfer(DfState& state, u32 pc);
  // Slot bookkeeping for a store through `base`; `spilled` is the stored
  // abstract value when the store could be a tracked full-slot spill
  // (register store, or an immediate store modeled as a constant).
  void StackStore(DfState& state, const AbsVal& base, s64 insn_off,
                  u32 size, const AbsVal* spilled);
  // Mirrors the instruction's effect into the zone domain. Reads the
  // pre-instruction state, so it must run before the value transfer.
  void ZoneTransfer(DfState& state, u32 pc);
  // Raises the proven readable range of every live packet pointer
  // (registers and spilled slots) to at least `range`.
  static void BumpPacketRange(DfState& state, u32 range);
  // Marks every packet pointer stale (helper rewrote the packet): the
  // proven range drops to zero and never grows again.
  static void InvalidatePackets(DfState& state);
  void CheckExit(const DfState& state, u32 pc);
  void Propagate(u32 block, DfState&& out);
  void RecordTrace();
  // Applies NULL refinement for `id`: on the null side the pointer becomes
  // the constant 0 and its acquire obligation disappears.
  static void RefineNull(DfState& state, u32 id, bool is_null);

  const ebpf::Program& prog_;
  const Cfg& cfg_;
  const CheckOptions& opts_;
  std::vector<Finding>& findings_;
  std::set<std::pair<std::string, u32>> reported_;
  std::vector<DfState> in_;
  std::vector<u32> merge_count_;
  std::deque<u32> worklist_;
  // True only while RecordTrace re-walks the fixpoint states; memory
  // claims are exported then, so every claim is judged at the converged
  // invariant rather than at some intermediate iterate.
  bool recording_ = false;
};

void Dataflow::RefineNull(DfState& state, u32 id, bool is_null) {
  if (id == 0) {
    return;
  }
  const auto refine = [id, is_null](AbsVal& val) {
    if (IsPointerKind(val.kind) && val.id == id) {
      if (is_null) {
        val = ConstVal(0);
      } else {
        val.or_null = false;
      }
    }
  };
  for (AbsVal& reg : state.regs) {
    refine(reg);
  }
  // The same pointer may sit spilled on the stack; a later fill must see
  // the refinement or the null check would be lost across the spill.
  for (StackSlot& slot : state.stack.slots) {
    if (slot.kind == SlotKind::kSpill) {
      refine(slot.val);
    }
  }
  if (is_null) {
    std::erase_if(state.refs, [id](const RefObligation& ref) {
      return ref.id == id;
    });
  }
}

void Dataflow::BumpPacketRange(DfState& state, u32 range) {
  const auto bump = [range](AbsVal& val) {
    if (val.kind == VK::kPacket && val.id == kPacketLiveId &&
        val.mem_size < range) {
      val.mem_size = range;
    }
  };
  for (AbsVal& reg : state.regs) {
    bump(reg);
  }
  for (StackSlot& slot : state.stack.slots) {
    if (slot.kind == SlotKind::kSpill) {
      bump(slot.val);
    }
  }
}

void Dataflow::InvalidatePackets(DfState& state) {
  const auto invalidate = [](AbsVal& val) {
    if (val.kind == VK::kPacket || val.kind == VK::kPacketEnd) {
      val.id = 0;
      val.mem_size = 0;
    }
  };
  for (AbsVal& reg : state.regs) {
    invalidate(reg);
  }
  for (StackSlot& slot : state.stack.slots) {
    if (slot.kind == SlotKind::kSpill) {
      invalidate(slot.val);
    }
  }
}

void Dataflow::MarkStackBytes(DfState& state, const AbsVal& base,
                              s64 insn_off, u32 size) {
  if (base.var_off || base.off_min != base.off_max) {
    return;  // imprecise writes mark nothing (under-approximation)
  }
  for (u32 i = 0; i < size; ++i) {
    const s64 off = base.off_min + insn_off + i;
    if (off >= -kStackBytes && off < 0) {
      const auto k = static_cast<xbase::usize>(-off - 1);
      if (k >= state.stack_init.size()) {
        state.stack_init.resize(k + 1, 0);
      }
      state.stack_init[k] = 1;
    }
  }
}

void Dataflow::CheckStackInit(const DfState& state, const AbsVal& base,
                              u32 size, u32 pc, std::string_view what) {
  if (base.var_off || base.off_min != base.off_max) {
    return;
  }
  for (u32 i = 0; i < size; ++i) {
    const s64 off = base.off_min + i;
    if (off < -kStackBytes || off >= 0) {
      return;  // bounds reported separately
    }
    const auto k = static_cast<xbase::usize>(-off - 1);
    if (k >= state.stack_init.size() || state.stack_init[k] == 0) {
      Report(Severity::kWarning, pc, "stack-uninit-read",
             StrFormat("%.*s reads stack byte fp%lld which may be "
                       "uninitialized",
                       static_cast<int>(what.size()), what.data(),
                       static_cast<long long>(base.off_min + i)));
      return;
    }
  }
}

// Recording wrapper: during the RecordTrace re-walk, exports a per-pc
// "this access is provably in bounds" claim the JIT can consume for check
// elision. Fail-closed by construction — a pc never reaching this point
// leaves its claim unseen, and any path where the proof is imprecise ANDs
// the claim to unproven.
void Dataflow::CheckMemAccess(DfState& state, const AbsVal& base,
                              s64 insn_off, u32 size, bool is_write,
                              u32 pc) {
  const bool proven =
      CheckMemAccessImpl(state, base, insn_off, size, is_write, pc);
  if (recording_ && opts_.range_trace != nullptr &&
      pc < opts_.range_trace->mem_per_pc.size()) {
    opts_.range_trace->mem_per_pc[pc].Record(proven);
  }
}

// Returns true iff the access is provably within its region — the bar for
// runtime check elision, which is strictly higher than "no finding": a
// region we cannot size (kTop base, unsized kMem, unknown map) produces no
// diagnostic but is NOT proven. Uninit-read warnings on in-frame stack
// loads are bounds-irrelevant and do not lower the claim.
bool Dataflow::CheckMemAccessImpl(DfState& state, const AbsVal& base,
                                  s64 insn_off, u32 size, bool is_write,
                                  u32 pc) {
  switch (base.kind) {
    case VK::kUninit:
    case VK::kTop:
    case VK::kFunc:
      return false;  // uninit reported by Use(); kTop is unknowable
    case VK::kConst:
      Report(Severity::kError, pc,
             base.cval == 0 ? "null-deref" : "const-deref",
             StrFormat("memory access through constant address 0x%llx",
                       static_cast<unsigned long long>(base.cval)));
      return false;
    case VK::kStack: {
      if (base.var_off) {
        Report(Severity::kWarning, pc, "stack-var-off",
               "stack access at a variable offset");
        return false;
      }
      const s64 lo = base.off_min + insn_off;
      const s64 hi = base.off_max + insn_off + size;
      if (lo < -kStackBytes || hi > 0) {
        Report(Severity::kError, pc, "stack-oob",
               StrFormat("stack access at fp%lld size %u is outside the "
                         "%lld-byte frame",
                         static_cast<long long>(lo), size,
                         static_cast<long long>(kStackBytes)));
        return false;
      }
      if (is_write) {
        MarkStackBytes(state, base, insn_off, size);
      } else {
        AbsVal shifted = base;
        shifted.off_min += insn_off;
        shifted.off_max += insn_off;
        CheckStackInit(state, shifted, size, pc, "load");
      }
      return true;
    }
    case VK::kMapVal: {
      if (base.or_null) {
        Report(Severity::kError, pc, "null-deref",
               "map value pointer may be NULL (no null check on this "
               "path)");
        return false;
      }
      const u32 value_size = MapValueSize(base.map_fd);
      if (value_size == 0) {
        return false;  // no map table available
      }
      if (base.var_off) {
        Report(Severity::kWarning, pc, "map-value-var-off",
               "map value accessed at a statically unbounded offset");
        return false;
      }
      const s64 lo = base.off_min + insn_off;
      const s64 hi = base.off_max + insn_off + size;
      if (lo < 0 || hi > static_cast<s64>(value_size)) {
        Report(Severity::kError, pc, "map-value-oob",
               StrFormat("access at offset [%lld,%lld) escapes the %u-byte "
                         "map value",
                         static_cast<long long>(lo),
                         static_cast<long long>(hi), value_size));
        return false;
      }
      return true;
    }
    case VK::kMem: {
      if (base.or_null) {
        Report(Severity::kError, pc, "null-deref",
               "helper-provided memory may be NULL (no null check on this "
               "path)");
        return false;
      }
      if (base.mem_size == 0 || base.var_off) {
        return false;
      }
      const s64 lo = base.off_min + insn_off;
      const s64 hi = base.off_max + insn_off + size;
      if (lo < 0 || hi > static_cast<s64>(base.mem_size)) {
        Report(Severity::kError, pc, "mem-oob",
               StrFormat("access at offset [%lld,%lld) escapes the %u-byte "
                         "memory region",
                         static_cast<long long>(lo),
                         static_cast<long long>(hi), base.mem_size));
        return false;
      }
      return true;
    }
    case VK::kPacket: {
      if (base.var_off) {
        Report(Severity::kWarning, pc, "pkt-var-off",
               "packet access at a statically unbounded offset");
        return false;
      }
      const s64 lo = base.off_min + insn_off;
      const s64 hi = base.off_max + insn_off + size;
      // mem_size is the range *proven* by a compare against data_end (and
      // reset by packet-mutating helpers), so an unproven or stale access
      // lands here with mem_size == 0 and is always flagged.
      if (lo < 0 || hi > static_cast<s64>(base.mem_size)) {
        Report(Severity::kError, pc, "pkt-oob",
               StrFormat("packet access at offset [%lld,%lld) but only %u "
                         "bytes are proven against data_end%s",
                         static_cast<long long>(lo),
                         static_cast<long long>(hi), base.mem_size,
                         base.id == kPacketLiveId
                             ? ""
                             : " (pointer is stale after a packet-mutating "
                               "helper)"));
        return false;
      }
      return true;
    }
    case VK::kPacketEnd:
      Report(Severity::kError, pc, "pkt-end-deref",
             "data_end is a bound for comparisons, not a loadable pointer");
      return false;
    case VK::kCtx: {
      if (base.off_min + insn_off < 0) {
        Report(Severity::kWarning, pc, "ctx-oob",
               "context accessed at a negative offset");
        return false;
      }
      const s64 ctx_bytes = CtxBytesFor(prog_.type);
      return !base.var_off && ctx_bytes > 0 &&
             base.off_max + insn_off + size <= ctx_bytes;
    }
    case VK::kMapPtr:
      Report(Severity::kWarning, pc, "map-ptr-deref",
             "direct dereference of a map object pointer");
      return false;
    case VK::kSock:
    case VK::kTask:
      if (base.or_null) {
        Report(Severity::kError, pc, "null-deref",
               "object pointer may be NULL (no null check on this path)");
      }
      return false;  // 64-byte objects, but runtime layout is opaque here
  }
  return false;
}

void Dataflow::CheckNullArg(const AbsVal& reg, int argno,
                            const ebpf::HelperSpec& spec, u32 pc) {
  if (reg.kind == VK::kConst && reg.cval == 0) {
    Report(Severity::kError, pc, "null-arg",
           StrFormat("NULL passed as pointer argument %d of %s", argno,
                     spec.name.c_str()));
    return;
  }
  if (IsPointerKind(reg.kind) && reg.or_null) {
    Report(Severity::kWarning, pc, "maybe-null-arg",
           StrFormat("argument %d of %s may be NULL (no null check)",
                     argno, spec.name.c_str()));
  }
}

void Dataflow::HelperCall(DfState& state, u32 pc, s32 helper_id) {
  const ebpf::HelperSpec* spec = nullptr;
  if (opts_.helpers != nullptr) {
    auto found = opts_.helpers->FindSpec(static_cast<u32>(helper_id));
    if (found.ok()) {
      spec = found.value();
    } else {
      Report(Severity::kError, pc, "unknown-helper",
             StrFormat("call to unregistered helper id %d", helper_id));
    }
  }

  int map_arg_fd = -1;
  if (spec != nullptr) {
    for (int i = 0; i < 5; ++i) {
      const ebpf::ArgType arg = spec->args[static_cast<xbase::usize>(i)];
      if (arg == ebpf::ArgType::kNone) {
        break;
      }
      const u8 regno = static_cast<u8>(ebpf::R1 + i);
      AbsVal& reg = state.regs[regno];
      if (reg.kind == VK::kUninit) {
        Report(Severity::kError, pc, "helper-arg-uninit",
               StrFormat("R%d (argument %d of %s) is uninitialized", regno,
                         i + 1, spec->name.c_str()));
        reg = TopVal();
        continue;
      }
      // The size a kPtrToMem/kPtrToUninitMem argument covers, when the
      // paired kMemSize argument is a known constant.
      u32 mem_span = 0;
      if (i + 1 < 5 &&
          spec->args[static_cast<xbase::usize>(i + 1)] ==
              ebpf::ArgType::kMemSize &&
          state.regs[regno + 1].kind == VK::kConst) {
        mem_span = static_cast<u32>(state.regs[regno + 1].cval);
      }
      switch (arg) {
        case ebpf::ArgType::kNone:
        case ebpf::ArgType::kAnything:
        case ebpf::ArgType::kMemSize:
          break;
        case ebpf::ArgType::kConstMapPtr:
          if (reg.kind == VK::kMapPtr) {
            map_arg_fd = reg.map_fd;
          } else if (reg.kind != VK::kTop) {
            Report(Severity::kError, pc, "helper-arg-type",
                   StrFormat("argument %d of %s must be a map reference",
                             i + 1, spec->name.c_str()));
          }
          break;
        case ebpf::ArgType::kMapKey:
          CheckNullArg(reg, i + 1, *spec, pc);
          if (reg.kind == VK::kStack) {
            CheckStackInit(state, reg, MapKeySize(map_arg_fd), pc,
                           spec->name);
          }
          break;
        case ebpf::ArgType::kMapValue:
          CheckNullArg(reg, i + 1, *spec, pc);
          if (reg.kind == VK::kStack) {
            CheckStackInit(state, reg, MapValueSize(map_arg_fd), pc,
                           spec->name);
          }
          break;
        case ebpf::ArgType::kPtrToMem:
          CheckNullArg(reg, i + 1, *spec, pc);
          if (reg.kind == VK::kStack && mem_span > 0) {
            CheckStackInit(state, reg, mem_span, pc, spec->name);
          }
          break;
        case ebpf::ArgType::kPtrToUninitMem:
          CheckNullArg(reg, i + 1, *spec, pc);
          if (reg.kind == VK::kStack && mem_span > 0) {
            MarkStackBytes(state, reg, 0, mem_span);  // the helper fills it
          }
          break;
        case ebpf::ArgType::kCtx:
          if (reg.kind != VK::kCtx && reg.kind != VK::kTop) {
            Report(Severity::kWarning, pc, "helper-arg-type",
                   StrFormat("argument %d of %s should be the context "
                             "pointer",
                             i + 1, spec->name.c_str()));
          }
          break;
        case ebpf::ArgType::kScalar:
          if (IsPointerKind(reg.kind)) {
            Report(Severity::kWarning, pc, "ptr-as-scalar-arg",
                   StrFormat("pointer passed as scalar argument %d of %s "
                             "(potential address leak)",
                             i + 1, spec->name.c_str()));
          }
          break;
        case ebpf::ArgType::kSock:
          CheckNullArg(reg, i + 1, *spec, pc);
          if (reg.kind != VK::kSock && reg.kind != VK::kTop &&
              !(reg.kind == VK::kConst && reg.cval == 0)) {
            Report(Severity::kError, pc, "helper-arg-type",
                   StrFormat("argument %d of %s must be a socket", i + 1,
                             spec->name.c_str()));
          }
          break;
        case ebpf::ArgType::kTask:
          CheckNullArg(reg, i + 1, *spec, pc);
          break;
        case ebpf::ArgType::kSpinLock:
          CheckNullArg(reg, i + 1, *spec, pc);
          if (reg.kind != VK::kMapVal && reg.kind != VK::kTop) {
            Report(Severity::kError, pc, "helper-arg-type",
                   StrFormat("argument %d of %s must point into a map "
                             "value",
                             i + 1, spec->name.c_str()));
          }
          break;
        case ebpf::ArgType::kFunc:
          if (reg.kind != VK::kFunc && reg.kind != VK::kTop) {
            Report(Severity::kError, pc, "helper-arg-type",
                   StrFormat("argument %d of %s must be a callback "
                             "reference",
                             i + 1, spec->name.c_str()));
          }
          break;
      }
    }
    if (spec->releases_ref_arg != 0) {
      const u8 regno =
          static_cast<u8>(ebpf::R1 + spec->releases_ref_arg - 1);
      const u32 id = state.regs[regno].id;
      const auto matches = [id](const RefObligation& ref) {
        return ref.id == id;
      };
      if (id != 0 && std::find_if(state.refs.begin(), state.refs.end(),
                                  matches) != state.refs.end()) {
        std::erase_if(state.refs, matches);
      } else {
        Report(Severity::kWarning, pc, "release-unacquired",
               StrFormat("%s releases an object this program did not "
                         "acquire",
                         spec->name.c_str()));
      }
    }
  }

  // A helper that rewrites the packet (pull/push headers, adjust room)
  // moves data/data_end: every packet pointer anywhere in the state is
  // stale afterwards — including ones parked in callee-saved registers or
  // spilled to the stack, the shape CVE-class invalidation bugs miss.
  if (spec != nullptr && spec->changes_packet_data) {
    InvalidatePackets(state);
  }

  // Caller-saved registers are clobbered; R0 carries the abstract return.
  for (u8 regno = ebpf::R1; regno <= ebpf::R5; ++regno) {
    state.regs[regno] = AbsVal{};
  }
  AbsVal ret = TopVal();
  if (spec != nullptr) {
    const u32 id = pc + 1;
    switch (spec->ret) {
      case ebpf::RetType::kInteger:
        break;
      case ebpf::RetType::kVoid:
        ret = AbsVal{};  // reading R0 after a void helper is a bug
        break;
      case ebpf::RetType::kMapValueOrNull:
        ret.kind = VK::kMapVal;
        ret.or_null = true;
        ret.map_fd = map_arg_fd;
        ret.id = id;
        break;
      case ebpf::RetType::kSockOrNull:
        ret.kind = VK::kSock;
        ret.or_null = true;
        ret.id = id;
        break;
      case ebpf::RetType::kTaskOrNull:
        ret.kind = VK::kTask;
        ret.or_null = true;
        ret.id = id;
        break;
      case ebpf::RetType::kMemOrNull:
        ret.kind = VK::kMem;
        ret.or_null = true;
        ret.id = id;
        break;
    }
    if (spec->acquires_ref) {
      RefObligation ref;
      ref.id = id;
      ref.acquire_pc = pc;
      ref.helper_id = spec->id;
      state.refs.push_back(ref);
    }
  }
  state.regs[ebpf::R0] = ret;
}

void Dataflow::TransferAlu(DfState& state, const Insn& insn, u32 pc) {
  const bool is64 = insn.Class() == ebpf::BPF_ALU64;
  const u8 op = insn.AluOp();
  const u8 dst = insn.dst;

  if (op == ebpf::BPF_END) {
    Use(state, dst, pc);
    AbsVal out = TopVal();
    // Whatever the byte order, the result fits the swap width.
    if (insn.imm == 16) {
      out.rng = RangeVal::FromU(0, 0xffff);
    } else if (insn.imm == 32) {
      out.rng = RangeVal::FromU(0, 0xffffffffu);
    }
    WriteReg(state, dst, std::move(out), pc);
    return;
  }
  if (op == ebpf::BPF_NEG) {
    Use(state, dst, pc);
    AbsVal& reg = state.regs[dst];
    AbsVal out = TopVal();
    if (IsScalarKind(reg.kind)) {
      out.rng =
          RangeAlu(ebpf::BPF_SUB, RangeVal::Const(0), RngOf(reg), is64);
      if (out.rng.IsConst()) {
        out = ConstVal(out.rng.umin);
      }
    }
    WriteReg(state, dst, std::move(out), pc);
    return;
  }

  // Resolve the source operand.
  AbsVal src;
  if (insn.UsesRegSrc()) {
    Use(state, insn.src, pc);
    src = state.regs[insn.src];
  } else {
    src = ConstVal(is64 ? static_cast<u64>(static_cast<s64>(insn.imm))
                        : static_cast<u64>(static_cast<u32>(insn.imm)));
  }

  if (op == ebpf::BPF_MOV) {
    AbsVal out = src;
    if (!is64) {
      // A 32-bit move truncates: pointers degrade to scalars.
      if (out.kind == VK::kConst) {
        out = ConstVal(src.cval & 0xffffffffu);
      } else {
        out = TopVal();
        out.rng = RangeCast32(RngOf(src));
      }
    }
    WriteReg(state, dst, std::move(out), pc);
    return;
  }

  Use(state, dst, pc);
  AbsVal& lhs = state.regs[dst];

  // Pointer +- constant adjusts the tracked offset range.
  if ((op == ebpf::BPF_ADD || op == ebpf::BPF_SUB) && is64 &&
      IsPointerKind(lhs.kind)) {
    AbsVal out = lhs;
    if (src.kind == VK::kConst) {
      const s64 delta = static_cast<s64>(src.cval);
      out.off_min += op == ebpf::BPF_ADD ? delta : -delta;
      out.off_max += op == ebpf::BPF_ADD ? delta : -delta;
    } else if (IsPointerKind(src.kind)) {
      out = TopVal();  // ptr - ptr is a scalar distance
    } else {
      // A *bounded* unknown scalar folds into the offset interval, so the
      // downstream map-value / kMem bounds checks see the refined range
      // instead of a kind-only var_off giveup.
      const RangeVal sr = RngOf(src);
      // Wide enough to keep a full u32-range index foldable (the
      // CVE-2020-8835 witness needs [0, 2^32-1] to stay an interval, not
      // a var_off giveup); accumulated offsets stay far below s64 range.
      constexpr s64 kFoldLimit = s64{1} << 33;
      if (src.kind == VK::kTop && sr.smin >= -kFoldLimit &&
          sr.smax <= kFoldLimit) {
        out.off_min += op == ebpf::BPF_ADD ? sr.smin : -sr.smax;
        out.off_max += op == ebpf::BPF_ADD ? sr.smax : -sr.smin;
      } else {
        out.var_off = true;  // unbounded scalar poisons the offset
      }
    }
    WriteReg(state, dst, std::move(out), pc);
    return;
  }

  // Constant folding for scalar-scalar arithmetic.
  if (lhs.kind == VK::kConst && src.kind == VK::kConst) {
    u64 a = lhs.cval;
    u64 b = src.cval;
    if (!is64) {
      a &= 0xffffffffu;
      b &= 0xffffffffu;
    }
    u64 result = 0;
    bool folded = true;
    const u64 shift_mask = is64 ? 63 : 31;
    switch (op) {
      case ebpf::BPF_ADD: result = a + b; break;
      case ebpf::BPF_SUB: result = a - b; break;
      case ebpf::BPF_MUL: result = a * b; break;
      case ebpf::BPF_DIV: result = b == 0 ? 0 : a / b; break;
      case ebpf::BPF_MOD: result = b == 0 ? a : a % b; break;
      case ebpf::BPF_OR:  result = a | b; break;
      case ebpf::BPF_AND: result = a & b; break;
      case ebpf::BPF_XOR: result = a ^ b; break;
      case ebpf::BPF_LSH: result = a << (b & shift_mask); break;
      case ebpf::BPF_RSH: result = a >> (b & shift_mask); break;
      case ebpf::BPF_ARSH:
        result = is64 ? static_cast<u64>(static_cast<s64>(a) >>
                                         (b & shift_mask))
                      : static_cast<u64>(static_cast<u32>(
                            static_cast<s32>(static_cast<u32>(a)) >>
                            (b & shift_mask)));
        break;
      default: folded = false; break;
    }
    if (folded) {
      WriteReg(state, dst, ConstVal(is64 ? result : result & 0xffffffffu),
               pc);
      return;
    }
  }
  // Scalar-scalar arithmetic flows through the range domain (const-const
  // was folded exactly above).
  if (IsScalarKind(lhs.kind) && IsScalarKind(src.kind)) {
    AbsVal out = TopVal();
    out.rng = RangeAlu(op, RngOf(lhs), RngOf(src), is64);
    if (out.rng.IsConst()) {
      out = ConstVal(out.rng.umin);
    }
    WriteReg(state, dst, std::move(out), pc);
    return;
  }
  WriteReg(state, dst, TopVal(), pc);
}

void Dataflow::StackStore(DfState& state, const AbsVal& base, s64 insn_off,
                          u32 size, const AbsVal* spilled) {
  if (base.kind != VK::kStack) {
    return;  // no other pointer kind can alias the frame
  }
  if (base.var_off || base.off_min != base.off_max) {
    // A write somewhere unknown in the frame: every tracked value may be
    // overwritten.
    for (StackSlot& slot : state.stack.slots) {
      if (slot.kind == SlotKind::kSpill) {
        slot = StackSlot{SlotKind::kMisc, AbsVal{}};
      }
    }
    return;
  }
  const s64 off = base.off_min + insn_off;
  if (off < -kStackBytes || off + static_cast<s64>(size) > 0) {
    return;  // out of frame; reported by CheckMemAccess
  }
  if (IsFullSlotAccess(off, size) && spilled != nullptr &&
      spilled->kind != VK::kUninit) {
    state.stack.Grow(StackSlotIndex(off)) =
        StackSlot{SlotKind::kSpill, *spilled};
    return;
  }
  // Narrow, unaligned or value-less write: the 8-byte spill (if any) under
  // each touched byte is no longer intact. Restoring it anyway is exactly
  // the spill-width-confusion defect class (kernel commit 27113c59b6d0).
  for (s64 byte = off; byte < off + static_cast<s64>(size); ++byte) {
    const int idx = StackSlotIndex(byte);
    if (idx >= 0) {
      state.stack.Grow(idx) = StackSlot{SlotKind::kMisc, AbsVal{}};
    }
  }
}

void Dataflow::ZoneTransfer(DfState& state, u32 pc) {
  if (!opts_.enable_relational) {
    return;
  }
  Zone& z = state.zone;
  const Insn& insn = prog_.insns[pc];
  const auto zreg = [](u8 r) -> int {
    return r < kZoneRegs ? static_cast<int>(r) : -1;
  };
  const auto forget = [&z](int v) {
    if (v >= 0) {
      z.Forget(v);
    }
  };
  const int dst = zreg(insn.dst);
  switch (insn.Class()) {
    case ebpf::BPF_ALU64: {
      const u8 op = insn.AluOp();
      if (op == ebpf::BPF_MOV && insn.UsesRegSrc()) {
        const int src = zreg(insn.src);
        if (dst >= 0 && src >= 0) {
          z.AssignCopy(dst, src);  // exact value copy, any kind
        } else {
          forget(dst);
        }
        return;
      }
      if (op == ebpf::BPF_MOV) {
        if (dst >= 0) {
          z.AssignConst(dst, static_cast<s64>(insn.imm));
        }
        return;
      }
      if ((op == ebpf::BPF_ADD || op == ebpf::BPF_SUB) && dst >= 0 &&
          IsScalarKind(state.regs[insn.dst].kind)) {
        const RangeVal dr = RngOf(state.regs[insn.dst]);
        s64 lo = 0;
        s64 hi = 0;
        bool delta_known = false;
        if (!insn.UsesRegSrc()) {
          lo = hi = static_cast<s64>(insn.imm);
          delta_known = true;
        } else if (IsScalarKind(state.regs[insn.src].kind)) {
          const RangeVal sr = RngOf(state.regs[insn.src]);
          lo = sr.smin;
          hi = sr.smax;
          delta_known = true;
        }
        // Shifting the constraints is only sound when the concrete
        // addition provably cannot wrap; both operands staying within
        // +-kZoneSafe (2^60) keeps the sum far inside s64.
        if (delta_known && dr.smin >= -kZoneSafe && dr.smax <= kZoneSafe &&
            lo >= -kZoneSafe && hi <= kZoneSafe) {
          if (op == ebpf::BPF_SUB) {
            const s64 t = lo;
            lo = -hi;
            hi = -t;
          }
          z.AssignShift(dst, lo, hi);
          return;
        }
      }
      forget(dst);
      return;
    }
    case ebpf::BPF_ALU:
      // 32-bit results truncate; no difference constraint survives.
      forget(dst);
      return;
    case ebpf::BPF_LD:
      if (insn.IsLdImm64()) {
        if (insn.src == 0 && dst >= 0 && pc + 1 < prog_.len()) {
          const u64 lo32 = static_cast<u32>(insn.imm);
          const u64 hi32 = static_cast<u32>(prog_.insns[pc + 1].imm);
          z.AssignConst(dst, static_cast<s64>(lo32 | (hi32 << 32)));
        } else {
          forget(dst);
        }
      } else {
        forget(ebpf::R0);  // legacy packet loads land in R0
      }
      return;
    case ebpf::BPF_LDX: {
      const AbsVal& base = state.regs[insn.src];
      if (base.kind == VK::kStack && !base.var_off &&
          base.off_min == base.off_max) {
        const s64 off = base.off_min + insn.off;
        const int slot_var = ZoneSlotVar(off);
        if (slot_var >= 0 && dst >= 0 &&
            IsFullSlotAccess(off, ebpf::SizeBytes(insn.Size())) &&
            state.stack.At(StackSlotIndex(off)).kind == SlotKind::kSpill) {
          z.AssignCopy(dst, slot_var);  // fill restores the relation
          return;
        }
      }
      forget(dst);
      return;
    }
    case ebpf::BPF_ST:
    case ebpf::BPF_STX: {
      const AbsVal& base = state.regs[insn.dst];
      if (base.kind != VK::kStack) {
        return;  // stores elsewhere change no tracked value
      }
      if (base.var_off || base.off_min != base.off_max) {
        for (int s = 0; s < kZoneSlots; ++s) {
          z.Forget(kZoneSlot0 + s);
        }
        return;
      }
      const s64 off = base.off_min + insn.off;
      const u32 size = ebpf::SizeBytes(insn.Size());
      const int slot_var = ZoneSlotVar(off);
      if (IsFullSlotAccess(off, size) && slot_var >= 0 &&
          insn.Mode() == ebpf::BPF_MEM) {
        if (insn.Class() == ebpf::BPF_STX) {
          const int src = zreg(insn.src);
          if (src >= 0) {
            z.AssignCopy(slot_var, src);
          } else {
            z.Forget(slot_var);
          }
        } else {
          z.AssignConst(slot_var, static_cast<s64>(insn.imm));
        }
        return;
      }
      for (s64 byte = off; byte < off + static_cast<s64>(size); ++byte) {
        const int idx = StackSlotIndex(byte);
        if (idx >= 0 && idx < kZoneSlots) {
          z.Forget(kZoneSlot0 + idx);
        }
      }
      return;
    }
    case ebpf::BPF_JMP:
    case ebpf::BPF_JMP32:
      if (insn.IsCall()) {
        for (int r = ebpf::R0; r <= ebpf::R5; ++r) {
          z.Forget(r);
        }
      }
      return;
    default:
      return;
  }
}

void Dataflow::Transfer(DfState& state, u32 pc) {
  ZoneTransfer(state, pc);
  const Insn& insn = prog_.insns[pc];
  switch (insn.Class()) {
    case ebpf::BPF_ALU:
    case ebpf::BPF_ALU64:
      TransferAlu(state, insn, pc);
      return;
    case ebpf::BPF_LD: {
      if (!insn.IsLdImm64()) {
        // Legacy LD_ABS/LD_IND packet loads land in R0.
        WriteReg(state, ebpf::R0, TopVal(), pc);
        return;
      }
      AbsVal out;
      if (insn.src == ebpf::BPF_PSEUDO_MAP_FD) {
        out.kind = VK::kMapPtr;
        out.map_fd = insn.imm;
      } else if (insn.src == ebpf::BPF_PSEUDO_FUNC) {
        out.kind = VK::kFunc;
        out.cval = static_cast<u64>(static_cast<s64>(insn.imm));
      } else {
        const u64 lo = static_cast<u32>(insn.imm);
        const u64 hi =
            static_cast<u32>(prog_.insns[pc + 1].imm);
        out = ConstVal(lo | (hi << 32));
      }
      WriteReg(state, insn.dst, std::move(out), pc);
      return;
    }
    case ebpf::BPF_LDX: {
      Use(state, insn.src, pc);
      const u32 bytes = ebpf::SizeBytes(insn.Size());
      const AbsVal& base = state.regs[insn.src];
      CheckMemAccess(state, base, insn.off, bytes,
                     /*is_write=*/false, pc);
      if (base.kind == VK::kStack && !base.var_off &&
          base.off_min == base.off_max) {
        // Fill of an intact full-slot spill restores the whole abstract
        // value — pointers survive a round trip through the stack.
        const s64 off = base.off_min + insn.off;
        if (opts_.enable_relational && IsFullSlotAccess(off, bytes)) {
          const StackSlot& slot = state.stack.At(StackSlotIndex(off));
          if (slot.kind == SlotKind::kSpill) {
            AbsVal restored = slot.val;
            WriteReg(state, insn.dst, std::move(restored), pc);
            return;
          }
        }
      }
      if (base.kind == VK::kCtx && !base.var_off &&
          base.off_min == base.off_max && HasPacketPtrs(prog_.type)) {
        // Direct packet access: the sk_buff-style context exposes
        // data/data_end; loads of those fields yield packet pointers whose
        // usable range starts at zero until proven by a data_end compare.
        const s64 off = base.off_min + insn.off;
        if (bytes == 8 &&
            off == static_cast<s64>(simkern::SkBuffLayout::kDataPtr)) {
          AbsVal out;
          out.kind = VK::kPacket;
          out.id = kPacketLiveId;
          WriteReg(state, insn.dst, std::move(out), pc);
          return;
        }
        if (bytes == 8 &&
            off == static_cast<s64>(simkern::SkBuffLayout::kDataEndPtr)) {
          AbsVal out;
          out.kind = VK::kPacketEnd;
          out.id = kPacketLiveId;
          WriteReg(state, insn.dst, std::move(out), pc);
          return;
        }
        if (bytes == 4 &&
            off == static_cast<s64>(simkern::SkBuffLayout::kLen)) {
          AbsVal out = TopVal();
          out.rng = RangeVal::FromU(0, 0xffff);
          WriteReg(state, insn.dst, std::move(out), pc);
          return;
        }
      }
      AbsVal out = TopVal();
      if (bytes < 8) {
        // Sub-word loads zero-extend: the result fits the load width.
        out.rng = RangeVal::FromU(0, (u64{1} << (bytes * 8)) - 1);
      }
      WriteReg(state, insn.dst, std::move(out), pc);
      return;
    }
    case ebpf::BPF_ST: {
      Use(state, insn.dst, pc);
      const u32 bytes = ebpf::SizeBytes(insn.Size());
      CheckMemAccess(state, state.regs[insn.dst], insn.off, bytes,
                     /*is_write=*/true, pc);
      const AbsVal imm_val =
          ConstVal(static_cast<u64>(static_cast<s64>(insn.imm)));
      StackStore(state, state.regs[insn.dst], insn.off, bytes, &imm_val);
      return;
    }
    case ebpf::BPF_STX: {
      Use(state, insn.dst, pc);
      Use(state, insn.src, pc);
      const u32 bytes = ebpf::SizeBytes(insn.Size());
      CheckMemAccess(state, state.regs[insn.dst], insn.off, bytes,
                     /*is_write=*/true, pc);
      // An atomic op stores a combined value, not the source register;
      // passing no value downgrades the slot instead of mis-spilling.
      StackStore(state, state.regs[insn.dst], insn.off, bytes,
                 insn.Mode() == ebpf::BPF_MEM ? &state.regs[insn.src]
                                              : nullptr);
      return;
    }
    case ebpf::BPF_JMP:
    case ebpf::BPF_JMP32: {
      if (insn.IsHelperCall()) {
        HelperCall(state, pc, insn.imm);
        return;
      }
      if (insn.IsPseudoCall() || insn.IsKfuncCall()) {
        // The callee is analyzed as its own entry; model the call's
        // register effects only.
        for (u8 regno = ebpf::R1; regno <= ebpf::R5; ++regno) {
          state.regs[regno] = AbsVal{};
        }
        state.regs[ebpf::R0] = TopVal();
        return;
      }
      const u8 op = insn.JmpOp();
      if (op != ebpf::BPF_JA && op != ebpf::BPF_EXIT) {
        Use(state, insn.dst, pc);
        if (insn.UsesRegSrc()) {
          Use(state, insn.src, pc);
        }
      }
      return;
    }
    default:
      return;
  }
}

void Dataflow::CheckExit(const DfState& state, u32 pc) {
  const AbsVal& r0 = state.regs[ebpf::R0];
  if (r0.kind == VK::kUninit) {
    Report(Severity::kError, pc, "exit-uninit-r0",
           "the program exits without setting R0 on some path");
  } else if (IsPointerKind(r0.kind)) {
    Report(Severity::kError, pc, "ptr-return-leak",
           "the program returns a kernel pointer in R0 (address leak)");
  }
  for (const RefObligation& ref : state.refs) {
    Report(Severity::kError, pc, "ref-leak",
           StrFormat("the reference acquired at pc %u (helper %u) is "
                     "never released on this path",
                     ref.acquire_pc, ref.helper_id));
  }
}

void Dataflow::Propagate(u32 block, DfState&& out) {
  DfState& dest = in_[block];
  if (!dest.valid) {
    dest = std::move(out);
    worklist_.push_back(block);
    return;
  }
  const bool widen = ++merge_count_[block] > kMergeWidenThreshold;
  DfState merged = MergeState(dest, out, widen);
  if (!(merged == dest)) {
    dest = std::move(merged);
    worklist_.push_back(block);
  }
}

DataflowResult Dataflow::Run() {
  in_.assign(cfg_.blocks.size(), DfState{});
  merge_count_.assign(cfg_.blocks.size(), 0);

  for (const u32 entry : cfg_.entries) {
    DfState init;
    init.valid = true;
    AbsVal fp;
    fp.kind = VK::kStack;
    init.regs[ebpf::R10] = fp;
    if (cfg_.blocks[entry].start == 0) {
      init.regs[ebpf::R1].kind = VK::kCtx;
    } else {
      // Subprogram / callback: arguments and callee-saved registers are
      // whatever the caller provided — unknown but initialized.
      for (u8 regno = ebpf::R1; regno <= ebpf::R9; ++regno) {
        init.regs[regno] = TopVal();
      }
    }
    Propagate(entry, std::move(init));
  }

  u64 budget = static_cast<u64>(cfg_.blocks.size()) * 64 + 256;
  DataflowResult result;
  while (!worklist_.empty()) {
    if (budget-- == 0) {
      result.complete = false;
      Finding finding;
      finding.pass = Pass::kDataflow;
      finding.severity = Severity::kWarning;
      finding.pc = 0;
      finding.rule = "analysis-budget";
      finding.message =
          "dataflow iteration budget exhausted; findings may be "
          "incomplete";
      findings_.push_back(std::move(finding));
      break;
    }
    const u32 b = worklist_.front();
    worklist_.pop_front();
    ++result.iterations;
    DfState state = in_[b];
    const BasicBlock& block = cfg_.blocks[b];

    u32 last = block.start;
    for (u32 pc = block.start; pc < block.end;) {
      last = pc;
      Transfer(state, pc);
      pc += prog_.insns[pc].IsLdImm64() ? 2 : 1;
    }

    const Insn& term = prog_.insns[last];
    if (term.IsExit()) {
      CheckExit(state, last);
      continue;
    }
    const u8 cls = term.Class();
    const u8 op = term.JmpOp();
    const bool is_cond = (cls == ebpf::BPF_JMP || cls == ebpf::BPF_JMP32) &&
                         op != ebpf::BPF_JA && op != ebpf::BPF_CALL &&
                         op != ebpf::BPF_EXIT;
    if (!is_cond) {
      for (const u32 succ : block.succs) {
        DfState out = state;
        Propagate(succ, std::move(out));
      }
      continue;
    }

    // Conditional terminator: split with NULL refinement where possible.
    const s64 target = static_cast<s64>(last) + 1 + term.off;
    const u32 taken_block =
        target >= 0 && target < static_cast<s64>(prog_.len())
            ? cfg_.block_of[static_cast<u32>(target)]
            : kNoBlock;
    const u32 fall_block =
        block.end < prog_.len() ? cfg_.block_of[block.end] : kNoBlock;

    DfState taken = state;
    DfState fall = state;
    const AbsVal& dst = state.regs[term.dst];
    const bool cmp_zero =
        (!term.UsesRegSrc() && term.imm == 0) ||
        (term.UsesRegSrc() && state.regs[term.src].kind == VK::kConst &&
         state.regs[term.src].cval == 0);
    if ((op == ebpf::BPF_JEQ || op == ebpf::BPF_JNE) && cmp_zero &&
        IsPointerKind(dst.kind) && dst.or_null && dst.id != 0) {
      RefineNull(taken, dst.id, op == ebpf::BPF_JEQ);
      RefineNull(fall, dst.id, op == ebpf::BPF_JNE);
    }
    // Range refinement on scalar comparands along both edges. An edge the
    // refinement proves infeasible still receives the UNREFINED state —
    // staticcheck deliberately analyzes code a path-sensitive verifier
    // would prune, so kind-level findings there must survive — but the
    // state is marked range-dead so RecordTrace withholds its (vacuous)
    // claims instead of producing false divergences on dead code.
    if (IsScalarKind(dst.kind) &&
        (!term.UsesRegSrc() ||
         IsScalarKind(state.regs[term.src].kind))) {
      const bool is32 = cls == ebpf::BPF_JMP32;
      const bool src_is_reg = term.UsesRegSrc();
      for (const bool branch_taken : {true, false}) {
        DfState& st = branch_taken ? taken : fall;
        RangeVal d = RngOf(st.regs[term.dst]);
        RangeVal s =
            src_is_reg
                ? RngOf(st.regs[term.src])
                : RangeVal::Const(
                      is32 ? static_cast<u64>(static_cast<u32>(term.imm))
                           : static_cast<u64>(static_cast<s64>(term.imm)));
        if (RangeRefine(op, is32, branch_taken, d, s)) {
          SetScalarRng(st.regs[term.dst], d);
          if (src_is_reg) {
            SetScalarRng(st.regs[term.src], s);
          }
        } else {
          st.range_dead = true;
        }
      }
    }
    // Packet range discovery: a 64-bit compare between a live packet
    // pointer at a known constant offset and data_end proves that many
    // bytes readable from data on the "pointer below end" edge — for every
    // live packet pointer in the state, registers and spilled slots alike.
    if (cls == ebpf::BPF_JMP && term.UsesRegSrc()) {
      const AbsVal& lhs = state.regs[term.dst];
      const AbsVal& rhs = state.regs[term.src];
      const bool pkt_is_dst =
          lhs.kind == VK::kPacket && rhs.kind == VK::kPacketEnd;
      const bool pkt_is_src =
          rhs.kind == VK::kPacket && lhs.kind == VK::kPacketEnd;
      const AbsVal* pkt = pkt_is_dst ? &lhs : pkt_is_src ? &rhs : nullptr;
      if (pkt != nullptr && lhs.id == kPacketLiveId &&
          rhs.id == kPacketLiveId && !pkt->var_off &&
          pkt->off_min == pkt->off_max && pkt->off_min >= 0 &&
          pkt->off_min <= 0xffff) {
        const u32 range = static_cast<u32>(pkt->off_min);
        bool prove_taken = false;
        bool prove_fall = false;
        switch (op) {
          case ebpf::BPF_JGT:  // pkt > end falls through to pkt <= end
          case ebpf::BPF_JGE:
            (pkt_is_dst ? prove_fall : prove_taken) = true;
            break;
          case ebpf::BPF_JLT:  // pkt < end taken
          case ebpf::BPF_JLE:
            (pkt_is_dst ? prove_taken : prove_fall) = true;
            break;
          default:
            break;
        }
        if (prove_taken) {
          BumpPacketRange(taken, range);
        }
        if (prove_fall) {
          BumpPacketRange(fall, range);
        }
      }
    }
    // Zone refinement: seed the interval facts of every scalar register,
    // add the relational constraint a 64-bit reg-reg compare proves on
    // each edge, close, and fold any tightened bounds back into the range
    // domain — the reduced product that lets `r1 < r2, r2 <= k` prove
    // `r1 <= k-1` where intervals alone cannot.
    if (opts_.enable_relational) {
      const bool is32 = cls == ebpf::BPF_JMP32;
      for (const bool branch_taken : {true, false}) {
        DfState& st = branch_taken ? taken : fall;
        Zone& z = st.zone;
        for (int r = 0; r < kZoneRegs; ++r) {
          const AbsVal& reg = st.regs[r];
          if (IsScalarKind(reg.kind)) {
            const RangeVal rng = RngOf(reg);
            z.SeedRange(r, rng.smin, rng.smax);
          }
        }
        if (!is32 && term.UsesRegSrc() && term.dst < kZoneRegs &&
            term.src < kZoneRegs &&
            IsScalarKind(st.regs[term.dst].kind) &&
            IsScalarKind(st.regs[term.src].kind)) {
          u8 signed_op = 0;
          switch (op) {
            case ebpf::BPF_JEQ:
            case ebpf::BPF_JNE:
            case ebpf::BPF_JSGT:
            case ebpf::BPF_JSGE:
            case ebpf::BPF_JSLT:
            case ebpf::BPF_JSLE:
              signed_op = op;
              break;
            case ebpf::BPF_JGT:
            case ebpf::BPF_JGE:
            case ebpf::BPF_JLT:
            case ebpf::BPF_JLE: {
              // Unsigned order coincides with the signed one only when
              // both operands are provably non-negative (as after any
              // sub-word load).
              if (RngOf(st.regs[term.dst]).smin >= 0 &&
                  RngOf(st.regs[term.src]).smin >= 0) {
                signed_op = op == ebpf::BPF_JGT   ? ebpf::BPF_JSGT
                            : op == ebpf::BPF_JGE ? ebpf::BPF_JSGE
                            : op == ebpf::BPF_JLT ? ebpf::BPF_JSLT
                                                  : ebpf::BPF_JSLE;
              }
              break;
            }
            default:
              break;
          }
          if (signed_op != 0) {
            z.RefineCompare(signed_op, branch_taken, term.dst, term.src);
          }
        }
        z.Close();
        if (z.bot) {
          // Relationally infeasible edge: keep analyzing (kind-level
          // findings must survive) on a sane top state, but withhold
          // claims like the interval refinement does.
          st.range_dead = true;
          st.zone = Zone{};
          continue;
        }
        for (int r = 0; r < kZoneRegs; ++r) {
          AbsVal& reg = st.regs[r];
          if (!IsScalarKind(reg.kind)) {
            continue;
          }
          RangeVal rng = RngOf(reg);
          const s64 upper = z.Upper(r);
          const s64 lower = z.Lower(r);
          bool tightened = false;
          if (upper != kZoneInf && upper < rng.smax) {
            rng.smax = upper;
            tightened = true;
          }
          if (lower != -kZoneInf && lower > rng.smin) {
            rng.smin = lower;
            tightened = true;
          }
          if (!tightened) {
            continue;
          }
          if (rng.smin > rng.smax) {
            st.range_dead = true;
            break;
          }
          rng.Reduce();
          SetScalarRng(reg, rng);
        }
      }
    }
    if (taken_block != kNoBlock) {
      Propagate(taken_block, std::move(taken));
    }
    if (fall_block != kNoBlock) {
      Propagate(fall_block, std::move(fall));
    }
  }
  if (opts_.range_trace != nullptr && result.complete) {
    RecordTrace();
  }
  return result;
}

// Re-walks every reached block from its fixpoint in-state, recording the
// per-pc register claims. The fixpoint state at a block head *is* the
// path-insensitive invariant, so a single pass per block suffices (every
// pc belongs to exactly one block). Finding deduplication makes the
// re-execution of Transfer side-effect free.
void Dataflow::RecordTrace() {
  ebpf::RangeTrace& trace = *opts_.range_trace;
  trace.Reset(prog_.len());
  recording_ = true;
  for (xbase::usize b = 0; b < cfg_.blocks.size(); ++b) {
    // Skip unreached blocks and blocks only reachable across edges the
    // refinement proved infeasible: their claims would be vacuous, and a
    // vacuous claim can falsely contradict the verifier's.
    if (!in_[b].valid || in_[b].range_dead) {
      continue;
    }
    DfState state = in_[b];
    const BasicBlock& block = cfg_.blocks[b];
    for (u32 pc = block.start; pc < block.end;) {
      if (pc < trace.per_pc.size()) {
        std::array<ebpf::RegClaim, ebpf::kNumRegs>& claims =
            trace.per_pc[pc];
        for (int r = 0; r < ebpf::kNumRegs; ++r) {
          const AbsVal& reg = state.regs[static_cast<xbase::usize>(r)];
          if (IsScalarKind(reg.kind)) {
            const RangeVal rng = RngOf(reg);
            claims[static_cast<xbase::usize>(r)].JoinScalar(
                rng.umin, rng.umax, rng.smin, rng.smax, rng.bits.value,
                rng.bits.mask);
          } else {
            claims[static_cast<xbase::usize>(r)].JoinOther();
          }
        }
      }
      if (opts_.enable_relational && pc < trace.rel_per_pc.size()) {
        // Pairwise difference bounds: the zone's constraint where it has
        // one, tightened against what the intervals already imply
        // (smax_i - smin_j, evaluated in 128 bits).
        std::array<s64, ebpf::kRelRegs * ebpf::kRelRegs> path;
        path.fill(ebpf::kRelInf);
        for (int i = 0; i < ebpf::kRelRegs; ++i) {
          const AbsVal& ri = state.regs[static_cast<xbase::usize>(i)];
          if (!IsScalarKind(ri.kind)) {
            continue;
          }
          const RangeVal rng_i = RngOf(ri);
          for (int j = 0; j < ebpf::kRelRegs; ++j) {
            if (i == j) {
              continue;
            }
            const AbsVal& rj = state.regs[static_cast<xbase::usize>(j)];
            if (!IsScalarKind(rj.kind)) {
              continue;
            }
            __int128 bound = static_cast<__int128>(rng_i.smax) -
                             static_cast<__int128>(RngOf(rj).smin);
            const s64 zone_bound = state.zone.DiffUpper(i, j);
            if (zone_bound != kZoneInf &&
                static_cast<__int128>(zone_bound) < bound) {
              bound = zone_bound;
            }
            if (bound < static_cast<__int128>(ebpf::kRelInf)) {
              path[static_cast<xbase::usize>(i * ebpf::kRelRegs + j)] =
                  static_cast<s64>(bound);
            }
          }
        }
        trace.rel_per_pc[pc].JoinPath(path);
      }
      Transfer(state, pc);
      pc += prog_.insns[pc].IsLdImm64() ? 2 : 1;
    }
  }
  recording_ = false;
}

}  // namespace

DataflowResult RunDataflow(const ebpf::Program& prog, const Cfg& cfg,
                           const CheckOptions& opts,
                           std::vector<Finding>& findings) {
  Dataflow pass(prog, cfg, opts, findings);
  return pass.Run();
}

}  // namespace staticcheck
