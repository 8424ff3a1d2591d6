// The in-kernel eBPF verifier: symbolic execution over all program paths,
// tracking a type + tristate-number + range abstraction per register and per
// stack slot, with state pruning at branch targets. Structured like
// kernel/bpf/verifier.c and gated by the per-version feature table so that a
// "v4.9 verifier" genuinely lacks the passes later kernels added.
//
// This is the component the paper argues should retire; building it
// faithfully is what makes the argument measurable (Fig. 2 growth, path
// explosion, Table 1 verifier-bug exploits).
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/ebpf/fault.h"
#include "src/ebpf/helper.h"
#include "src/ebpf/kfunc.h"
#include "src/ebpf/map.h"
#include "src/ebpf/prog.h"
#include "src/ebpf/rangetrace.h"
#include "src/ebpf/tnum.h"
#include "src/ebpf/verifier_features.h"
#include "src/simkern/version.h"

namespace ebpf {

// ---- register abstraction ----------------------------------------------------

enum class RegType : u8 {
  kNotInit = 0,
  kScalar,
  kPtrToCtx,
  kConstPtrToMap,
  kPtrToMapValue,
  kPtrToMapValueOrNull,
  kPtrToStack,
  kPtrToPacket,
  kPtrToPacketEnd,
  kPtrToMem,        // helper-provided memory (ringbuf record)
  kPtrToMemOrNull,
  kPtrToSock,
  kPtrToSockOrNull,
  kPtrToTask,
  kPtrToTaskOrNull,
  kPtrToFunc,  // callback reference from a BPF_PSEUDO_FUNC ld_imm64
};

std::string_view RegTypeName(RegType type);

inline bool IsPointerType(RegType type) {
  return type != RegType::kNotInit && type != RegType::kScalar;
}
inline bool IsOrNullType(RegType type) {
  return type == RegType::kPtrToMapValueOrNull ||
         type == RegType::kPtrToMemOrNull ||
         type == RegType::kPtrToSockOrNull ||
         type == RegType::kPtrToTaskOrNull;
}
RegType UnwrapOrNull(RegType type);

struct RegState {
  RegType type = RegType::kNotInit;
  // Scalar abstraction (also the variable part of pointer offsets).
  Tnum var_off = TnumUnknown();
  s64 smin = std::numeric_limits<s64>::min();
  s64 smax = std::numeric_limits<s64>::max();
  u64 umin = 0;
  u64 umax = std::numeric_limits<u64>::max();
  // Pointer payload.
  s32 off = 0;        // fixed offset from the object base
  int map_fd = -1;    // kConstPtrToMap / map values
  u32 mem_size = 0;   // kPtrToMem
  u32 pkt_range = 0;  // kPtrToPacket: bytes proven readable past base
  u32 id = 0;         // join key for OrNull refinement & packet ranges
  u32 ref_obj_id = 0; // nonzero if this reg carries an acquired reference

  bool operator==(const RegState&) const = default;

  void MarkUnknownScalar();
  // Unknown scalar bounded by a zero-extending load of `size` bytes.
  void MarkScalarLoad(u32 size);
  void MarkConst(u64 value);
  bool IsConst() const { return type == RegType::kScalar && var_off.IsConst(); }

  // Re-derives bounds from var_off and vice versa (the kernel's
  // __update_reg_bounds / __reg_deduce_bounds / __reg_bound_offset trio).
  void SyncBounds();

  std::string ToString() const;
};

// ---- stack abstraction ----------------------------------------------------------

enum class SlotKind : u8 { kInvalid = 0, kSpill, kMisc, kZero };

struct StackSlot {
  SlotKind kind = SlotKind::kInvalid;
  RegState spilled;  // valid when kind == kSpill

  bool operator==(const StackSlot&) const = default;
};

// ---- per-frame and per-path state ---------------------------------------------------

struct FuncState {
  RegState regs[kNumRegs];
  // Slots by depth from the frame pointer: stack[i] covers bytes
  // [-8 * (i + 1), -8 * i). Only as deep as the deepest slot written so far
  // (the kernel's allocated_stack); a slot past the end reads as kInvalid.
  std::vector<StackSlot> stack;
  u32 callsite = 0;       // return pc in the caller (frames > 0)
  u32 frame_no = 0;
  u32 subprog_start = 0;
};

struct VerifierState {
  std::vector<FuncState> frames;
  std::vector<u32> acquired_refs;  // open ref_obj_ids
  u32 active_spin_lock_id = 0;     // nonzero while a lock is held

  FuncState& cur() { return frames.back(); }
  const FuncState& cur() const { return frames.back(); }
};

// ---- options & results -----------------------------------------------------------------

struct VerifyOptions {
  simkern::KernelVersion version = simkern::kV5_18;
  bool privileged = true;
  // Injected verifier defects consulted during checking (may be null).
  const FaultRegistry* faults = nullptr;
  // kfunc registry for BPF_PSEUDO_KFUNC_CALL checking (may be null: all
  // kfunc calls rejected).
  const class KfuncRegistry* kfuncs = nullptr;
  // Ablation knob: keep state bookkeeping (and infinite-loop detection)
  // but never prune against completed paths. Exposes what states_equal
  // pruning buys (bench/ablation_pruning).
  bool disable_pruning = false;
  // When set, every explored (pc, register) pair joins its scalar claim
  // here: the verifier's side of the range differential oracle. Reset to
  // the program length by Verify itself. Pruning keeps the trace sound:
  // pruned states are subsumed by a stored state that was walked.
  RangeTrace* range_trace = nullptr;
};

struct VerifyStats {
  u64 insns_processed = 0;   // total simulated instructions walked
  u64 states_explored = 0;   // pushed branch states
  u64 states_pruned = 0;     // pruned by states_equal
  u64 peak_states = 0;       // max pending + stored states
  u64 states_leaked = 0;     // nonzero only under the state-leak defect
  u64 verification_wall_ns = 0;
  u32 prog_len = 0;
  u32 subprog_count = 1;
  u32 max_stack_depth = 0;
};

struct VerifyResult {
  VerifyStats stats;
  // Subprogram entry points discovered (pc 0 implicit).
  std::vector<u32> subprog_starts;
  // Instruction indexes of verified bpf_loop callbacks.
  std::vector<u32> callback_entries;
};

// Verifies `prog` against the map table and helper registry. Returns
// Rejected with the kernel-style message on refusal; Internal if the
// verifier itself malfunctions (only under injected defects).
xbase::Result<VerifyResult> Verify(const Program& prog, const MapTable& maps,
                                   const HelperRegistry& helpers,
                                   const VerifyOptions& options);

// Context layout metadata the verifier uses per program type.
struct CtxRules {
  u32 size = 64;
  bool writable = true;
  bool has_packet_ptrs = false;  // data/data_end fields yield packet ptrs
};
CtxRules CtxRulesFor(ProgType type);

}  // namespace ebpf
