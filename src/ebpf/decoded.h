// The lowered execution form the threaded engine dispatches over. The JIT
// (src/ebpf/jit.cc) translates a verified image into one MicroOp per
// instruction slot: the opcode is resolved to a dense handler id, operands
// are pre-extracted and pre-sign-extended for their width, branch targets
// are pre-relocated to absolute pcs, ld_imm64 pseudo values (map handles,
// callback pcs) are resolved once, and helper/kfunc call sites carry a
// pre-looked-up function pointer and cost. Everything the legacy
// interpreter re-derives on every step is derived here exactly once, after
// verification — which is also why the CVE-2021-29154 branch fault
// propagates into this form: the lowering runs over the already-finalized
// (possibly corrupted) image, so a miscomputed displacement becomes a
// miscomputed pre-relocated target the verifier never saw.
#pragma once

#include <vector>

#include "src/ebpf/helper.h"
#include "src/ebpf/insn.h"

namespace ebpf {

// Every micro-op handler. The X-macro keeps the enum and the computed-goto
// label table in lockstep: adding a handler here adds it to both or the
// build breaks.
//
// The trailing groups, from LdxBU on, are only ever emitted by
// analysis-driven lowering (never straight decode): the `...U` variants are
// unchecked memory ops — the runtime bounds check is elided because both the
// verifier and (when run) staticcheck proved the access in bounds at that
// pc — the `Fuse...` superops execute two adjacent micro-ops in one
// dispatch, and `SuperBlock` heads an entry-charged straight-line run. A
// fused head keeps its tail slot intact so mid-pair branch entries still
// work; the packing of the second op's fields is described at each
// handler in interp_threaded.cc.
#define EBPF_UOP_ALU4(X, Name)                                       \
  X(Alu64##Name##Imm) X(Alu64##Name##Reg)                            \
  X(Alu32##Name##Imm) X(Alu32##Name##Reg)
#define EBPF_UOP_JMP4(X, Name)                                       \
  X(Jmp64##Name##Imm) X(Jmp64##Name##Reg)                            \
  X(Jmp32##Name##Imm) X(Jmp32##Name##Reg)

#define EBPF_UOP_LIST(X)                                             \
  X(LdImm64) X(BadLdImm64)                                           \
  X(LdxB) X(LdxH) X(LdxW) X(LdxDw)                                   \
  X(StxB) X(StxH) X(StxW) X(StxDw)                                   \
  X(StB) X(StH) X(StW) X(StDw)                                       \
  X(AtomicAddB) X(AtomicAddH) X(AtomicAddW) X(AtomicAddDw)           \
  X(AtomicBad)                                                       \
  X(Ja) X(Exit) X(CallBpf) X(CallHelper) X(CallKfunc)                \
  X(Neg64) X(Neg32) X(EndSwap) X(EndMask)                            \
  X(UnknownAlu) X(UnknownJmp) X(UnknownClass)                        \
  EBPF_UOP_ALU4(X, Add) EBPF_UOP_ALU4(X, Sub) EBPF_UOP_ALU4(X, Mul)  \
  EBPF_UOP_ALU4(X, Div) EBPF_UOP_ALU4(X, Mod) EBPF_UOP_ALU4(X, Or)   \
  EBPF_UOP_ALU4(X, And) EBPF_UOP_ALU4(X, Xor) EBPF_UOP_ALU4(X, Lsh)  \
  EBPF_UOP_ALU4(X, Rsh) EBPF_UOP_ALU4(X, Arsh) EBPF_UOP_ALU4(X, Mov) \
  EBPF_UOP_JMP4(X, Jeq) EBPF_UOP_JMP4(X, Jne) EBPF_UOP_JMP4(X, Jgt)  \
  EBPF_UOP_JMP4(X, Jge) EBPF_UOP_JMP4(X, Jlt) EBPF_UOP_JMP4(X, Jle)  \
  EBPF_UOP_JMP4(X, Jsgt) EBPF_UOP_JMP4(X, Jsge)                      \
  EBPF_UOP_JMP4(X, Jslt) EBPF_UOP_JMP4(X, Jsle) EBPF_UOP_JMP4(X, Jset) \
  X(LdxBU) X(LdxHU) X(LdxWU) X(LdxDwU)                               \
  X(StxBU) X(StxHU) X(StxWU) X(StxDwU)                               \
  X(StBU) X(StHU) X(StWU) X(StDwU)                                   \
  X(FuseAddImmAddImm) X(FuseAddImmJa) X(FuseAddRegAddImm)            \
  X(FuseMovRegAddImm) X(FuseMovImmExit)                              \
  X(FuseLdxWUAddImm) X(FuseLdxDwUAddImm)                             \
  X(FuseAddRegAddImmJa)                                              \
  X(SuperBlock)

enum class UOp : u16 {
#define EBPF_UOP_ENUM(Name) k##Name,
  EBPF_UOP_LIST(EBPF_UOP_ENUM)
#undef EBPF_UOP_ENUM
};

// One pre-decoded instruction slot, 16 bytes, semantics per handler:
//   jump — pre-relocated branch target / pc after ld_imm64 / call-site
//          index / memory offset bit pattern ((u32)(s32)off);
//   imm  — pre-extracted, pre-sign-extended operand (full 64-bit value for
//          ld_imm64, final mask for END, store value for ST).
struct MicroOp {
  u16 handler = 0;  // a UOp value
  u8 dst = 0;
  u8 src = 0;
  u32 jump = 0;
  u64 imm = 0;
};
static_assert(sizeof(MicroOp) == 16, "micro-op layout is load-bearing");

// A pre-resolved helper/kfunc call site. `fn` is a pointer into the
// registry (stable for the Bpf instance's lifetime); null means the
// registry was unavailable or the id unknown at lowering time, and the
// engine falls back to the legacy lookup — preserving the exact
// "call to unknown helper" fault behaviour.
struct CallSite {
  const HelperFn* fn = nullptr;
  u64 cost_ns = simkern::kCostHelperCallNs;
  u32 id = 0;
  s32 imm = 0;  // raw imm, for fault-message fidelity
  bool is_kfunc = false;
  // The runtime's own copy of the access-control decision: at lowering time
  // the call site is re-checked against the helper contract (family admits
  // the program type, helper exists at the gate version). A verifier that
  // wrongly admitted the call (family-gate-skip / version off-by-one
  // faults) still hits this independent layer — both engines consult the
  // same bit, so they deny identically.
  bool gate_denied = false;
};

struct DecodedImage {
  std::vector<MicroOp> ops;     // 1:1 with image instruction slots
  std::vector<CallSite> calls;  // indexed by MicroOp::jump of Call* ops
  // Side table for kSuperBlock heads: the original per-insn micro-ops of
  // each superblock, stored contiguously (jump = start index, imm = len).
  // The block's interior slots in `ops` stay INTACT, so a branch entering
  // mid-block executes them one at a time; only the head slot is replaced,
  // and its fast path runs these copies in a tight loop with the block's
  // insn cost charged at entry.
  std::vector<MicroOp> sb_ops;

  bool empty() const { return ops.empty(); }
};

}  // namespace ebpf
