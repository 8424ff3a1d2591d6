// The threaded execution engine: dispatches over the JIT's pre-decoded
// micro-ops (decoded.h) instead of re-decoding raw instruction words per
// step. Dispatch is a computed goto (the GNU labels-as-values extension,
// like the __builtin_expect and __atomic builtins src/xbase/bytes.h already
// needs) through a label table generated from the same X-macro as the UOp
// enum.
//
// Observational equivalence with the legacy interpreter (interp.cc) is the
// contract — tests/ebpf/engine_equiv_test.cc enforces it over the fuzz
// corpus. The per-instruction bookkeeping the legacy loop does eagerly
// (stats_.insns, 1ns time charge) is batched in locals here and flushed —
// EBPF_SYNC — at every point where the difference could be observed: before
// helper/kfunc invokes, memory accesses (a fault records an oops with a
// clock timestamp), RCU stall checks, and every return.
#include <algorithm>
#include <cstring>

#include "src/ebpf/interp_internal.h"
#include "src/ebpf/runtime.h"
#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace ebpf {
namespace internal {

using simkern::Addr;
using xbase::StrFormat;

namespace {
constexpr u64 kScratchPoison = 0xdead2bad00000000ULL;
}  // namespace

#define EBPF_CASE(Name) lbl_##Name:
// True threaded dispatch: every handler ends with its own copy of the
// fetch/dispatch sequence, so each indirect jump site gets its own branch
// predictor state (the classic ~2x win over a single shared dispatch
// point). The rare events — pc escaping the image, the 4096-insn RCU
// stall probe, the harness insn cap — branch out to shared slow-path
// labels so the replicated fast path stays small.
#define EBPF_NEXT()                                                  \
  do {                                                               \
    if (__builtin_expect(pc >= num_ops, 0)) goto bad_pc;             \
    ++insns;                                                         \
    if (__builtin_expect((insns & 0xfff) == 0, 0)) goto periodic;    \
    if (__builtin_expect(insns > max_insns, 0)) goto insn_cap;       \
    op = ops[pc];                                                    \
    if (__builtin_expect(tracer != nullptr, 0)) {                    \
      tracer->OnInsn(pc, regs);                                      \
    }                                                                \
    goto* kDispatch[op.handler];                                     \
  } while (0)

// Flush the batched per-insn bookkeeping into the shared state the rest of
// the simulation observes. The simulated-time charge is derived from the
// insn delta since the last flush (1ns per insn, exactly what the legacy
// loop charges eagerly), so the hot path only maintains `insns`.
#define EBPF_SYNC()                                                  \
  do {                                                               \
    stats_.insns = insns;                                            \
    if (insns != synced_insns) {                                     \
      Charge((insns - synced_insns) * simkern::kCostPerInsnNs);      \
      synced_insns = insns;                                          \
    }                                                                \
  } while (0)

// The byte offset of a memory micro-op ((u32)(s32)insn.off at decode time),
// widened back so address arithmetic wraps exactly like the legacy
// `regs[x] + static_cast<s64>(insn.off)`.
#define EBPF_MEM_OFF(Op) \
  static_cast<u64>(static_cast<s64>(static_cast<s32>((Op).jump)))

// ---- handler body generators ----------------------------------------------
// EXPR64 sees u64 v (current dst value) and u64 s (operand); EXPR32 sees
// both as u32 with the result truncated — the same width discipline the
// legacy switch applies via its value/src locals.
#define EBPF_ALU_CASES(Name, EXPR64, EXPR32)        \
  EBPF_CASE(Alu64##Name##Imm) {                     \
    const u64 v = regs[op.dst];                     \
    const u64 s = op.imm;                           \
    (void)v;                                        \
    (void)s;                                        \
    regs[op.dst] = (EXPR64);                        \
    ++pc;                                           \
    EBPF_NEXT();                                    \
  }                                                 \
  EBPF_CASE(Alu64##Name##Reg) {                     \
    const u64 v = regs[op.dst];                     \
    const u64 s = regs[op.src];                     \
    (void)v;                                        \
    (void)s;                                        \
    regs[op.dst] = (EXPR64);                        \
    ++pc;                                           \
    EBPF_NEXT();                                    \
  }                                                 \
  EBPF_CASE(Alu32##Name##Imm) {                     \
    const u32 v = static_cast<u32>(regs[op.dst]);   \
    const u32 s = static_cast<u32>(op.imm);         \
    (void)v;                                        \
    (void)s;                                        \
    regs[op.dst] = static_cast<u32>(EXPR32);        \
    ++pc;                                           \
    EBPF_NEXT();                                    \
  }                                                 \
  EBPF_CASE(Alu32##Name##Reg) {                     \
    const u32 v = static_cast<u32>(regs[op.dst]);   \
    const u32 s = static_cast<u32>(regs[op.src]);   \
    (void)v;                                        \
    (void)s;                                        \
    regs[op.dst] = static_cast<u32>(EXPR32);        \
    ++pc;                                           \
    EBPF_NEXT();                                    \
  }

// COND64 compares u64 d/s, COND32 compares u32 d/s; op.jump is the
// pre-relocated taken target.
#define EBPF_JMP_CASES(Name, COND64, COND32)        \
  EBPF_CASE(Jmp64##Name##Imm) {                     \
    const u64 d = regs[op.dst];                     \
    const u64 s = op.imm;                           \
    pc = (COND64) ? op.jump : pc + 1;               \
    EBPF_NEXT();                                    \
  }                                                 \
  EBPF_CASE(Jmp64##Name##Reg) {                     \
    const u64 d = regs[op.dst];                     \
    const u64 s = regs[op.src];                     \
    pc = (COND64) ? op.jump : pc + 1;               \
    EBPF_NEXT();                                    \
  }                                                 \
  EBPF_CASE(Jmp32##Name##Imm) {                     \
    const u32 d = static_cast<u32>(regs[op.dst]);   \
    const u32 s = static_cast<u32>(op.imm);         \
    pc = (COND32) ? op.jump : pc + 1;               \
    EBPF_NEXT();                                    \
  }                                                 \
  EBPF_CASE(Jmp32##Name##Reg) {                     \
    const u32 d = static_cast<u32>(regs[op.dst]);   \
    const u32 s = static_cast<u32>(regs[op.src]);   \
    pc = (COND32) ? op.jump : pc + 1;               \
    EBPF_NEXT();                                    \
  }

#define EBPF_LDX_CASE(Sz, Bytes)                                      \
  EBPF_CASE(Ldx##Sz) {                                                \
    EBPF_SYNC();                                                      \
    auto loaded = ReadSized(regs[op.src] + EBPF_MEM_OFF(op), Bytes);  \
    if (!loaded.ok()) {                                               \
      return loaded.status();                                         \
    }                                                                 \
    regs[op.dst] = loaded.value();                                    \
    ++pc;                                                             \
    EBPF_NEXT();                                                      \
  }

// The checked stores and the BPF_ATOMIC add: Fn is WriteSized or AddSized.
#define EBPF_CHECKED_CASE(Name, Bytes, Fn, Value)                     \
  EBPF_CASE(Name) {                                                   \
    EBPF_SYNC();                                                      \
    xbase::Status stored =                                            \
        Fn(regs[op.dst] + EBPF_MEM_OFF(op), Bytes, Value);            \
    if (!stored.ok()) {                                               \
      return stored;                                                  \
    }                                                                 \
    ++pc;                                                             \
    EBPF_NEXT();                                                      \
  }

// Elided-check memory ops. The static layers proved the access in bounds,
// so there is no fault point — and therefore no observable point, which is
// why the EBPF_SYNC flush disappears along with the check (the per-insn
// counter stays batched straight through proven superblocks; the 4096-insn
// RCU probe in EBPF_NEXT is retained everywhere for exact stall-check
// parity with the legacy engine). Address resolution goes through the
// direct-window ring (interp_internal.h); a miss against every region is a
// wild access — poisoned read / dropped write, counted on SimMemory, never
// an oops. When the proof was wrong, this is the paper's silent corruption.
#define EBPF_LDXU_CASE(Sz, Bytes)                                     \
  EBPF_CASE(Ldx##Sz##U) {                                             \
    regs[op.dst] = LoadUnchecked(regs[op.src] + EBPF_MEM_OFF(op), Bytes); \
    ++pc;                                                             \
    EBPF_NEXT();                                                      \
  }

#define EBPF_STOREU_CASE(Name, Bytes, Value)                          \
  EBPF_CASE(Name) {                                                   \
    StoreUnchecked(regs[op.dst] + EBPF_MEM_OFF(op), Bytes, Value);    \
    ++pc;                                                             \
    EBPF_NEXT();                                                      \
  }

// Second-half bookkeeping of a fused pair, replicating exactly what
// EBPF_NEXT would have done between the two halves: count the tail insn,
// probe/cap on it, trace it with the mid-pair register state. The periodic
// path re-enters at dispatch_fetch with pc set to the INTACT tail slot, so
// the stall probe, cap recheck, and tracer all observe the same stream as
// the unfused form (and the tail executes exactly once — this macro skips
// its own trace on that path because dispatch_fetch traces).
#define EBPF_FUSE_STEP2(SecondPc)                                     \
  do {                                                                \
    ++insns;                                                          \
    if ((insns & 0xfff) == 0) {                                       \
      pc = (SecondPc);                                                \
      goto periodic;                                                  \
    }                                                                 \
    if (insns > max_insns) {                                          \
      goto insn_cap;                                                  \
    }                                                                 \
    if (tracer != nullptr) {                                          \
      tracer->OnInsn((SecondPc), regs);                               \
    }                                                                 \
  } while (0)

xbase::Result<u64> Execution::RunThreaded(u32 pc, u64* regs, u32 depth) {
  stats_.max_frame_depth = std::max(stats_.max_frame_depth, depth);

  // Saved caller contexts for bpf2bpf calls within this activation. Fixed
  // array, not a vector: no heap traffic in steady state (the frame-count
  // guard below keeps call_depth in range).
  struct SavedFrame {
    u64 regs[kNumRegs];
    u32 return_pc;
  };
  SavedFrame call_stack[kMaxRuntimeFrames];
  u32 call_depth = 0;
  u32 bpf_frame = depth;

  const MicroOp* ops = decoded_->ops.data();
  u32 num_ops = static_cast<u32>(decoded_->ops.size());
  const CallSite* calls = decoded_->calls.data();
  const MicroOp* sb = decoded_->sb_ops.data();

  InsnTracer* const tracer = opts_.tracer;
  const u64 max_insns = opts_.max_insns;

  // Batched bookkeeping; EBPF_SYNC() flushes into stats_/the sim clock.
  u64 insns = stats_.insns;
  u64 synced_insns = insns;
  MicroOp op;

  // Label table in UOp order — generated from the same X-macro as the enum,
  // so the indices can't drift.
  static const void* const kDispatch[] = {
#define EBPF_UOP_LABEL(Name) &&lbl_##Name,
      EBPF_UOP_LIST(EBPF_UOP_LABEL)
#undef EBPF_UOP_LABEL
  };

// Shared (non-replicated) dispatch preamble: the initial entry and the
// resume point after slow-path events. The order of checks matches the
// legacy interpreter exactly: pc bounds → count → RCU stall probe every
// 4096 insns → harness cap → fetch → trace.
  if (pc >= num_ops) {
    goto bad_pc;
  }
  ++insns;
  if ((insns & 0xfff) == 0) {
    goto periodic;
  }
  if (insns > max_insns) {
    goto insn_cap;
  }
dispatch_fetch:
  op = ops[pc];
  if (tracer != nullptr) {
    tracer->OnInsn(pc, regs);
  }
// Dispatch `op` as already fetched/bookkept/traced — the superblock slow
// path re-enters here with the head's ORIGINAL op swapped in (EBPF_NEXT
// already counted and traced that insn when it fetched the block head).
dispatch_op:
  goto* kDispatch[op.handler];

  EBPF_CASE(LdImm64) {
    regs[op.dst] = op.imm;
    pc = op.jump;
    EBPF_NEXT();
  }
  EBPF_CASE(BadLdImm64) {
    EBPF_SYNC();
    return RuntimeFault(xbase::KernelFault("bpf: bad ld_imm64"));
  }

  EBPF_LDX_CASE(B, 1)
  EBPF_LDX_CASE(H, 2)
  EBPF_LDX_CASE(W, 4)
  EBPF_LDX_CASE(Dw, 8)

  EBPF_CHECKED_CASE(StxB, 1, WriteSized, regs[op.src])
  EBPF_CHECKED_CASE(StxH, 2, WriteSized, regs[op.src])
  EBPF_CHECKED_CASE(StxW, 4, WriteSized, regs[op.src])
  EBPF_CHECKED_CASE(StxDw, 8, WriteSized, regs[op.src])

  EBPF_CHECKED_CASE(StB, 1, WriteSized, op.imm)
  EBPF_CHECKED_CASE(StH, 2, WriteSized, op.imm)
  EBPF_CHECKED_CASE(StW, 4, WriteSized, op.imm)
  EBPF_CHECKED_CASE(StDw, 8, WriteSized, op.imm)

  EBPF_CHECKED_CASE(AtomicAddB, 1, AddSized, regs[op.src])
  EBPF_CHECKED_CASE(AtomicAddH, 2, AddSized, regs[op.src])
  EBPF_CHECKED_CASE(AtomicAddW, 4, AddSized, regs[op.src])
  EBPF_CHECKED_CASE(AtomicAddDw, 8, AddSized, regs[op.src])

  EBPF_LDXU_CASE(B, 1)
  EBPF_LDXU_CASE(H, 2)
  EBPF_LDXU_CASE(W, 4)
  EBPF_LDXU_CASE(Dw, 8)

  EBPF_STOREU_CASE(StxBU, 1, regs[op.src])
  EBPF_STOREU_CASE(StxHU, 2, regs[op.src])
  EBPF_STOREU_CASE(StxWU, 4, regs[op.src])
  EBPF_STOREU_CASE(StxDwU, 8, regs[op.src])

  EBPF_STOREU_CASE(StBU, 1, op.imm)
  EBPF_STOREU_CASE(StHU, 2, op.imm)
  EBPF_STOREU_CASE(StWU, 4, op.imm)
  EBPF_STOREU_CASE(StDwU, 8, op.imm)

  // ---- fused superops (see FusePairs in jit.cc for the field packing).
  // Each executes head-then-tail semantics in one dispatch; the tail slot
  // stays intact for mid-pair branch entries and periodic re-dispatch.

  // dst += imm; src(reg idx) += (s32)jump.
  EBPF_CASE(FuseAddImmAddImm) {
    regs[op.dst] += op.imm;
    EBPF_FUSE_STEP2(pc + 1);
    regs[op.src] +=
        static_cast<u64>(static_cast<s64>(static_cast<s32>(op.jump)));
    pc += 2;
    EBPF_NEXT();
  }

  // dst += imm; goto jump (the tail's pre-relocated target).
  EBPF_CASE(FuseAddImmJa) {
    regs[op.dst] += op.imm;
    EBPF_FUSE_STEP2(pc + 1);
    pc = op.jump;
    EBPF_NEXT();
  }

  // dst += src; reg[jump] += imm.
  EBPF_CASE(FuseAddRegAddImm) {
    regs[op.dst] += regs[op.src];
    EBPF_FUSE_STEP2(pc + 1);
    regs[op.jump] += op.imm;
    pc += 2;
    EBPF_NEXT();
  }

  // dst = src; dst += imm.
  EBPF_CASE(FuseMovRegAddImm) {
    regs[op.dst] = regs[op.src];
    EBPF_FUSE_STEP2(pc + 1);
    regs[op.dst] += op.imm;
    pc += 2;
    EBPF_NEXT();
  }

  // dst = imm; exit — replica of the Exit body after the mov.
  EBPF_CASE(FuseMovImmExit) {
    regs[op.dst] = op.imm;
    EBPF_FUSE_STEP2(pc + 1);
    if (call_depth != 0) {
      const u64 r0 = regs[R0];
      SavedFrame& saved = call_stack[--call_depth];
      std::memcpy(regs, saved.regs, sizeof(saved.regs));
      regs[R0] = r0;
      pc = saved.return_pc;
      --bpf_frame;
      EBPF_NEXT();
    }
    EBPF_SYNC();
    return regs[R0];
  }

  // dst = *(u32*)(src + off); dst += imm. jump keeps the memory offset.
  EBPF_CASE(FuseLdxWUAddImm) {
    regs[op.dst] = LoadUnchecked(regs[op.src] + EBPF_MEM_OFF(op), 4);
    EBPF_FUSE_STEP2(pc + 1);
    regs[op.dst] += op.imm;
    pc += 2;
    EBPF_NEXT();
  }

  // dst = *(u64*)(src + off); dst += imm.
  EBPF_CASE(FuseLdxDwUAddImm) {
    regs[op.dst] = LoadUnchecked(regs[op.src] + EBPF_MEM_OFF(op), 8);
    EBPF_FUSE_STEP2(pc + 1);
    regs[op.dst] += op.imm;
    pc += 2;
    EBPF_NEXT();
  }

  // dst += src; reg[jump] += (s32)imm; goto (imm >> 32) — the whole
  // counted-loop back-edge body in one dispatch. Slots pc+1 / pc+2 intact.
  EBPF_CASE(FuseAddRegAddImmJa) {
    regs[op.dst] += regs[op.src];
    EBPF_FUSE_STEP2(pc + 1);
    regs[op.jump] += static_cast<u64>(
        static_cast<s64>(static_cast<s32>(static_cast<u32>(op.imm))));
    EBPF_FUSE_STEP2(pc + 2);
    pc = static_cast<u32>(op.imm >> 32);
    EBPF_NEXT();
  }

  // Entry-charged straight-line superblock (imm = len, jump = sb_ops start).
  // Fast path: the whole block's insn cost is charged up front and the
  // original per-insn ops run in a tight loop with no per-insn fetch,
  // probe, cap, or dispatch — the analysis proved the block straight-line
  // and fault-free, so there is no observable point inside it. Any run
  // where the bookkeeping WOULD be observable — a tracer attached, the
  // harness insn cap landing mid-block, or the 4096-insn RCU probe
  // boundary crossing inside the block — takes the slow path instead:
  // execute the head's original op (already counted and traced by the
  // dispatch that fetched this slot) and fall back to per-insn execution
  // through the intact interior slots, preserving exact boundary parity
  // with the legacy engine.
  EBPF_CASE(SuperBlock) {
    const u32 len = static_cast<u32>(op.imm);
    const MicroOp* bop = sb + op.jump;
    if (tracer != nullptr || insns + len - 1 > max_insns ||
        ((insns + len - 1) >> 12) != (insns >> 12)) {
      op = *bop;  // the head's original micro-op
      goto dispatch_op;
    }
    insns += len - 1;
    ++bop;  // skip the slow-path head copy; run the folded list
    for (const MicroOp* bend = bop + static_cast<u32>(op.imm >> 32);
         bop != bend; ++bop) {
      const MicroOp& b = *bop;
      switch (static_cast<UOp>(b.handler)) {
        case UOp::kAlu64AddImm: regs[b.dst] += b.imm; break;
        case UOp::kAlu64AddReg: regs[b.dst] += regs[b.src]; break;
        case UOp::kAlu32AddImm:
          regs[b.dst] = static_cast<u32>(regs[b.dst]) + static_cast<u32>(b.imm);
          break;
        case UOp::kAlu32AddReg:
          regs[b.dst] =
              static_cast<u32>(regs[b.dst]) + static_cast<u32>(regs[b.src]);
          break;
        case UOp::kAlu64SubImm: regs[b.dst] -= b.imm; break;
        case UOp::kAlu64SubReg: regs[b.dst] -= regs[b.src]; break;
        case UOp::kAlu32SubImm:
          regs[b.dst] = static_cast<u32>(regs[b.dst]) - static_cast<u32>(b.imm);
          break;
        case UOp::kAlu32SubReg:
          regs[b.dst] =
              static_cast<u32>(regs[b.dst]) - static_cast<u32>(regs[b.src]);
          break;
        case UOp::kAlu64AndImm: regs[b.dst] &= b.imm; break;
        case UOp::kAlu64AndReg: regs[b.dst] &= regs[b.src]; break;
        case UOp::kAlu32AndImm:
          regs[b.dst] = static_cast<u32>(regs[b.dst]) & static_cast<u32>(b.imm);
          break;
        case UOp::kAlu32AndReg:
          regs[b.dst] =
              static_cast<u32>(regs[b.dst]) & static_cast<u32>(regs[b.src]);
          break;
        case UOp::kAlu64OrImm: regs[b.dst] |= b.imm; break;
        case UOp::kAlu64OrReg: regs[b.dst] |= regs[b.src]; break;
        case UOp::kAlu32OrImm:
          regs[b.dst] = static_cast<u32>(regs[b.dst]) | static_cast<u32>(b.imm);
          break;
        case UOp::kAlu32OrReg:
          regs[b.dst] =
              static_cast<u32>(regs[b.dst]) | static_cast<u32>(regs[b.src]);
          break;
        case UOp::kAlu64XorImm: regs[b.dst] ^= b.imm; break;
        case UOp::kAlu64XorReg: regs[b.dst] ^= regs[b.src]; break;
        case UOp::kAlu32XorImm:
          regs[b.dst] = static_cast<u32>(regs[b.dst]) ^ static_cast<u32>(b.imm);
          break;
        case UOp::kAlu32XorReg:
          regs[b.dst] =
              static_cast<u32>(regs[b.dst]) ^ static_cast<u32>(regs[b.src]);
          break;
        case UOp::kAlu64MovImm: regs[b.dst] = b.imm; break;
        case UOp::kAlu64MovReg: regs[b.dst] = regs[b.src]; break;
        case UOp::kAlu32MovImm: regs[b.dst] = static_cast<u32>(b.imm); break;
        case UOp::kAlu32MovReg:
          regs[b.dst] = static_cast<u32>(regs[b.src]);
          break;
        // The unchecked memory ops; the width is 1 << (handler - B form).
        case UOp::kLdxBU: case UOp::kLdxHU: case UOp::kLdxWU:
        case UOp::kLdxDwU:
          regs[b.dst] = LoadUnchecked(
              regs[b.src] + EBPF_MEM_OFF(b),
              1u << (b.handler - static_cast<u16>(UOp::kLdxBU)));
          break;
        case UOp::kStxBU: case UOp::kStxHU: case UOp::kStxWU:
        case UOp::kStxDwU:
          StoreUnchecked(regs[b.dst] + EBPF_MEM_OFF(b),
                         1u << (b.handler - static_cast<u16>(UOp::kStxBU)),
                         regs[b.src]);
          break;
        case UOp::kStBU: case UOp::kStHU: case UOp::kStWU:
        case UOp::kStDwU:
          StoreUnchecked(regs[b.dst] + EBPF_MEM_OFF(b),
                         1u << (b.handler - static_cast<u16>(UOp::kStBU)),
                         b.imm);
          break;
        default:
          break;  // unreachable: BlockableOp gates admission at lowering
      }
    }
    pc += len;
    EBPF_NEXT();
  }

  EBPF_CASE(AtomicBad) {
    EBPF_SYNC();
    return RuntimeFault(
        xbase::KernelFault("bpf: unsupported atomic op at runtime"));
  }

  EBPF_CASE(Ja) {
    pc = op.jump;
    EBPF_NEXT();
  }

  EBPF_CASE(Exit) {
    if (call_depth != 0) {
      // Return from bpf2bpf call.
      const u64 r0 = regs[R0];
      SavedFrame& saved = call_stack[--call_depth];
      std::memcpy(regs, saved.regs, sizeof(saved.regs));
      regs[R0] = r0;
      pc = saved.return_pc;
      --bpf_frame;
      EBPF_NEXT();
    }
    EBPF_SYNC();
    return regs[R0];
  }

  EBPF_CASE(CallBpf) {
    if (bpf_frame + 1 >= kMaxRuntimeFrames) {
      EBPF_SYNC();
      return RuntimeFault(xbase::KernelFault("bpf: call stack overflow"));
    }
    SavedFrame& saved = call_stack[call_depth++];
    std::memcpy(saved.regs, regs, sizeof(saved.regs));
    saved.return_pc = pc + 1;
    ++bpf_frame;
    stats_.max_frame_depth = std::max(stats_.max_frame_depth, bpf_frame);
    regs[R10] = stack_base_ + kFrameBytes * (bpf_frame + 1);
    pc = op.jump;
    EBPF_NEXT();
  }

  EBPF_CASE(CallHelper) {
    const CallSite& site = calls[op.jump];
    if (site.gate_denied) {
      // The dispatch layer's own access-control verdict, computed at
      // lowering time against the declared helper contract. Reached only
      // when the verifier wrongly admitted the call (injected gate
      // faults): deny before the helper body can run.
      EBPF_SYNC();
      return RuntimeFault(xbase::KernelFault(StrFormat(
          "bpf: helper call #%d denied by access contract at dispatch",
          site.imm)));
    }
    ++stats_.helper_calls;
    const HelperFn* fn = site.fn;
    u64 cost_ns = site.cost_ns;
    if (fn == nullptr) {
      // Id unknown at lowering time, or no registries at lowering: resolve
      // at runtime exactly like the legacy interpreter, fault included.
      EBPF_SYNC();
      auto spec = bpf_.helpers().FindSpec(site.id);
      if (!spec.ok()) {
        return RuntimeFault(xbase::KernelFault(
            StrFormat("bpf: call to unknown helper #%d", site.imm)));
      }
      cost_ns = spec.value()->cost_ns;
      fn = bpf_.helpers().FindFn(site.id).value();
    }
    EBPF_SYNC();
    Charge(cost_ns);
    if (site.fn != nullptr && site.id == kHelperMapLookupElem) {
      // Inline fast path for bpf_map_lookup_elem: observationally identical
      // to the registered helper (helpers_core.cc), minus the Result<> and
      // key-vector plumbing. Falls through to the generic invoke when the
      // key doesn't fit the scratch buffer.
      auto fd = FdFromMapHandle(regs[R1]);
      if (!fd.ok()) {
        return fd.status();
      }
      auto map = bpf_.maps().Find(fd.value());
      if (!map.ok()) {
        return map.status();
      }
      const u32 key_size = map.value()->spec().key_size;
      alignas(8) u8 key_buf[64];
      if (key_size <= sizeof(key_buf)) {
        if (auto fault = kernel_.mem().ReadChecked(
                regs[R2], {key_buf, key_size}, /*access_key=*/0)) {
          return kernel_.Route(fault->ToStatus());
        }
        auto addr = map.value()->LookupAddr(kernel_, {key_buf, key_size});
        regs[R0] = addr.ok() ? addr.value() : 0;  // NULL on miss
        for (int r = R1; r <= R5; ++r) {
          regs[r] = kScratchPoison + static_cast<u64>(r);
        }
        ++pc;
        EBPF_NEXT();
      }
    }
    HelperCtx hctx = bpf_.MakeHelperCtx(this);
    const HelperArgs args = {regs[R1], regs[R2], regs[R3], regs[R4],
                             regs[R5]};
    auto ret = (*fn)(hctx, args);
    // Helpers are the only path that can unmap regions (map delete,
    // ringbuf churn): drop the direct windows so elided accesses re-translate.
    ResetWindows();
    // Nested callbacks advanced the shared counter and may have
    // tail-called; re-sync the locals with the world.
    insns = stats_.insns;
    synced_insns = insns;
    ops = decoded_->ops.data();
    num_ops = static_cast<u32>(decoded_->ops.size());
    calls = decoded_->calls.data();
    sb = decoded_->sb_ops.data();
    if (!ret.ok()) {
      return ret.status();
    }
    regs[R0] = ret.value();
    // Scratch registers die across calls; poison them so buggy programs
    // fail loudly rather than silently.
    for (int r = R1; r <= R5; ++r) {
      regs[r] = kScratchPoison + static_cast<u64>(r);
    }
    if (pending_tail_call_.has_value()) {
      const u32 target_id = *pending_tail_call_;
      pending_tail_call_.reset();
      if (!SwitchToTailTarget(target_id)) {
        return RuntimeFault(
            xbase::KernelFault("bpf: tail call to missing program"));
      }
      ops = decoded_->ops.data();
      num_ops = static_cast<u32>(decoded_->ops.size());
      calls = decoded_->calls.data();
      sb = decoded_->sb_ops.data();
      regs[R1] = ctx_addr_;
      pc = 0;
      EBPF_NEXT();
    }
    ++pc;
    EBPF_NEXT();
  }

  EBPF_CASE(CallKfunc) {
    const CallSite& site = calls[op.jump];
    ++stats_.helper_calls;
    const HelperFn* fn = site.fn;
    u64 cost_ns = site.cost_ns;
    if (fn == nullptr) {
      EBPF_SYNC();
      auto spec = bpf_.kfuncs().FindSpec(site.id);
      if (!spec.ok()) {
        return RuntimeFault(xbase::KernelFault(
            StrFormat("bpf: call to unknown kfunc #%d", site.imm)));
      }
      cost_ns = spec.value()->cost_ns;
      fn = bpf_.kfuncs().FindFn(site.id).value();
    }
    EBPF_SYNC();
    Charge(cost_ns);
    HelperCtx hctx = bpf_.MakeHelperCtx(this);
    const HelperArgs args = {regs[R1], regs[R2], regs[R3], regs[R4],
                             regs[R5]};
    auto ret = (*fn)(hctx, args);
    ResetWindows();  // kfuncs can unmap regions too
    insns = stats_.insns;
    synced_insns = insns;
    ops = decoded_->ops.data();
    num_ops = static_cast<u32>(decoded_->ops.size());
    calls = decoded_->calls.data();
    sb = decoded_->sb_ops.data();
    if (!ret.ok()) {
      return ret.status();
    }
    regs[R0] = ret.value();
    for (int r = R1; r <= R5; ++r) {
      regs[r] = kScratchPoison + static_cast<u64>(r);
    }
    if (pending_tail_call_.has_value()) {
      const u32 target_id = *pending_tail_call_;
      pending_tail_call_.reset();
      if (!SwitchToTailTarget(target_id)) {
        return RuntimeFault(
            xbase::KernelFault("bpf: tail call to missing program"));
      }
      ops = decoded_->ops.data();
      num_ops = static_cast<u32>(decoded_->ops.size());
      calls = decoded_->calls.data();
      sb = decoded_->sb_ops.data();
      regs[R1] = ctx_addr_;
      pc = 0;
      EBPF_NEXT();
    }
    ++pc;
    EBPF_NEXT();
  }

  EBPF_CASE(Neg64) {
    regs[op.dst] = ~regs[op.dst] + 1;
    ++pc;
    EBPF_NEXT();
  }
  EBPF_CASE(Neg32) {
    regs[op.dst] = static_cast<u32>(~static_cast<u32>(regs[op.dst]) + 1);
    ++pc;
    EBPF_NEXT();
  }

  EBPF_CASE(EndSwap) {
    // op.src holds the pre-clamped byte count, op.imm the final mask with
    // the ALU-class truncation folded in.
    u8 buf[8];
    xbase::StoreLe64(buf, regs[op.dst]);
    std::reverse(buf, buf + op.src);
    u8 full[8] = {};
    std::memcpy(full, buf, op.src);
    regs[op.dst] = xbase::LoadLe64(full) & op.imm;
    ++pc;
    EBPF_NEXT();
  }
  EBPF_CASE(EndMask) {
    regs[op.dst] &= op.imm;
    ++pc;
    EBPF_NEXT();
  }

  EBPF_CASE(UnknownAlu) {
    EBPF_SYNC();
    return RuntimeFault(
        xbase::KernelFault("bpf: unknown ALU opcode at runtime"));
  }
  EBPF_CASE(UnknownJmp) {
    EBPF_SYNC();
    return RuntimeFault(xbase::KernelFault("bpf: unknown jump opcode"));
  }
  EBPF_CASE(UnknownClass) {
    EBPF_SYNC();
    return RuntimeFault(
        xbase::KernelFault("bpf: unknown instruction class at runtime"));
  }

  EBPF_ALU_CASES(Add, v + s, v + s)
  EBPF_ALU_CASES(Sub, v - s, v - s)
  EBPF_ALU_CASES(Mul, v * s, v * s)
  EBPF_ALU_CASES(Div, s == 0 ? 0 : v / s, s == 0 ? 0 : v / s)
  EBPF_ALU_CASES(Mod, s == 0 ? v : v % s, s == 0 ? v : v % s)
  EBPF_ALU_CASES(Or, v | s, v | s)
  EBPF_ALU_CASES(And, v & s, v & s)
  EBPF_ALU_CASES(Xor, v ^ s, v ^ s)
  EBPF_ALU_CASES(Lsh, v << (s & 63), v << (s & 31))
  EBPF_ALU_CASES(Rsh, v >> (s & 63), v >> (s & 31))
  EBPF_ALU_CASES(Arsh, static_cast<u64>(static_cast<s64>(v) >> (s & 63)),
                 static_cast<u32>(static_cast<s32>(v) >> (s & 31)))
  EBPF_ALU_CASES(Mov, s, s)

  EBPF_JMP_CASES(Jeq, d == s, d == s)
  EBPF_JMP_CASES(Jne, d != s, d != s)
  EBPF_JMP_CASES(Jgt, d > s, d > s)
  EBPF_JMP_CASES(Jge, d >= s, d >= s)
  EBPF_JMP_CASES(Jlt, d < s, d < s)
  EBPF_JMP_CASES(Jle, d <= s, d <= s)
  EBPF_JMP_CASES(Jsgt, static_cast<s64>(d) > static_cast<s64>(s),
                 static_cast<s32>(d) > static_cast<s32>(s))
  EBPF_JMP_CASES(Jsge, static_cast<s64>(d) >= static_cast<s64>(s),
                 static_cast<s32>(d) >= static_cast<s32>(s))
  EBPF_JMP_CASES(Jslt, static_cast<s64>(d) < static_cast<s64>(s),
                 static_cast<s32>(d) < static_cast<s32>(s))
  EBPF_JMP_CASES(Jsle, static_cast<s64>(d) <= static_cast<s64>(s),
                 static_cast<s32>(d) <= static_cast<s32>(s))
  EBPF_JMP_CASES(Jset, (d & s) != 0, (d & s) != 0)

  // ---- shared slow paths (reached only via goto from the dispatch
  // preambles above; never by fallthrough) -------------------------------
periodic:
  EBPF_SYNC();
  kernel_.rcu().CheckStall(kernel_.clock());
  if (insns > max_insns) {
    goto insn_cap;
  }
  goto dispatch_fetch;

bad_pc:
  EBPF_SYNC();
  return RuntimeFault(xbase::KernelFault(
      StrFormat("bpf: pc %u out of range (JIT image corruption?)", pc)));

insn_cap:
  EBPF_SYNC();
  return xbase::Terminated(StrFormat(
      "harness insn cap (%llu) exceeded — the kernel itself would keep "
      "running",
      static_cast<unsigned long long>(max_insns)));
}

}  // namespace internal
}  // namespace ebpf
