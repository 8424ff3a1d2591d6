#include "src/ebpf/jit.h"

#include <algorithm>

#include "src/ebpf/runtime.h"

namespace ebpf {

namespace {

// Per-op handler selection for the four ALU/JMP width-and-form variants.
// `base` is the kAlu64<Name>Imm / kJmp64<Name>Imm enumerator; the variants
// are laid out Imm64, Reg64, Imm32, Reg32 by EBPF_UOP_ALU4/JMP4.
u16 Variant(UOp base, bool is64, bool reg_src) {
  return static_cast<u16>(static_cast<u16>(base) + (is64 ? 0 : 2) +
                          (reg_src ? 1 : 0));
}

UOp AluBase(u8 op) {
  switch (op) {
    case BPF_ADD:
      return UOp::kAlu64AddImm;
    case BPF_SUB:
      return UOp::kAlu64SubImm;
    case BPF_MUL:
      return UOp::kAlu64MulImm;
    case BPF_DIV:
      return UOp::kAlu64DivImm;
    case BPF_MOD:
      return UOp::kAlu64ModImm;
    case BPF_OR:
      return UOp::kAlu64OrImm;
    case BPF_AND:
      return UOp::kAlu64AndImm;
    case BPF_XOR:
      return UOp::kAlu64XorImm;
    case BPF_LSH:
      return UOp::kAlu64LshImm;
    case BPF_RSH:
      return UOp::kAlu64RshImm;
    case BPF_ARSH:
      return UOp::kAlu64ArshImm;
    case BPF_MOV:
      return UOp::kAlu64MovImm;
  }
  return UOp::kUnknownAlu;
}

UOp JmpBase(u8 op) {
  switch (op) {
    case BPF_JEQ:
      return UOp::kJmp64JeqImm;
    case BPF_JNE:
      return UOp::kJmp64JneImm;
    case BPF_JGT:
      return UOp::kJmp64JgtImm;
    case BPF_JGE:
      return UOp::kJmp64JgeImm;
    case BPF_JLT:
      return UOp::kJmp64JltImm;
    case BPF_JLE:
      return UOp::kJmp64JleImm;
    case BPF_JSGT:
      return UOp::kJmp64JsgtImm;
    case BPF_JSGE:
      return UOp::kJmp64JsgeImm;
    case BPF_JSLT:
      return UOp::kJmp64JsltImm;
    case BPF_JSLE:
      return UOp::kJmp64JsleImm;
    case BPF_JSET:
      return UOp::kJmp64JsetImm;
  }
  return UOp::kUnknownJmp;
}

UOp SizedOp(UOp byte_variant, u8 size_code) {
  const u16 base = static_cast<u16>(byte_variant);
  switch (size_code) {
    case BPF_B:
      return static_cast<UOp>(base);
    case BPF_H:
      return static_cast<UOp>(base + 1);
    case BPF_W:
      return static_cast<UOp>(base + 2);
    default:  // BPF_DW
      return static_cast<UOp>(base + 3);
  }
}

// Binds a helper/kfunc call site, resolving the function pointer and cost
// now if the registry is available (it is on every Loader path; a null
// registry defers to the legacy runtime lookup with identical faults).
// Helper sites are additionally re-checked against the declared access
// contract when a gate version is supplied — the dispatch layer does not
// trust that the verifier ran its own gates.
u32 AddCallSite(DecodedImage& out, const Insn& insn, bool is_kfunc,
                ProgType type, const HelperRegistry* helpers,
                const KfuncRegistry* kfuncs, JitStats* stats,
                const simkern::KernelVersion* gate_version, bool skip_gate) {
  CallSite site;
  site.id = static_cast<u32>(insn.imm);
  site.imm = insn.imm;
  site.is_kfunc = is_kfunc;
  if (is_kfunc && kfuncs != nullptr) {
    auto spec = kfuncs->FindSpec(site.id);
    if (spec.ok()) {
      site.cost_ns = spec.value()->cost_ns;
      auto fn = kfuncs->FindFn(site.id);
      site.fn = fn.ok() ? fn.value() : nullptr;
    }
  } else if (!is_kfunc && helpers != nullptr) {
    auto spec = helpers->FindSpec(site.id);
    if (spec.ok()) {
      site.cost_ns = spec.value()->cost_ns;
      auto fn = helpers->FindFn(site.id);
      site.fn = fn.ok() ? fn.value() : nullptr;
      if (gate_version != nullptr && !skip_gate &&
          (!FamilyAdmitsProgType(spec.value()->family, type) ||
           spec.value()->introduced > *gate_version)) {
        site.gate_denied = true;
        if (stats != nullptr) {
          ++stats->call_sites_gate_denied;
        }
      }
    }
  }
  if (site.fn != nullptr && stats != nullptr) {
    ++stats->call_sites_resolved;
  }
  out.calls.push_back(site);
  return static_cast<u32>(out.calls.size() - 1);
}

bool MemProven(const RangeTrace* trace, u32 pc) {
  return trace != nullptr && pc < trace->mem_per_pc.size() &&
         trace->mem_per_pc[pc].seen && trace->mem_per_pc[pc].proven;
}

// Whether the memory access at `pc` may lose its runtime bounds check.
// Fail-closed: no claims, no verifier proof, or a supplied-but-unproven
// staticcheck trace all keep the check. The jit.elide_unproven fault is
// the dispatch-layer defect that elides regardless — the runtime trusts a
// proof nobody produced.
bool ElideAt(const JitClaims* claims, const FaultRegistry* faults, u32 pc) {
  if (claims == nullptr) {
    return false;
  }
  if (faults != nullptr && faults->IsActive(kFaultJitElideUnproven)) {
    return true;
  }
  if (!MemProven(claims->verifier, pc)) {
    return false;
  }
  if (claims->staticcheck != nullptr &&
      !MemProven(claims->staticcheck, pc)) {
    return false;
  }
  return true;
}

bool IsHandler(const MicroOp& op, UOp uop) {
  return op.handler == static_cast<u16>(uop);
}

// Superblock pair fusion over the lowered micro-ops. A matched head is
// rewritten to execute both halves in one dispatch; the tail slot at
// pc + 1 is left INTACT so a branch that enters mid-pair still sees the
// original single-op semantics. Heads bake the tail's pre-rewrite fields
// and the scan is left-to-right, so fusion chains (a tail that is itself
// the head of the next pair) stay correct: tails are never modified and
// each head reads its tail before that tail could become a head.
// Memory-op patterns key on the *unchecked* handlers, so a fused memory
// pair only exists where elision already proved the access — fusion never
// widens the unchecked surface.
void FusePairs(DecodedImage& out, const Program& image, JitStats* stats) {
  const u32 n = static_cast<u32>(out.ops.size());
  for (u32 pc = 0; pc + 1 < n; ++pc) {
    if (image.insns[pc].IsLdImm64()) {
      ++pc;  // never treat an ld_imm64 payload slot as a head
      continue;
    }
    MicroOp& head = out.ops[pc];
    const MicroOp& tail = out.ops[pc + 1];
    u16 fused = 0;
    if (IsHandler(head, UOp::kAlu64AddImm)) {
      if (IsHandler(tail, UOp::kAlu64AddImm)) {
        // head: dst += imm; tail: src += (s32)jump (re-sign-extended at
        // dispatch; the source imm is an s32 so the truncation is lossless).
        head.src = tail.dst;
        head.jump = static_cast<u32>(tail.imm);
        fused = static_cast<u16>(UOp::kFuseAddImmAddImm);
      } else if (IsHandler(tail, UOp::kJa)) {
        // head: dst += imm; then jump to the tail's pre-relocated target.
        head.jump = tail.jump;
        fused = static_cast<u16>(UOp::kFuseAddImmJa);
      }
    } else if (IsHandler(head, UOp::kAlu64AddReg) &&
               IsHandler(tail, UOp::kAlu64AddImm)) {
      // head: dst += src; tail: (reg jump) += imm.
      head.jump = tail.dst;
      head.imm = tail.imm;
      fused = static_cast<u16>(UOp::kFuseAddRegAddImm);
    } else if (IsHandler(head, UOp::kAlu64MovReg) &&
               IsHandler(tail, UOp::kAlu64AddImm) &&
               tail.dst == head.dst) {
      // dst = src; dst += imm.
      head.imm = tail.imm;
      fused = static_cast<u16>(UOp::kFuseMovRegAddImm);
    } else if (IsHandler(head, UOp::kAlu64MovImm) &&
               IsHandler(tail, UOp::kExit)) {
      // dst = imm; exit.
      fused = static_cast<u16>(UOp::kFuseMovImmExit);
    } else if (IsHandler(head, UOp::kLdxWU) &&
               IsHandler(tail, UOp::kAlu64AddImm) &&
               tail.dst == head.dst) {
      // dst = *(u32*)(src + off); dst += imm. jump keeps the memory
      // offset, so the add immediate rides in imm (unused by loads).
      head.imm = tail.imm;
      fused = static_cast<u16>(UOp::kFuseLdxWUAddImm);
    } else if (IsHandler(head, UOp::kLdxDwU) &&
               IsHandler(tail, UOp::kAlu64AddImm) &&
               tail.dst == head.dst) {
      head.imm = tail.imm;
      fused = static_cast<u16>(UOp::kFuseLdxDwUAddImm);
    }
    if (fused != 0) {
      head.handler = fused;
      if (stats != nullptr) {
        ++stats->pairs_fused;
      }
    }
  }
  // Second pass: extend the hot loop-body pair into a triple. A fused
  // add-reg/add-imm head whose intact pc+2 slot is an unconditional jump
  // becomes one dispatch for the whole back-edge body. Slots pc+1 and
  // pc+2 stay intact as always; the jump target and the add immediate
  // share the imm field (target in the high half — the immediate is an
  // s32, so the truncation round-trips).
  for (u32 pc = 0; pc + 2 < n; ++pc) {
    MicroOp& head = out.ops[pc];
    if (!IsHandler(head, UOp::kFuseAddRegAddImm) ||
        !IsHandler(out.ops[pc + 2], UOp::kJa)) {
      continue;
    }
    head.imm = (static_cast<u64>(out.ops[pc + 2].jump) << 32) |
               static_cast<u64>(static_cast<u32>(head.imm));
    head.handler = static_cast<u16>(UOp::kFuseAddRegAddImmJa);
    if (stats != nullptr) {
      ++stats->pairs_fused;
    }
  }
}

// Micro-ops a superblock may contain: straight-line, non-faulting, and
// non-observable mid-block — plain ALU plus the *unchecked* memory ops
// (whose only side effects, wild counters, are order-insensitive). Jumps,
// calls, checked memory, atomics, div/mod (cost parity is simpler to keep
// per-insn) and ld_imm64 (two slots) all break a block.
bool BlockableOp(const MicroOp& op) {
  switch (static_cast<UOp>(op.handler)) {
    case UOp::kAlu64AddImm: case UOp::kAlu64AddReg:
    case UOp::kAlu32AddImm: case UOp::kAlu32AddReg:
    case UOp::kAlu64SubImm: case UOp::kAlu64SubReg:
    case UOp::kAlu32SubImm: case UOp::kAlu32SubReg:
    case UOp::kAlu64AndImm: case UOp::kAlu64AndReg:
    case UOp::kAlu32AndImm: case UOp::kAlu32AndReg:
    case UOp::kAlu64OrImm: case UOp::kAlu64OrReg:
    case UOp::kAlu32OrImm: case UOp::kAlu32OrReg:
    case UOp::kAlu64XorImm: case UOp::kAlu64XorReg:
    case UOp::kAlu32XorImm: case UOp::kAlu32XorReg:
    case UOp::kAlu64MovImm: case UOp::kAlu64MovReg:
    case UOp::kAlu32MovImm: case UOp::kAlu32MovReg:
    case UOp::kLdxBU: case UOp::kLdxHU: case UOp::kLdxWU: case UOp::kLdxDwU:
    case UOp::kStxBU: case UOp::kStxHU: case UOp::kStxWU: case UOp::kStxDwU:
    case UOp::kStBU: case UOp::kStHU: case UOp::kStWU: case UOp::kStDwU:
      return true;
    default:
      return false;
  }
}

// Lower maximal straight-line runs of blockable ops into entry-charged
// superblocks: the head slot becomes kSuperBlock (len in imm, sb_ops start
// index in jump) and the run's original ops are copied to the side table
// for the tight fast loop. Interiors stay intact, so *any* entry into the
// middle of a block (branch, callback entry, periodic re-dispatch) simply
// executes per-insn — no entry-point analysis is needed for correctness.
// Runs before FusePairs so the side-table copies are the plain per-insn
// form; pair fusion may still rewrite interior slots afterwards, which
// only affects the (already-bookkept) per-insn path.
void BuildSuperBlocks(DecodedImage& out, JitStats* stats) {
  constexpr u32 kMinSuperBlock = 4;  // below this the extra dispatch loses
  // Cap block length: the fast path bails to per-insn execution whenever
  // the 4096-insn RCU probe boundary falls inside the block, so a block
  // anywhere near 4096 long would cross on almost every execution. At 256
  // only ~1/16 of executions straddle a boundary.
  constexpr u32 kMaxSuperBlock = 256;
  const u32 n = static_cast<u32>(out.ops.size());
  u32 pc = 0;
  while (pc < n) {
    if (!BlockableOp(out.ops[pc])) {
      ++pc;
      continue;
    }
    u32 end = pc;
    while (end < n && end - pc < kMaxSuperBlock && BlockableOp(out.ops[end])) {
      ++end;
    }
    const u32 len = end - pc;
    if (len >= kMinSuperBlock) {
      const u32 start = static_cast<u32>(out.sb_ops.size());
      // Side-table layout per block: [start] = the head's ORIGINAL op (the
      // slow path re-dispatches it), [start+1 .. start+1+m) = the block's
      // constant-folded op list the fast path runs. Folding is legal
      // precisely because the block is proven straight-line and fault-free:
      // a run of add-immediates to one register collapses to a single
      // wrapping add with identical end state, and the per-insn trace the
      // fold erases is only observable under a tracer — which forces the
      // slow path.
      out.sb_ops.push_back(out.ops[pc]);
      u32 m = 0;
      for (u32 i = pc; i < end; ++i) {
        const MicroOp& cur = out.ops[i];
        if (m > 0) {
          MicroOp& prev = out.sb_ops.back();
          if (IsHandler(cur, UOp::kAlu64AddImm) && prev.dst == cur.dst &&
              (IsHandler(prev, UOp::kAlu64AddImm) ||
               IsHandler(prev, UOp::kAlu64MovImm))) {
            prev.imm += cur.imm;  // wrapping, same as executing both
            continue;
          }
        }
        out.sb_ops.push_back(cur);
        ++m;
      }
      MicroOp head;
      head.handler = static_cast<u16>(UOp::kSuperBlock);
      head.jump = start;
      head.imm = (static_cast<u64>(m) << 32) | len;
      out.ops[pc] = head;
      if (stats != nullptr) {
        ++stats->superblocks;
      }
    }
    pc = end;
  }
}

}  // namespace

DecodedImage DecodeProgram(const Program& image,
                           const HelperRegistry* helpers,
                           const KfuncRegistry* kfuncs, JitStats* stats,
                           const simkern::KernelVersion* gate_version,
                           const FaultRegistry* faults,
                           const JitClaims* claims) {
  DecodedImage out;
  const u32 n = image.len();
  out.ops.resize(n);
  // The injected dispatch defect: the lowering trusts the verifier
  // completely and skips its own contract re-check.
  const bool skip_gate =
      faults != nullptr && faults->IsActive(kFaultRuntimeDispatchUnverified);

  for (u32 pc = 0; pc < n; ++pc) {
    const Insn& insn = image.insns[pc];
    MicroOp& op = out.ops[pc];
    op.dst = insn.dst;
    op.src = insn.src;
    const u8 cls = insn.Class();

    switch (cls) {
      case BPF_ALU64:
      case BPF_ALU: {
        const bool is64 = cls == BPF_ALU64;
        const u8 alu_op = insn.AluOp();
        if (alu_op == BPF_NEG) {
          op.handler = static_cast<u16>(is64 ? UOp::kNeg64 : UOp::kNeg32);
          break;
        }
        if (alu_op == BPF_END) {
          const u32 bits = static_cast<u32>(insn.imm);
          u64 mask = bits < 64 ? (u64{1} << bits) - 1 : ~u64{0};
          if (!is64) {
            mask &= 0xffffffffULL;  // the ALU-class width truncation
          }
          op.imm = mask;
          if (insn.UsesRegSrc()) {  // to big-endian: swap
            op.handler = static_cast<u16>(UOp::kEndSwap);
            op.src = static_cast<u8>(std::min<u32>(bits / 8, 8));
          } else {
            op.handler = static_cast<u16>(UOp::kEndMask);
          }
          break;
        }
        const UOp base = AluBase(alu_op);
        if (base == UOp::kUnknownAlu) {
          op.handler = static_cast<u16>(UOp::kUnknownAlu);
          break;
        }
        op.handler = Variant(base, is64, insn.UsesRegSrc());
        if (!insn.UsesRegSrc()) {
          op.imm = is64 ? static_cast<u64>(static_cast<s64>(insn.imm))
                        : static_cast<u64>(static_cast<u32>(insn.imm));
        }
        break;
      }

      case BPF_LD: {
        if (!insn.IsLdImm64() || pc + 1 >= n) {
          op.handler = static_cast<u16>(UOp::kBadLdImm64);
          break;
        }
        op.handler = static_cast<u16>(UOp::kLdImm64);
        op.jump = pc + 2;
        // Pseudo values resolved once, mirroring load-time fixup: a map
        // reference becomes the tagged runtime handle, a callback ref its
        // entry pc.
        if (insn.src == BPF_PSEUDO_MAP_FD) {
          op.imm = MapHandleFromFd(insn.imm);
        } else if (insn.src == BPF_PSEUDO_FUNC) {
          op.imm = static_cast<u32>(insn.imm);
        } else {
          op.imm = (static_cast<u64>(
                        static_cast<u32>(image.insns[pc + 1].imm))
                    << 32) |
                   static_cast<u32>(insn.imm);
        }
        break;
      }

      case BPF_LDX:
        if (ElideAt(claims, faults, pc)) {
          op.handler = static_cast<u16>(SizedOp(UOp::kLdxBU, insn.Size()));
          if (stats != nullptr) {
            ++stats->checks_elided;
          }
        } else {
          op.handler = static_cast<u16>(SizedOp(UOp::kLdxB, insn.Size()));
        }
        op.jump = static_cast<u32>(static_cast<s32>(insn.off));
        break;

      case BPF_STX:
        if (insn.Mode() == BPF_ATOMIC) {
          // Atomics are never elided: their read-modify-write must stay an
          // observable single point for fault ordering.
          op.handler = static_cast<u16>(
              insn.imm == BPF_ADD ? SizedOp(UOp::kAtomicAddB, insn.Size())
                                  : UOp::kAtomicBad);
        } else if (ElideAt(claims, faults, pc)) {
          op.handler = static_cast<u16>(SizedOp(UOp::kStxBU, insn.Size()));
          if (stats != nullptr) {
            ++stats->checks_elided;
          }
        } else {
          op.handler = static_cast<u16>(SizedOp(UOp::kStxB, insn.Size()));
        }
        op.jump = static_cast<u32>(static_cast<s32>(insn.off));
        break;

      case BPF_ST:
        if (ElideAt(claims, faults, pc)) {
          op.handler = static_cast<u16>(SizedOp(UOp::kStBU, insn.Size()));
          if (stats != nullptr) {
            ++stats->checks_elided;
          }
        } else {
          op.handler = static_cast<u16>(SizedOp(UOp::kStB, insn.Size()));
        }
        op.jump = static_cast<u32>(static_cast<s32>(insn.off));
        op.imm = static_cast<u64>(static_cast<s64>(insn.imm));
        break;

      case BPF_JMP:
      case BPF_JMP32: {
        const u8 jmp_op = insn.JmpOp();
        if (jmp_op == BPF_EXIT) {
          op.handler = static_cast<u16>(UOp::kExit);
          break;
        }
        if (jmp_op == BPF_CALL) {
          if (insn.IsPseudoCall()) {
            op.handler = static_cast<u16>(UOp::kCallBpf);
            op.jump = static_cast<u32>(static_cast<s64>(pc) + 1 + insn.imm);
          } else if (insn.IsKfuncCall()) {
            op.handler = static_cast<u16>(UOp::kCallKfunc);
            op.jump = AddCallSite(out, insn, /*is_kfunc=*/true, image.type,
                                  helpers, kfuncs, stats, gate_version,
                                  skip_gate);
          } else {
            op.handler = static_cast<u16>(UOp::kCallHelper);
            op.jump = AddCallSite(out, insn, /*is_kfunc=*/false, image.type,
                                  helpers, kfuncs, stats, gate_version,
                                  skip_gate);
          }
          break;
        }
        if (jmp_op == BPF_JA) {
          op.handler = static_cast<u16>(UOp::kJa);
          op.jump = static_cast<u32>(static_cast<s64>(pc) + 1 + insn.off);
          break;
        }
        const UOp base = JmpBase(jmp_op);
        if (base == UOp::kUnknownJmp) {
          op.handler = static_cast<u16>(UOp::kUnknownJmp);
          break;
        }
        op.handler = Variant(base, cls == BPF_JMP, insn.UsesRegSrc());
        op.jump = static_cast<u32>(static_cast<s64>(pc) + 1 + insn.off);
        if (!insn.UsesRegSrc()) {
          // Sign-extended for the 64-bit compare; the 32-bit handlers
          // truncate at dispatch, exactly like the legacy operand path.
          op.imm = static_cast<u64>(static_cast<s64>(insn.imm));
        }
        break;
      }

      default:
        op.handler = static_cast<u16>(UOp::kUnknownClass);
        break;
    }
  }

  if (claims != nullptr) {
    BuildSuperBlocks(out, stats);
    FusePairs(out, image, stats);
  }

  if (stats != nullptr) {
    stats->micro_ops = n;
  }
  return out;
}

xbase::Result<JitImage> JitCompile(const Program& prog,
                                   const FaultRegistry& faults,
                                   const HelperRegistry* helpers,
                                   const KfuncRegistry* kfuncs,
                                   const simkern::KernelVersion*
                                       gate_version,
                                   const JitClaims* claims) {
  JitImage out;
  out.image = prog;
  out.stats.insns_translated = prog.len();

  const bool corrupt_branches = faults.IsActive(kFaultJitBranchOffByOne);

  for (u32 pc = 0; pc < out.image.len(); ++pc) {
    Insn& insn = out.image.insns[pc];
    if (insn.IsLdImm64()) {
      ++pc;
      continue;
    }
    const u8 cls = insn.Class();
    if ((cls == BPF_JMP || cls == BPF_JMP32) && !insn.IsCall() &&
        !insn.IsExit()) {
      ++out.stats.branches_relocated;
      if (corrupt_branches && insn.off > 15) {
        // CVE-2021-29154 class: during image finalization the displacement
        // of a long branch is computed against the wrong base and lands one
        // instruction short. The verifier's control-flow proof is now
        // meaningless.
        insn.off = static_cast<s16>(insn.off - 1);
        ++out.stats.branches_corrupted;
      }
    }
  }

  // Lower the finalized (possibly corrupted) image: the off-by-one above
  // becomes an off-by-one in the pre-relocated micro-op targets, so the
  // fault reaches the threaded engine too.
  out.decoded = DecodeProgram(out.image, helpers, kfuncs, &out.stats,
                              gate_version, &faults, claims);
  return out;
}

}  // namespace ebpf
