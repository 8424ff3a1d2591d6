#include "src/ebpf/interp.h"

#include <algorithm>
#include <cstring>

#include "src/ebpf/disasm.h"
#include "src/ebpf/interp_internal.h"
#include "src/xbase/bytes.h"
#include "src/xbase/strfmt.h"

namespace ebpf {

using simkern::Addr;
using xbase::StrFormat;

namespace internal {

xbase::Result<ExecResult> Execution::Run(Addr ctx_addr) {
  ctx_addr_ = ctx_addr;
  constexpr xbase::usize kStackBytes =
      static_cast<xbase::usize>(kFrameBytes) * kMaxRuntimeFrames;
  // Steady state reuses the Bpf-cached stack mapping (re-zeroed on lease);
  // a fresh region is mapped only when the cache is held by a concurrent
  // execution.
  stack_base_ = bpf_.AcquireExecStack(kStackBytes);
  if (stack_base_ != 0) {
    leased_stack_ = true;
  } else {
    XB_ASSIGN_OR_RETURN(
        stack_base_,
        kernel_.mem().Map(kStackBytes, simkern::MemPerm::kReadWrite,
                          simkern::RegionKind::kExtensionStack, "bpf-stack"));
  }
  // Resolve the bound CPU's clock cell once; Charge() runs per dispatched
  // micro-op and must not pay the TLS resolution every time.
  clock_cell_ = &kernel_.clock().BoundCell();
  // Every run sits inside rcu_read_lock/unlock, as the real dispatcher's do.
  kernel_.rcu().ReadLock(kernel_.clock(), "bpf-prog");

  u64 regs[kNumRegs] = {};
  regs[R1] = ctx_addr;
  regs[R10] = stack_base_ + kFrameBytes;  // frame 0 top

  auto result = opts_.engine == ExecEngine::kLegacy
                    ? RunFrom(0, regs, /*depth=*/0)
                    : RunThreaded(0, regs, /*depth=*/0);

  (void)kernel_.rcu().ReadUnlock();
  if (!result.ok()) {
    return result.status();
  }
  ExecResult out;
  out.r0 = result.value();
  out.stats = stats_;
  return out;
}

xbase::Result<u64> Execution::RunFrom(u32 pc, u64* regs, u32 depth) {
  stats_.max_frame_depth = std::max(stats_.max_frame_depth, depth);

  // Saved caller contexts for bpf2bpf calls within this RunFrom activation.
  struct SavedFrame {
    u64 regs[kNumRegs];
    u32 return_pc;
  };
  std::vector<SavedFrame> call_stack;
  u32 bpf_frame = depth;

  while (true) {
    if (pc >= insns_->size()) {
      return RuntimeFault(xbase::KernelFault(
          StrFormat("bpf: pc %u out of range (JIT image corruption?)", pc)));
    }
    ++stats_.insns;
    Charge(simkern::kCostPerInsnNs);
    if ((stats_.insns & 0xfff) == 0) {
      kernel_.rcu().CheckStall(kernel_.clock());
    }
    if (stats_.insns > opts_.max_insns) {
      return xbase::Terminated(StrFormat(
          "harness insn cap (%llu) exceeded — the kernel itself would keep "
          "running",
          static_cast<unsigned long long>(opts_.max_insns)));
    }

    const Insn insn = (*insns_)[pc];
    if (opts_.tracer != nullptr) {
      opts_.tracer->OnInsn(pc, regs);
    }
    const u8 cls = insn.Class();

    switch (cls) {
      case BPF_ALU64:
      case BPF_ALU: {
        const bool is64 = cls == BPF_ALU64;
        const u8 op = insn.AluOp();
        u64 src = insn.UsesRegSrc()
                      ? regs[insn.src]
                      : (is64 ? static_cast<u64>(static_cast<s64>(insn.imm))
                              : static_cast<u32>(insn.imm));
        u64& dst = regs[insn.dst];
        if (!is64) {
          src = static_cast<u32>(src);
        }
        u64 value = is64 ? dst : static_cast<u32>(dst);
        switch (op) {
          case BPF_ADD:
            value += src;
            break;
          case BPF_SUB:
            value -= src;
            break;
          case BPF_MUL:
            value *= src;
            break;
          case BPF_DIV:
            value = src == 0 ? 0 : value / src;
            break;
          case BPF_MOD:
            value = src == 0 ? value : value % src;
            break;
          case BPF_OR:
            value |= src;
            break;
          case BPF_AND:
            value &= src;
            break;
          case BPF_XOR:
            value ^= src;
            break;
          case BPF_LSH:
            value <<= (src & (is64 ? 63 : 31));
            break;
          case BPF_RSH:
            value >>= (src & (is64 ? 63 : 31));
            break;
          case BPF_ARSH:
            if (is64) {
              value = static_cast<u64>(static_cast<s64>(value) >>
                                       (src & 63));
            } else {
              value = static_cast<u32>(static_cast<s32>(value) >>
                                       (src & 31));
            }
            break;
          case BPF_NEG:
            value = ~value + 1;
            break;
          case BPF_MOV:
            value = src;
            break;
          case BPF_END: {
            const u32 bits = static_cast<u32>(insn.imm);
            u64 v = dst;
            if (insn.UsesRegSrc()) {  // to big-endian: swap
              u8 buf[8];
              xbase::StoreLe64(buf, v);
              std::reverse(buf, buf + bits / 8);
              u8 full[8] = {};
              std::memcpy(full, buf, bits / 8);
              v = xbase::LoadLe64(full);
            }
            if (bits < 64) {
              v &= (u64{1} << bits) - 1;
            }
            value = v;
            break;
          }
          default:
            return RuntimeFault(
                xbase::KernelFault("bpf: unknown ALU opcode at runtime"));
        }
        dst = is64 ? value : static_cast<u32>(value);
        ++pc;
        break;
      }

      case BPF_LD: {
        // ld_imm64 (pseudo values resolved here, mirroring load-time fixup).
        if (!insn.IsLdImm64() || pc + 1 >= insns_->size()) {
          return RuntimeFault(xbase::KernelFault("bpf: bad ld_imm64"));
        }
        if (insn.src == BPF_PSEUDO_MAP_FD) {
          regs[insn.dst] = MapHandleFromFd(insn.imm);
        } else if (insn.src == BPF_PSEUDO_FUNC) {
          regs[insn.dst] = static_cast<u32>(insn.imm);
        } else {
          regs[insn.dst] =
              (static_cast<u64>(static_cast<u32>((*insns_)[pc + 1].imm))
               << 32) |
              static_cast<u32>(insn.imm);
        }
        pc += 2;
        break;
      }

      case BPF_LDX: {
        const u32 size = SizeBytes(insn.Size());
        XB_ASSIGN_OR_RETURN(
            regs[insn.dst],
            ReadSized(regs[insn.src] + static_cast<s64>(insn.off), size));
        ++pc;
        break;
      }
      case BPF_STX: {
        const u32 size = SizeBytes(insn.Size());
        const Addr addr = regs[insn.dst] + static_cast<s64>(insn.off);
        if (insn.Mode() == BPF_ATOMIC) {
          if (insn.imm != BPF_ADD) {
            return RuntimeFault(
                xbase::KernelFault("bpf: unsupported atomic op at runtime"));
          }
          XB_RETURN_IF_ERROR(AddSized(addr, size, regs[insn.src]));
          ++pc;
          break;
        }
        XB_RETURN_IF_ERROR(WriteSized(addr, size, regs[insn.src]));
        ++pc;
        break;
      }
      case BPF_ST: {
        const u32 size = SizeBytes(insn.Size());
        XB_RETURN_IF_ERROR(WriteSized(
            regs[insn.dst] + static_cast<s64>(insn.off), size,
            static_cast<u64>(static_cast<s64>(insn.imm))));
        ++pc;
        break;
      }

      case BPF_JMP:
      case BPF_JMP32: {
        const u8 op = insn.JmpOp();
        if (op == BPF_EXIT) {
          if (!call_stack.empty()) {
            // Return from bpf2bpf call.
            const u64 r0 = regs[R0];
            SavedFrame& saved = call_stack.back();
            std::memcpy(regs, saved.regs, sizeof(saved.regs));
            regs[R0] = r0;
            pc = saved.return_pc;
            call_stack.pop_back();
            --bpf_frame;
            break;
          }
          return regs[R0];
        }
        if (op == BPF_CALL) {
          if (insn.IsPseudoCall()) {
            if (bpf_frame + 1 >= kMaxRuntimeFrames) {
              return RuntimeFault(
                  xbase::KernelFault("bpf: call stack overflow"));
            }
            SavedFrame saved;
            std::memcpy(saved.regs, regs, sizeof(saved.regs));
            saved.return_pc = pc + 1;
            call_stack.push_back(saved);
            ++bpf_frame;
            stats_.max_frame_depth =
                std::max(stats_.max_frame_depth, bpf_frame);
            regs[R10] = stack_base_ + kFrameBytes * (bpf_frame + 1);
            pc = static_cast<u32>(static_cast<s64>(pc) + 1 + insn.imm);
            break;
          }
          // Helper or kfunc call.
          ++stats_.helper_calls;
          xbase::Result<const HelperFn*> fn = xbase::NotFound("");
          u64 cost_ns = simkern::kCostHelperCallNs;
          if (insn.IsKfuncCall()) {
            auto spec = bpf_.kfuncs().FindSpec(static_cast<u32>(insn.imm));
            if (!spec.ok()) {
              return RuntimeFault(xbase::KernelFault(
                  StrFormat("bpf: call to unknown kfunc #%d", insn.imm)));
            }
            cost_ns = spec.value()->cost_ns;
            fn = bpf_.kfuncs().FindFn(static_cast<u32>(insn.imm));
          } else {
            // Consult the lowering's access-control verdict for this call
            // site (same bit the threaded engine checks, so the engines
            // deny identically when the verifier wrongly admitted a call).
            if (pc < decoded_->ops.size()) {
              const MicroOp& mop = decoded_->ops[pc];
              if (mop.handler == static_cast<u16>(UOp::kCallHelper) &&
                  decoded_->calls[mop.jump].gate_denied) {
                return RuntimeFault(xbase::KernelFault(StrFormat(
                    "bpf: helper call #%d denied by access contract at "
                    "dispatch",
                    insn.imm)));
              }
            }
            auto spec = bpf_.helpers().FindSpec(static_cast<u32>(insn.imm));
            if (!spec.ok()) {
              return RuntimeFault(xbase::KernelFault(
                  StrFormat("bpf: call to unknown helper #%d", insn.imm)));
            }
            cost_ns = spec.value()->cost_ns;
            fn = bpf_.helpers().FindFn(static_cast<u32>(insn.imm));
          }
          Charge(cost_ns);
          HelperCtx hctx = bpf_.MakeHelperCtx(this);
          const HelperArgs args = {regs[R1], regs[R2], regs[R3], regs[R4],
                                   regs[R5]};
          auto ret = (*fn.value())(hctx, args);
          if (!ret.ok()) {
            return ret.status();
          }
          regs[R0] = ret.value();
          // Scratch registers die across calls; poison them so buggy
          // programs fail loudly rather than silently.
          for (int r = R1; r <= R5; ++r) {
            regs[r] = 0xdead2bad00000000ULL + static_cast<u64>(r);
          }
          if (pending_tail_call_.has_value()) {
            const u32 target_id = *pending_tail_call_;
            pending_tail_call_.reset();
            if (!SwitchToTailTarget(target_id)) {
              return RuntimeFault(
                  xbase::KernelFault("bpf: tail call to missing program"));
            }
            regs[R1] = ctx_addr_;
            pc = 0;
            break;
          }
          ++pc;
          break;
        }
        if (op == BPF_JA) {
          pc = static_cast<u32>(static_cast<s64>(pc) + 1 + insn.off);
          break;
        }
        // Conditional branches.
        const bool is32 = cls == BPF_JMP32;
        u64 dst = regs[insn.dst];
        u64 src = insn.UsesRegSrc()
                      ? regs[insn.src]
                      : static_cast<u64>(static_cast<s64>(insn.imm));
        if (is32) {
          dst = static_cast<u32>(dst);
          src = static_cast<u32>(src);
        }
        const s64 sdst = is32 ? static_cast<s32>(dst)
                              : static_cast<s64>(dst);
        const s64 ssrc = is32 ? static_cast<s32>(src)
                              : static_cast<s64>(src);
        bool taken = false;
        switch (op) {
          case BPF_JEQ:
            taken = dst == src;
            break;
          case BPF_JNE:
            taken = dst != src;
            break;
          case BPF_JGT:
            taken = dst > src;
            break;
          case BPF_JGE:
            taken = dst >= src;
            break;
          case BPF_JLT:
            taken = dst < src;
            break;
          case BPF_JLE:
            taken = dst <= src;
            break;
          case BPF_JSGT:
            taken = sdst > ssrc;
            break;
          case BPF_JSGE:
            taken = sdst >= ssrc;
            break;
          case BPF_JSLT:
            taken = sdst < ssrc;
            break;
          case BPF_JSLE:
            taken = sdst <= ssrc;
            break;
          case BPF_JSET:
            taken = (dst & src) != 0;
            break;
          default:
            return RuntimeFault(
                xbase::KernelFault("bpf: unknown jump opcode"));
        }
        pc = taken ? static_cast<u32>(static_cast<s64>(pc) + 1 + insn.off)
                   : pc + 1;
        break;
      }

      default:
        return RuntimeFault(
            xbase::KernelFault("bpf: unknown instruction class at runtime"));
    }
  }
}

}  // namespace internal

xbase::Result<ExecResult> Execute(Bpf& bpf, const LoadedProgram& prog,
                                  Addr ctx_addr, const ExecOptions& options,
                                  const Loader* loader) {
  if (prog.decoded.empty() && !prog.image.insns.empty()) {
    return xbase::FailedPrecondition(
        StrFormat("bpf: program '%s' has no decoded image (DecodeProgram it "
                  "before Execute)",
                  prog.image.name.c_str()));
  }
  internal::Execution execution(bpf, prog, options, loader);
  return execution.Run(ctx_addr);
}

}  // namespace ebpf
