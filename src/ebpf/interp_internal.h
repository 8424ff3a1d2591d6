// Shared execution state for the two BPF executors. The Execution object
// owns everything one run needs — register frames, the stack mapping, the
// RuntimeHooks implementation helpers call back into — while the actual
// instruction loops live in two sibling translation units:
//
//   interp.cc          — RunFrom: the legacy decode-per-step interpreter
//                        (giant switch over raw instruction words).
//   interp_threaded.cc — RunThreaded: computed-goto threaded dispatch over
//                        the program's pre-decoded micro-ops.
//
// Both loops share this state so ExecOptions::engine can switch between
// them and the differential tests can prove them observationally identical.
// Execution holds only what a run needs: the program's images are the
// loader's (Execute refuses a program without its decoded image), and
// references a helper takes are journalled by the kernel's object table,
// not here.
#pragma once

#include <atomic>
#include <optional>
#include <vector>

#include "src/ebpf/interp.h"
#include "src/ebpf/jit.h"
#include "src/xbase/bytes.h"

namespace ebpf {
namespace internal {

inline constexpr u32 kFrameBytes = kMaxStackBytes;
inline constexpr u32 kMaxRuntimeFrames = 16;  // bpf2bpf frames + callbacks

class Execution final : public RuntimeHooks {
 public:
  Execution(Bpf& bpf, const LoadedProgram& prog, const ExecOptions& opts,
            const Loader* loader)
      : bpf_(bpf), kernel_(bpf.kernel()), opts_(opts), loader_(loader),
        insns_(&prog.image.insns), decoded_(&prog.decoded),
        wild_writes_at_entry_(bpf.kernel().mem().unchecked_wild_writes()) {}

  ~Execution() override {
    if (leased_stack_) {
      // Report how much stack this run could have dirtied so the next
      // lease only re-zeroes that prefix. Frame-relative accesses are
      // bounded by the frame high-water mark; a run that went wild
      // (elided access under a wrong proof) reports "everything".
      const bool went_wild =
          kernel_.mem().unchecked_wild_writes() != wild_writes_at_entry_;
      bpf_.ReleaseExecStack(
          went_wild ? ~static_cast<xbase::usize>(0)
                    : static_cast<xbase::usize>(kFrameBytes) *
                          (stats_.max_frame_depth + 1));
    } else if (stack_base_ != 0) {
      (void)kernel_.mem().Unmap(stack_base_);
    }
  }

  xbase::Result<ExecResult> Run(simkern::Addr ctx_addr);

  // ---- RuntimeHooks ---------------------------------------------------
  xbase::Result<u64> InvokeCallback(u32 entry_pc, u64 arg1,
                                    u64 arg2) override {
    if (callback_depth_ + 1 >= kMaxRuntimeFrames) {
      return xbase::ResourceExhausted("callback nesting too deep");
    }
    ++callback_depth_;
    u64 regs[kNumRegs] = {};
    regs[R1] = arg1;
    regs[R2] = arg2;
    regs[R10] = stack_base_ + kFrameBytes * (callback_depth_ + 1);
    auto result = opts_.engine == ExecEngine::kLegacy
                      ? RunFrom(entry_pc, regs, callback_depth_)
                      : RunThreaded(entry_pc, regs, callback_depth_);
    --callback_depth_;
    return result;
  }

  xbase::Status RequestTailCall(u32 prog_id) override {
    if (loader_ == nullptr) {
      return xbase::FailedPrecondition("no loader for tail calls");
    }
    if (stats_.tail_calls >= kMaxTailCallDepth) {
      return xbase::ResourceExhausted("tail call limit reached");
    }
    pending_tail_call_ = prog_id;
    return xbase::Status::Ok();
  }

  void Charge(u64 ns) override {
    const u64 charged = ns * opts_.cost_multiplier;
    // Single-writer store on the CPU cell Run() resolved — the per-insn
    // charge stays a pair of movs, no TLS walk, no atomic RMW.
    clock_cell_->store(
        clock_cell_->load(std::memory_order_relaxed) + charged,
        std::memory_order_relaxed);
    stats_.sim_time_charged_ns += charged;
  }
  simkern::Addr ctx_addr() const override { return ctx_addr_; }

 private:
  xbase::Status RuntimeFault(xbase::Status status) {
    // Route memory faults through the kernel so the oops is recorded.
    return kernel_.Route(std::move(status));
  }

  // The engines' checked sized accesses, on the program's behalf (key 0):
  // one resolve, then one relaxed load, store or fetch_add of the host word
  // (xbase::LoadRelaxed and friends). A fault becomes the kernel's oops.
  template <typename Fn>
  xbase::Status AccessSized(simkern::Addr addr, u32 size,
                            simkern::MemPerm need, Fn&& fn) {
    auto fault = kernel_.mem().AccessChecked(addr, size, need, 0, fn);
    return fault ? RuntimeFault(fault->ToStatus()) : xbase::Status::Ok();
  }
  xbase::Result<u64> ReadSized(simkern::Addr addr, u32 size) {
    u64 value = 0;
    XB_RETURN_IF_ERROR(AccessSized(addr, size, simkern::MemPerm::kRead,
                                   [&](const u8* p) {
                                     value = xbase::LoadRelaxed(p, size);
                                   }));
    return value;
  }
  xbase::Status WriteSized(simkern::Addr addr, u32 size, u64 value) {
    return AccessSized(addr, size, simkern::MemPerm::kWrite, [&](u8* p) {
      xbase::StoreRelaxed(p, size, value);
    });
  }
  // BPF_ATOMIC add, the only atomic op: concurrent adds from other CPUs
  // are never lost.
  xbase::Status AddSized(simkern::Addr addr, u32 size, u64 value) {
    return AccessSized(addr, size, simkern::MemPerm::kReadWrite, [&](u8* p) {
      xbase::AddRelaxed(p, size, value);
    });
  }

  // ---- Elided-check memory path ---------------------------------------
  // The unchecked (`...U`) micro-ops resolve addresses through a small
  // ring of direct region windows instead of AccessChecked:
  // the static layers proved the access in bounds, so the runtime skips
  // NULL-guard/permission/key enforcement and fault recording entirely.
  // Region byte storage is stable between helper calls, and helpers are
  // the only unmap path, so the windows are flushed at every helper/kfunc
  // invoke boundary and never dangle. When the proof was wrong (a buggy
  // verifier), a crossing access simply misses every window and region —
  // a *wild* access: silently dropped/poisoned, counted on SimMemory, and
  // never an oops. That silence is the paper's point.
  static constexpr u32 kDirectWindows = 4;

  u8* DirectPtr(simkern::Addr addr, u32 size) {
    for (u32 i = 0; i < kDirectWindows; ++i) {
      const simkern::SimMemory::DirectWindow& w = windows_[i];
      // Overflow-safe containment: rel wraps huge for addr < base.
      const u64 rel = addr - w.base;
      if (rel < w.len && w.len - rel >= size) {
        return w.bytes + rel;
      }
    }
    return DirectPtrSlow(addr, size);
  }

  u8* DirectPtrSlow(simkern::Addr addr, u32 size) {
    simkern::SimMemory::DirectWindow w =
        kernel_.mem().TranslateForUnchecked(addr);
    if (w.bytes == nullptr) {
      return nullptr;  // unmapped: wild
    }
    windows_[window_next_] = w;
    window_next_ = (window_next_ + 1) % kDirectWindows;
    const u64 rel = addr - w.base;
    if (w.len - rel < size) {
      return nullptr;  // straddles the region end: wild
    }
    return w.bytes + rel;
  }

  void ResetWindows() {
    for (u32 i = 0; i < kDirectWindows; ++i) {
      windows_[i] = {};
    }
  }

  // The elided sized accesses. A wild read observes a deterministic poison
  // pattern (masked to the access width); a wild write vanishes. Both
  // engines with checks would have oopsed here — the counters are the only
  // witness. Forced inline: every unchecked handler and the superblock loop
  // expand them, and a call per access would cost more than the access.
  [[gnu::always_inline]] u64 LoadUnchecked(simkern::Addr addr, u32 size) {
    if (const u8* p = DirectPtr(addr, size)) {
      return xbase::LoadRelaxed(p, size);
    }
    kernel_.mem().NoteWildRead();
    const u64 poison = 0xdeadbeefdeadbeefULL;
    return size >= 8 ? poison : poison & ((u64{1} << (size * 8)) - 1);
  }

  [[gnu::always_inline]] void StoreUnchecked(simkern::Addr addr, u32 size,
                                             u64 value) {
    if (u8* p = DirectPtr(addr, size)) {
      xbase::StoreRelaxed(p, size, value);
    } else {
      kernel_.mem().NoteWildWrite();
    }
  }

  // Switches the running image to a pending tail-call target. Returns false
  // (after recording the oops) when the target id is gone. Kept out of
  // line: tail calls are rare, and inlined into RunThreaded this loader
  // lookup reshuffled the dispatch loop's code enough to slow
  // dispatch_hotpath's counted-loop case by ~14%.
  [[gnu::noinline]] bool SwitchToTailTarget(u32 target_id) {
    auto target = loader_->Find(target_id);
    if (!target.ok()) {
      return false;
    }
    ++stats_.tail_calls;
    insns_ = &target.value()->image.insns;
    decoded_ = &target.value()->decoded;
    return true;
  }

  // Interprets from `pc` in the current image until the frame at `depth`
  // exits; returns r0. One definition per engine (see the file comment).
  xbase::Result<u64> RunFrom(u32 pc, u64* regs, u32 depth);
  xbase::Result<u64> RunThreaded(u32 pc, u64* regs, u32 depth);

  Bpf& bpf_;
  simkern::Kernel& kernel_;
  ExecOptions opts_;
  const Loader* loader_;
  const std::vector<Insn>* insns_;
  const DecodedImage* decoded_;

  simkern::Addr ctx_addr_ = 0;
  // The bound CPU's clock cell, resolved once per run (see Charge).
  std::atomic<u64>* clock_cell_ = nullptr;
  simkern::Addr stack_base_ = 0;
  bool leased_stack_ = false;
  ExecStats stats_;
  u32 callback_depth_ = 0;
  std::optional<u32> pending_tail_call_;
  simkern::SimMemory::DirectWindow windows_[kDirectWindows] = {};
  u32 window_next_ = 0;
  u64 wild_writes_at_entry_ = 0;
};

}  // namespace internal
}  // namespace ebpf
