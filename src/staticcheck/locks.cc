#include "src/staticcheck/locks.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "src/xbase/strfmt.h"

namespace staticcheck {

namespace {

using ebpf::Insn;
using xbase::s32;
using xbase::StrFormat;

constexpr u32 kMaxDepth = 4;  // nesting deeper than this is saturated
// Helpers whose kernel call graph reaches at least this many functions are
// treated as deadlock-capable when invoked under a held spin lock.
constexpr xbase::usize kLockReachThreshold = 30;

struct LockState {
  bool valid = false;
  u32 lo = 0;  // minimum lock depth over paths reaching this block
  u32 hi = 0;  // maximum lock depth
  bool operator==(const LockState&) const = default;
};

class LockPass {
 public:
  LockPass(const ebpf::Program& prog, const Cfg& cfg,
           const CheckOptions& opts, std::vector<Finding>& findings)
      : prog_(prog), cfg_(cfg), opts_(opts), findings_(findings) {}

  void Run();

 private:
  void Report(Severity severity, u32 pc, std::string_view rule,
              std::string message) {
    if (!reported_.insert({std::string(rule), pc}).second) {
      return;
    }
    Finding finding;
    finding.pass = Pass::kLocks;
    finding.severity = severity;
    finding.pc = pc;
    finding.rule = std::string(rule);
    finding.message = std::move(message);
    findings_.push_back(std::move(finding));
  }

  void HelperUnderLock(u32 pc, s32 helper_id);
  void Transfer(LockState& state, u32 pc);
  void Propagate(u32 block, const LockState& out);

  const ebpf::Program& prog_;
  const Cfg& cfg_;
  const CheckOptions& opts_;
  std::vector<Finding>& findings_;
  std::set<std::pair<std::string, u32>> reported_;
  std::vector<LockState> in_;
  std::deque<u32> worklist_;
};

void LockPass::HelperUnderLock(u32 pc, s32 helper_id) {
  std::string name = StrFormat("helper %d", helper_id);
  xbase::usize reach = 0;
  bool reach_known = false;
  if (opts_.helpers != nullptr) {
    auto spec = opts_.helpers->FindSpec(static_cast<u32>(helper_id));
    if (spec.ok()) {
      name = spec.value()->name;
      if (opts_.callgraph != nullptr &&
          !spec.value()->entry_func.empty()) {
        auto count = opts_.callgraph->ReachableCount(
            spec.value()->entry_func);
        if (count.ok()) {
          reach = count.value();
          reach_known = true;
        }
      }
    }
  }
  if (reach_known && reach >= kLockReachThreshold) {
    Report(Severity::kError, pc, "helper-under-lock",
           StrFormat("%s (reaches %zu kernel functions) is called while a "
                     "spin lock may be held",
                     name.c_str(), reach));
  } else {
    Report(Severity::kWarning, pc, "helper-call-under-lock",
           StrFormat("%s is called while a spin lock may be held",
                     name.c_str()));
  }
}

void LockPass::Transfer(LockState& state, u32 pc) {
  const Insn& insn = prog_.insns[pc];
  if (insn.IsHelperCall()) {
    if (insn.imm == static_cast<s32>(ebpf::kHelperSpinLock)) {
      if (state.hi >= 1) {
        Report(Severity::kError, pc, "double-lock",
               "bpf_spin_lock while a spin lock may already be held "
               "(deadlock)");
      }
      state.lo = std::min(state.lo + 1, kMaxDepth);
      state.hi = std::min(state.hi + 1, kMaxDepth);
    } else if (insn.imm == static_cast<s32>(ebpf::kHelperSpinUnlock)) {
      if (state.lo == 0) {
        Report(Severity::kWarning, pc, "unlock-unheld",
               "bpf_spin_unlock on a path where no lock is held");
      }
      state.lo = state.lo > 0 ? state.lo - 1 : 0;
      state.hi = state.hi > 0 ? state.hi - 1 : 0;
    } else if (state.hi >= 1) {
      HelperUnderLock(pc, insn.imm);
    }
    return;
  }
  if (insn.IsExit() && state.hi >= 1) {
    Report(Severity::kError, pc, "lock-held-at-exit",
           "the program can exit while still holding a spin lock");
  }
}

void LockPass::Propagate(u32 block, const LockState& out) {
  LockState& dest = in_[block];
  if (!dest.valid) {
    dest = out;
    dest.valid = true;
    worklist_.push_back(block);
    return;
  }
  LockState merged = dest;
  merged.lo = std::min(dest.lo, out.lo);
  merged.hi = std::max(dest.hi, out.hi);
  if (!(merged == dest)) {
    dest = merged;
    worklist_.push_back(block);
  }
}

void LockPass::Run() {
  in_.assign(cfg_.blocks.size(), LockState{});
  for (const u32 entry : cfg_.entries) {
    LockState init;
    init.valid = true;
    Propagate(entry, init);
  }
  // The depth lattice is finite (lo/hi in [0, kMaxDepth]) so this
  // converges without widening.
  u64 budget = static_cast<u64>(cfg_.blocks.size()) *
                   (kMaxDepth + 1) * (kMaxDepth + 1) +
               64;
  while (!worklist_.empty() && budget-- > 0) {
    const u32 b = worklist_.front();
    worklist_.pop_front();
    LockState state = in_[b];
    const BasicBlock& block = cfg_.blocks[b];
    for (u32 pc = block.start; pc < block.end;) {
      Transfer(state, pc);
      pc += prog_.insns[pc].IsLdImm64() ? 2 : 1;
    }
    for (const u32 succ : block.succs) {
      Propagate(succ, state);
    }
  }
}

}  // namespace

void RunLocks(const ebpf::Program& prog, const Cfg& cfg,
              const CheckOptions& opts, std::vector<Finding>& findings) {
  LockPass pass(prog, cfg, opts, findings);
  pass.Run();
}

}  // namespace staticcheck
