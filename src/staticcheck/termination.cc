#include "src/staticcheck/termination.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "src/xbase/strfmt.h"

namespace staticcheck {

namespace {

using ebpf::Insn;
using xbase::s32;
using xbase::StrFormat;

// Statically-derived total loop iteration count above which the pass
// reports a runtime-budget finding.
constexpr u64 kRuntimeBudgetIters = 1u << 20;

void AddFinding(std::vector<Finding>& findings, Severity severity, u32 pc,
                std::string rule, std::string message) {
  Finding finding;
  finding.pass = Pass::kTermination;
  finding.severity = severity;
  finding.pc = pc;
  finding.rule = std::move(rule);
  finding.message = std::move(message);
  findings.push_back(std::move(finding));
}

// Natural loop of a back edge: head, latch, and every block that reaches
// the latch without passing through the head.
std::set<u32> LoopBlocks(const Cfg& cfg, const BackEdge& edge) {
  std::set<u32> loop{edge.to, edge.from};
  std::vector<u32> worklist{edge.from};
  while (!worklist.empty()) {
    const u32 b = worklist.back();
    worklist.pop_back();
    if (b == edge.to) {
      continue;
    }
    for (const u32 pred : cfg.blocks[b].preds) {
      if (loop.insert(pred).second) {
        worklist.push_back(pred);
      }
    }
  }
  return loop;
}

// Registers written by an instruction (conservatively; calls clobber all
// caller-saved registers).
void WrittenRegs(const Insn& insn, std::set<u8>& out) {
  switch (insn.Class()) {
    case ebpf::BPF_ALU:
    case ebpf::BPF_ALU64:
    case ebpf::BPF_LDX:
    case ebpf::BPF_LD:
      out.insert(insn.dst);
      return;
    case ebpf::BPF_JMP:
    case ebpf::BPF_JMP32:
      if (insn.IsCall()) {
        for (u8 regno = ebpf::R0; regno <= ebpf::R5; ++regno) {
          out.insert(regno);
        }
      }
      return;
    default:
      return;
  }
}

// The last instruction slot of a block.
u32 TerminatorPc(const ebpf::Program& prog, const BasicBlock& block) {
  u32 last = block.start;
  for (u32 pc = block.start; pc < block.end;) {
    last = pc;
    pc += prog.insns[pc].IsLdImm64() ? 2 : 1;
  }
  return last;
}

bool IsCondJmp(const Insn& insn) {
  const u8 cls = insn.Class();
  if (cls != ebpf::BPF_JMP && cls != ebpf::BPF_JMP32) {
    return false;
  }
  const u8 op = insn.JmpOp();
  return op != ebpf::BPF_JA && op != ebpf::BPF_CALL &&
         op != ebpf::BPF_EXIT;
}

// --- Back-edge loops -----------------------------------------------------

void CheckNaturalLoops(const ebpf::Program& prog, const Cfg& cfg,
                       std::vector<Finding>& findings) {
  std::set<u32> reported_heads;
  for (const BackEdge& edge : cfg.back_edges) {
    const std::set<u32> loop = LoopBlocks(cfg, edge);
    const u32 head_pc = cfg.blocks[edge.to].start;
    if (!reported_heads.insert(head_pc).second) {
      continue;  // one report per loop head
    }

    // Exit edges and the registers the exit conditions read.
    bool has_exit = false;
    std::set<u8> cond_regs;
    for (const u32 b : loop) {
      bool exits = false;
      for (const u32 succ : cfg.blocks[b].succs) {
        if (loop.count(succ) == 0) {
          exits = true;
        }
      }
      if (!exits) {
        continue;
      }
      has_exit = true;
      const Insn& term = prog.insns[TerminatorPc(prog, cfg.blocks[b])];
      if (IsCondJmp(term)) {
        cond_regs.insert(term.dst);
        if (term.UsesRegSrc()) {
          cond_regs.insert(term.src);
        }
      }
    }
    if (!has_exit) {
      AddFinding(findings, Severity::kError, head_pc, "infinite-loop",
                 StrFormat("the loop headed at pc %u has no exit edge",
                           head_pc));
      continue;
    }

    // Progress heuristic: some register the exit condition reads must be
    // written inside the loop, else the condition is loop-invariant.
    std::set<u8> written;
    for (const u32 b : loop) {
      const BasicBlock& block = cfg.blocks[b];
      for (u32 pc = block.start; pc < block.end;) {
        WrittenRegs(prog.insns[pc], written);
        pc += prog.insns[pc].IsLdImm64() ? 2 : 1;
      }
    }
    bool progresses = false;
    for (const u8 regno : cond_regs) {
      if (written.count(regno) != 0) {
        progresses = true;
      }
    }
    if (!progresses) {
      AddFinding(findings, Severity::kWarning, head_pc, "unbounded-loop",
                 StrFormat("no register read by the exit condition of the "
                           "loop at pc %u is updated inside it",
                           head_pc));
    }
  }
}

// --- bpf_loop iteration products -----------------------------------------

struct LoopSite {
  u32 pc = 0;
  u64 count = 0;          // 0 = statically unknown
  u32 callback_pc = 0;
  bool callback_known = false;
};

// The function (entry range) a pc belongs to, given sorted entry pcs.
u32 OwningEntry(const std::vector<u32>& entry_pcs, u32 pc) {
  u32 owner = entry_pcs.front();
  for (const u32 entry : entry_pcs) {
    if (entry <= pc) {
      owner = entry;
    }
  }
  return owner;
}

u64 SaturatingMul(u64 a, u64 b) {
  if (a != 0 && b > std::numeric_limits<u64>::max() / a) {
    return std::numeric_limits<u64>::max();
  }
  return a * b;
}

// Total statically-estimated bpf_loop iterations starting from `entry`,
// following callback nesting.
u64 NestedIters(const std::map<u32, std::vector<LoopSite>>& by_entry,
                u32 entry, u32 depth) {
  if (depth > 8) {
    return std::numeric_limits<u64>::max();  // cyclic callback chain
  }
  u64 total = 1;
  const auto it = by_entry.find(entry);
  if (it == by_entry.end()) {
    return total;
  }
  u64 sum = 0;
  for (const LoopSite& site : it->second) {
    const u64 count = site.count == 0 ? 1 : site.count;
    const u64 inner = site.callback_known
                          ? NestedIters(by_entry, site.callback_pc,
                                        depth + 1)
                          : 1;
    sum += SaturatingMul(count, inner);
  }
  return std::max<u64>(total, sum);
}

void CheckBpfLoops(const ebpf::Program& prog, const Cfg& cfg,
                   std::vector<Finding>& findings) {
  // Collect call sites with a block-local backward scan for the constant
  // count (R1) and the callback reference (R2).
  std::vector<u32> entry_pcs;
  for (const u32 entry : cfg.entries) {
    entry_pcs.push_back(cfg.blocks[entry].start);
  }
  std::sort(entry_pcs.begin(), entry_pcs.end());

  std::map<u32, std::vector<LoopSite>> by_entry;
  for (const BasicBlock& block : cfg.blocks) {
    if (!block.reachable) {
      continue;
    }
    for (u32 pc = block.start; pc < block.end;) {
      const Insn& insn = prog.insns[pc];
      const u32 width = insn.IsLdImm64() ? 2 : 1;
      if (insn.IsHelperCall() &&
          insn.imm == static_cast<s32>(ebpf::kHelperLoop)) {
        LoopSite site;
        site.pc = pc;
        for (u32 back = block.start; back < pc;) {
          const Insn& prior = prog.insns[back];
          if (prior.Class() == ebpf::BPF_ALU64 &&
              prior.AluOp() == ebpf::BPF_MOV && !prior.UsesRegSrc() &&
              prior.dst == ebpf::R1) {
            site.count = static_cast<u64>(
                std::max<s64>(0, static_cast<s64>(prior.imm)));
          }
          if (prior.IsLdImm64() && prior.src == ebpf::BPF_PSEUDO_FUNC &&
              prior.dst == ebpf::R2 && prior.imm >= 0 &&
              static_cast<u32>(prior.imm) < prog.len()) {
            site.callback_pc = static_cast<u32>(prior.imm);
            site.callback_known = true;
          }
          back += prior.IsLdImm64() ? 2 : 1;
        }
        if (site.count == 0) {
          AddFinding(findings, Severity::kWarning, pc,
                     "loop-bound-unknown",
                     "bpf_loop iteration count is not a block-local "
                     "constant");
        }
        by_entry[OwningEntry(entry_pcs, pc)].push_back(site);
      }
      pc += width;
    }
  }
  if (by_entry.empty()) {
    return;
  }

  const u64 total = NestedIters(by_entry, entry_pcs.front(), 0);
  if (total > kRuntimeBudgetIters) {
    AddFinding(findings, Severity::kWarning, 0, "loop-budget",
               StrFormat("statically-estimated bpf_loop iterations (%llu) "
                         "exceed the runtime budget of %llu",
                         static_cast<unsigned long long>(total),
                         static_cast<unsigned long long>(kRuntimeBudgetIters)));
  }
}

}  // namespace

void RunTermination(const ebpf::Program& prog, const Cfg& cfg,
                    std::vector<Finding>& findings) {
  CheckNaturalLoops(prog, cfg, findings);
  CheckBpfLoops(prog, cfg, findings);
}

}  // namespace staticcheck
