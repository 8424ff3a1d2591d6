// Forward dataflow over registers and stack slots: a join-lattice abstract
// interpretation that is deliberately simpler (and independently
// implemented) from the verifier's path enumeration. Path-INsensitive by
// design: states merge at join points instead of forking per path, so the
// analysis terminates in O(blocks) regardless of branch count — and sees
// code the path-sensitive verifier prunes away (constant-folded branches).
//
// Checks: use-before-init (registers and stack bytes), map-value pointer
// arithmetic escaping the value bounds, dereference of unchecked
// maybe-NULL pointers, helper argument arity/type/NULL against
// HelperRegistry specs, acquired-reference leaks at exit, and pointer
// values leaking through R0 at exit.
#pragma once

#include <array>
#include <vector>

#include "src/staticcheck/cfg.h"
#include "src/staticcheck/memdom.h"
#include "src/staticcheck/range.h"
#include "src/staticcheck/zone.h"

namespace staticcheck {

// An open acquire obligation (socket reference etc.).
struct RefObligation {
  u32 id = 0;          // matches AbsVal::id of the holding value
  u32 acquire_pc = 0;
  u32 helper_id = 0;
  bool operator==(const RefObligation&) const = default;
};

struct DfState {
  bool valid = false;  // false = unreached (bottom)
  // True when every path reaching this state crosses a branch edge the
  // range refinement proved infeasible. Checks still run (staticcheck
  // deliberately analyzes code a path-sensitive verifier would prune),
  // but range-trace claims are withheld: a claim about an unreachable pc
  // is vacuous and would produce false range divergences.
  bool range_dead = false;
  std::array<AbsVal, ebpf::kNumRegs> regs;
  // Per-byte init tracking of the stack frame: index k is byte R10-(k+1).
  // Grows with the deepest write; a byte past the end is uninitialized.
  std::vector<u8> stack_init;
  // Typed slot contents (spill/fill tracking); refines stack_init.
  StackDom stack;
  // Relational constraints over registers and tracked slots.
  Zone zone;
  std::vector<RefObligation> refs;  // sorted by id
  bool operator==(const DfState& other) const {
    return valid == other.valid && range_dead == other.range_dead &&
           regs == other.regs &&
           EqualPadded(stack_init, other.stack_init, u8{0}) &&
           stack == other.stack && zone == other.zone && refs == other.refs;
  }
};

struct DataflowResult {
  bool complete = true;  // false if the iteration budget was exhausted
  u32 iterations = 0;    // worklist pops until fixpoint
};

// Runs the pass over every reachable block, appending findings.
DataflowResult RunDataflow(const ebpf::Program& prog, const Cfg& cfg,
                           const CheckOptions& opts,
                           std::vector<Finding>& findings);

}  // namespace staticcheck
