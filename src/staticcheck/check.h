// staticcheck: a second, verifier-independent static analysis over BPF
// bytecode. The in-kernel verifier is a single trust anchor (Table 1: 22
// verifier bugs in two years); this subsystem re-derives a subset of its
// safety judgments from scratch — CFG + dominators, forward dataflow over
// registers and stack, termination heuristics, lock-order projection — so a
// mis-verification can be caught by cross-checking two independent
// analyses (the differential oracle in analysis/diffcheck).
//
// Independence is load-bearing: nothing under src/staticcheck/ may include
// src/ebpf/verifier.h or reuse its state machinery. CI greps for it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/ebpf/helper.h"
#include "src/ebpf/map.h"
#include "src/ebpf/prog.h"
#include "src/ebpf/rangetrace.h"
#include "src/simkern/callgraph.h"
#include "src/xbase/status.h"

namespace staticcheck {

using xbase::s64;
using xbase::u32;
using xbase::u64;
using xbase::u8;

enum class Severity : u8 { kWarning, kError };
enum class Pass : u8 { kCfg, kDataflow, kTermination, kLocks };

std::string_view SeverityName(Severity severity);
std::string_view PassName(Pass pass);

struct Finding {
  Pass pass = Pass::kCfg;
  Severity severity = Severity::kWarning;
  u32 pc = 0;
  std::string rule;     // stable machine-readable id, e.g. "map-value-oob"
  std::string message;  // human explanation
};

struct Report {
  std::vector<Finding> findings;
  u32 block_count = 0;
  u32 back_edge_count = 0;
  // False when the dataflow pass hit its iteration budget and bailed; the
  // findings gathered so far are still valid, just not exhaustive.
  bool analysis_complete = true;
  // Worklist pops until the dataflow fixpoint — the cost metric paired
  // against the verifier's explored-state count in bench/verification_cost.
  u32 dataflow_iterations = 0;

  bool clean() const { return findings.empty(); }
  xbase::usize errors() const;
  bool HasRule(std::string_view rule) const;
};

struct CheckOptions {
  // All optional: passes degrade gracefully (e.g. no map table means map
  // value bounds cannot be checked, so those lints stay silent).
  const ebpf::MapTable* maps = nullptr;
  const ebpf::HelperRegistry* helpers = nullptr;
  const simkern::CallGraph* callgraph = nullptr;
  // When set, the dataflow pass records its per-instruction register range
  // claims here (for diffcheck/rangefuzz cross-checking against the
  // verifier's trace).
  ebpf::RangeTrace* range_trace = nullptr;
  // Gates the zone (relational) domain and spill-value restore through the
  // stack domain. Off = the PR-3 interval product, kept switchable so the
  // precision delta stays measurable (bench/verification_cost A/B).
  bool enable_relational = true;
};

// Runs every pass. Fails (InvalidArgument) only on programs too malformed
// to build a CFG for (empty, or truncated ld_imm64); everything else —
// including structurally broken control flow — is reported as findings.
xbase::Result<Report> RunChecks(const ebpf::Program& prog,
                                const CheckOptions& opts = {});

// Renders findings with disassembly context, one line per finding.
std::string FormatReport(const ebpf::Program& prog, const Report& report);

}  // namespace staticcheck
