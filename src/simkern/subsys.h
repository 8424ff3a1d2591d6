// Synthetic kernel subsystems. The paper measures helper call-graph sizes
// against Linux 5.18, whose subsystems contain thousands of functions; our
// simulated kernel generates deterministic stand-in call graphs sized to
// scale. Each subsystem is a chain f0 → f1 → ... → f(n-1) plus extra random
// forward edges (so the graph is a DAG with realistic fanout); reachability
// from f(k) is exactly n - k, which lets helper implementations link into a
// subsystem at a chosen depth to model their measured complexity class.
//
// Sizes below follow the three complexity bands the paper reports for the
// 249 helpers of Linux 5.18: trivial helpers (no callees), mid-weight
// helpers (30+ callees: map plumbing, task walking), heavyweight helpers
// (500+ callees: networking, and bpf_sys_bpf at 4845 nodes).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/simkern/callgraph.h"
#include "src/xbase/types.h"

namespace simkern {

struct SubsystemSpec {
  std::string name;
  xbase::usize function_count;
  xbase::usize extra_fanout;  // additional forward edges per node
};

// The subsystems of the simulated kernel, scaled ~1:1 in *structure* (band
// boundaries at 30 and 500 nodes are preserved exactly; absolute totals are
// smaller than Linux by roughly 2x to keep analysis fast).
const std::vector<SubsystemSpec>& DefaultSubsystems();

// Generates every subsystem in `specs` into `graph`. Node names are
// "<subsys>.f<k>". Deterministic for a given seed.
void BuildSubsystems(CallGraph& graph, const std::vector<SubsystemSpec>& specs,
                     xbase::u64 seed);

// Id of the node in `subsys` whose reachable set has exactly `reach` nodes,
// reach clamped to [1, function_count]; nullopt when `graph` has no
// nonempty subsystem of that name.
std::optional<FuncId> SubsystemEntry(const CallGraph& graph,
                                     std::string_view subsys,
                                     xbase::usize reach);

}  // namespace simkern
