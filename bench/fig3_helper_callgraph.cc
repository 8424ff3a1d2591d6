// FIG3 — reproduces Figure 3: "Call-graph complexity of each eBPF helper".
// Static reachability from every registered helper's entry function over the
// simulated kernel call graph (function pointers excluded — lower bounds,
// like the paper). The claims under test: helpers span four orders of
// magnitude of complexity; a majority call 30+ kernel functions; roughly a
// third call 500+; bpf_sys_bpf is the extreme outlier (paper: 4845 nodes).
#include "bench/harness.h"
#include "src/analysis/callgraph.h"

int main() {
  safex::System rig;
  harness::Title("Figure 3: call-graph complexity of each eBPF helper");

  const analysis::ComplexitySummary summary =
      analysis::AnalyzeHelperComplexity(rig.bpf.helpers(), rig.kernel);

  std::printf("helpers analyzed: %zu (paper: 249 in Linux 5.18; this "
              "kernel is a ~1:3 scale model)\n\n",
              summary.total_helpers);

  std::printf("Top 10 by unique call-graph nodes:\n");
  std::printf("  %-28s %10s\n", "helper", "nodes");
  harness::Rule(42);
  for (size_t i = 0; i < summary.helpers.size() && i < 10; ++i) {
    std::printf("  %-28s %10zu\n", summary.helpers[i].name.c_str(),
                summary.helpers[i].reachable_nodes);
  }

  std::printf("\nBottom 5 (trivial helpers):\n");
  for (size_t i = summary.helpers.size() >= 5 ? summary.helpers.size() - 5
                                              : 0;
       i < summary.helpers.size(); ++i) {
    std::printf("  %-28s %10zu\n", summary.helpers[i].name.c_str(),
                summary.helpers[i].reachable_nodes);
  }

  std::printf("\nDistribution (log-scale spread, as in the figure):\n");
  std::printf("  min=%zu  median=%zu  max=%zu\n", summary.min_nodes,
              summary.median_nodes, summary.max_nodes);
  std::printf("  >=30 nodes : %5.1f %%   (paper: 52.2 %%)\n",
              summary.fraction_ge_30 * 100.0);
  std::printf("  >=500 nodes: %5.1f %%   (paper: 34.5 %%)\n",
              summary.fraction_ge_500 * 100.0);
  std::printf("  heaviest helper: %s (paper: bpf_sys_bpf, 4845 nodes)\n",
              summary.helpers.empty() ? "-"
                                      : summary.helpers[0].name.c_str());
  return 0;
}
