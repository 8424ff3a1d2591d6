#include "src/simkern/subsys.h"

#include <algorithm>

#include "src/xbase/rand.h"

namespace simkern {

using xbase::usize;

const std::vector<SubsystemSpec>& DefaultSubsystems() {
  static const std::vector<SubsystemSpec> kSpecs = {
      // The bpf(2) syscall machinery that bpf_sys_bpf reaches: by far the
      // largest (paper: 4845 nodes).
      {"bpf_syscall", 4800, 3},
      // Core networking (sk_lookup, skb manipulation, fib lookup, ...).
      {"net_core", 1600, 3},
      // TCP/UDP specifics under the lookup helpers.
      {"inet", 900, 2},
      // Tracing/perf plumbing (perf_event_output, stack walking).
      {"trace", 750, 2},
      // Task management (task_storage, find_task_by_vpid chains).
      {"task", 620, 2},
      // Memory management reached by allocating helpers.
      {"mm", 540, 2},
      // Map implementations (htab, arraymap, ringbuf internals).
      {"map_impl", 320, 2},
      // Cgroup plumbing.
      {"cgroup", 180, 2},
      // Time/clock sources.
      {"timekeeping", 40, 1},
      // Small utility band (string ops, prandom, smp ids).
      {"util", 24, 1},
  };
  return kSpecs;
}

void BuildSubsystems(CallGraph& graph, const std::vector<SubsystemSpec>& specs,
                     xbase::u64 seed) {
  xbase::Rng rng(seed);
  for (const SubsystemSpec& spec : specs) {
    const FuncId base = graph.AddRange(spec.name, spec.function_count);
    const auto id = [base](usize i) { return base + static_cast<FuncId>(i); };
    // Nodes in order, so every edge lands in the graph's flat array.
    for (usize i = 0; i + 1 < spec.function_count; ++i) {
      // Spine edge guarantees reach(f_k) == n - k.
      graph.AddEdgeById(id(i), id(i + 1));
      // Extra forward edges give realistic fanout without changing
      // reachability counts.
      for (usize j = 0; j < spec.extra_fanout; ++j) {
        const usize span = spec.function_count - i - 1;
        if (span > 1) {
          const usize target = i + 1 + rng.NextBelow(span);
          graph.AddEdgeById(id(i), id(target));
        }
      }
    }
  }
}

std::optional<FuncId> SubsystemEntry(const CallGraph& graph,
                                     std::string_view subsys, usize reach) {
  const std::optional<CallGraph::IdRange> range = graph.FindRange(subsys);
  if (!range || range->count == 0) {
    return std::nullopt;
  }
  reach = std::clamp<usize>(reach, 1, range->count);
  return range->base + static_cast<FuncId>(range->count - reach);
}

}  // namespace simkern
