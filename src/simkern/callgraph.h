// Kernel-function call graph. Every internal kernel function in the
// simulation — hand-written helper plumbing and generated subsystem bodies
// alike — registers here with its call edges; the Figure 3 analysis then
// measures, for each eBPF helper, how many unique kernel functions its call
// graph reaches. Matches the paper's static-analysis methodology (function
// pointers excluded, so counts are lower bounds).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace simkern {

using FuncId = xbase::u32;

class CallGraph {
 public:
  // Registers (or returns the existing id of) a function.
  FuncId Intern(const std::string& name);

  // Declares caller → callee. Both are interned on demand.
  void AddEdge(const std::string& caller, const std::string& callee);
  void AddEdgeById(FuncId caller, FuncId callee);

  bool Contains(const std::string& name) const;
  xbase::Result<FuncId> Find(const std::string& name) const;

  // Number of unique nodes in the call graph rooted at `name`, counting the
  // root itself — the Figure 3 metric.
  xbase::Result<xbase::usize> ReachableCount(const std::string& name) const;
  std::vector<FuncId> ReachableSet(FuncId root) const;

  xbase::usize node_count() const { return adjacency_.size(); }
  xbase::usize edge_count() const { return edge_count_; }

 private:
  std::map<std::string, FuncId> ids_;
  std::vector<std::vector<FuncId>> adjacency_;
  xbase::usize edge_count_ = 0;
};

}  // namespace simkern
