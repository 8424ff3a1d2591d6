// Kernel-function call graph. Every internal kernel function in the
// simulation — hand-written helper plumbing and generated subsystem bodies
// alike — registers here with its call edges; the Figure 3 analysis then
// measures, for each eBPF helper, how many unique kernel functions its call
// graph reaches. Matches the paper's static-analysis methodology (function
// pointers excluded, so counts are lower bounds).
//
// Representation. A generated subsystem is one id range: its functions are
// named "<prefix>.f<k>" only implicitly, and a lookup parses the name
// instead of storing it. Only hand-registered names (helpers, kfuncs,
// tests) sit in the name map. Edges added in node order — everything
// BuildSubsystems and helper registration add — go to one flat
// offsets+targets array; an edge added to an older node goes to that
// node's own list. A node's edges are the union of the two.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace simkern {

using FuncId = xbase::u32;

class CallGraph {
 public:
  // Registers (or returns the existing id of) a function. A name inside a
  // registered range resolves to its range id and adds no node.
  FuncId Intern(const std::string& name);

  // Registers the `count` functions "<prefix>.f0" .. "<prefix>.f<count-1>"
  // as one id range and returns the id of f0. Register a range before any
  // name inside it is interned; a prefix is registered at most once.
  FuncId AddRange(const std::string& prefix, xbase::usize count);

  // The range registered under `prefix`: the id of its f0 and its size.
  struct IdRange {
    FuncId base;
    FuncId count;
  };
  std::optional<IdRange> FindRange(std::string_view prefix) const;

  // Declares caller → callee; a duplicate edge is ignored.
  void AddEdgeById(FuncId caller, FuncId callee);

  bool Contains(const std::string& name) const;
  xbase::Result<FuncId> Find(const std::string& name) const;

  // Number of unique nodes in the call graph rooted at `name`, counting the
  // root itself — the Figure 3 metric.
  xbase::Result<xbase::usize> ReachableCount(const std::string& name) const;
  std::vector<FuncId> ReachableSet(FuncId root) const;

  xbase::usize node_count() const { return node_count_; }
  xbase::usize edge_count() const { return edge_count_; }

 private:
  struct Range {
    std::string prefix;
    IdRange ids;
  };

  // Canonical "<prefix>.f<k>" of a registered range (decimal k < count, no
  // leading zeros), else a hand-registered name.
  std::optional<FuncId> Lookup(std::string_view name) const;
  std::span<const FuncId> FlatEdges(FuncId node) const;
  std::span<const FuncId> LateEdges(FuncId node) const;

  std::vector<Range> ranges_;
  std::map<std::string, FuncId, std::less<>> ids_;
  FuncId node_count_ = 0;
  // Node n's flat edges are edge_targets_[edge_offsets_[n], next offset),
  // the last listed node's running to the array's end; nodes past the list
  // have none. Only that last node or a newer one can gain flat edges.
  std::vector<xbase::u32> edge_offsets_;
  std::vector<FuncId> edge_targets_;
  // Edges of nodes that were no longer the newest when the edge came,
  // indexed by caller and sized on demand.
  std::vector<std::vector<FuncId>> late_edges_;
  xbase::usize edge_count_ = 0;
};

}  // namespace simkern
