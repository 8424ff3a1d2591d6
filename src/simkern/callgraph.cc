#include "src/simkern/callgraph.h"

#include <algorithm>

namespace simkern {

using xbase::usize;

namespace {

// Longest k we parse; keeps the decimal accumulation inside 32 bits.
constexpr usize kMaxIndexDigits = 9;

}  // namespace

FuncId CallGraph::Intern(const std::string& name) {
  if (const std::optional<FuncId> id = Lookup(name)) {
    return *id;
  }
  const FuncId id = node_count_++;
  ids_.emplace(name, id);
  return id;
}

FuncId CallGraph::AddRange(const std::string& prefix, usize count) {
  const FuncId base = node_count_;
  ranges_.push_back(Range{prefix, IdRange{base, static_cast<FuncId>(count)}});
  node_count_ += static_cast<FuncId>(count);
  edge_offsets_.reserve(node_count_);
  return base;
}

std::optional<CallGraph::IdRange> CallGraph::FindRange(
    std::string_view prefix) const {
  for (const Range& range : ranges_) {
    if (range.prefix == prefix) {
      return range.ids;
    }
  }
  return std::nullopt;
}

void CallGraph::AddEdgeById(FuncId caller, FuncId callee) {
  const auto has = [callee](std::span<const FuncId> edges) {
    return std::ranges::find(edges, callee) != edges.end();
  };
  if (has(FlatEdges(caller)) || has(LateEdges(caller))) {
    return;
  }
  ++edge_count_;
  if (caller + 1 >= edge_offsets_.size()) {
    while (edge_offsets_.size() <= caller) {
      edge_offsets_.push_back(static_cast<xbase::u32>(edge_targets_.size()));
    }
    edge_targets_.push_back(callee);
    return;
  }
  if (late_edges_.size() <= caller) {
    late_edges_.resize(caller + 1);
  }
  late_edges_[caller].push_back(callee);
}

bool CallGraph::Contains(const std::string& name) const {
  return Lookup(name).has_value();
}

xbase::Result<FuncId> CallGraph::Find(const std::string& name) const {
  const std::optional<FuncId> id = Lookup(name);
  if (!id) {
    return xbase::NotFound("unknown kernel function: " + name);
  }
  return *id;
}

std::optional<FuncId> CallGraph::Lookup(std::string_view name) const {
  const usize dot = name.rfind(".f");
  const std::string_view digits =
      dot == std::string_view::npos ? std::string_view() : name.substr(dot + 2);
  const bool canonical =
      !digits.empty() && digits.size() <= kMaxIndexDigits &&
      (digits[0] != '0' || digits.size() == 1) &&
      std::all_of(digits.begin(), digits.end(),
                  [](char c) { return c >= '0' && c <= '9'; });
  if (canonical) {
    FuncId k = 0;
    for (const char c : digits) {
      k = k * 10 + static_cast<FuncId>(c - '0');
    }
    const std::optional<IdRange> range = FindRange(name.substr(0, dot));
    if (range && k < range->count) {
      return range->base + k;
    }
  }
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::span<const FuncId> CallGraph::FlatEdges(FuncId node) const {
  if (node >= edge_offsets_.size()) {
    return {};
  }
  const usize end = node + 1 < edge_offsets_.size() ? edge_offsets_[node + 1]
                                                    : edge_targets_.size();
  return std::span<const FuncId>(edge_targets_)
      .subspan(edge_offsets_[node], end - edge_offsets_[node]);
}

std::span<const FuncId> CallGraph::LateEdges(FuncId node) const {
  if (node >= late_edges_.size()) {
    return {};
  }
  return late_edges_[node];
}

std::vector<FuncId> CallGraph::ReachableSet(FuncId root) const {
  std::vector<bool> seen(node_count_, false);
  std::vector<FuncId> stack{root};
  std::vector<FuncId> result;
  seen[root] = true;
  const auto visit = [&](std::span<const FuncId> edges) {
    for (FuncId next : edges) {
      if (!seen[next]) {
        seen[next] = true;
        stack.push_back(next);
      }
    }
  };
  while (!stack.empty()) {
    const FuncId node = stack.back();
    stack.pop_back();
    result.push_back(node);
    visit(FlatEdges(node));
    visit(LateEdges(node));
  }
  return result;
}

xbase::Result<usize> CallGraph::ReachableCount(const std::string& name) const {
  XB_ASSIGN_OR_RETURN(const FuncId root, Find(name));
  return ReachableSet(root).size();
}

}  // namespace simkern
