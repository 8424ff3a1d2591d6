#include "src/simkern/callgraph.h"

#include <algorithm>

namespace simkern {

using xbase::usize;

FuncId CallGraph::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const FuncId id = static_cast<FuncId>(adjacency_.size());
  ids_.emplace(name, id);
  adjacency_.emplace_back();
  return id;
}

void CallGraph::AddEdge(const std::string& caller, const std::string& callee) {
  AddEdgeById(Intern(caller), Intern(callee));
}

void CallGraph::AddEdgeById(FuncId caller, FuncId callee) {
  auto& edges = adjacency_[caller];
  if (std::find(edges.begin(), edges.end(), callee) == edges.end()) {
    edges.push_back(callee);
    ++edge_count_;
  }
}

bool CallGraph::Contains(const std::string& name) const {
  return ids_.contains(name);
}

xbase::Result<FuncId> CallGraph::Find(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return xbase::NotFound("unknown kernel function: " + name);
  }
  return it->second;
}

std::vector<FuncId> CallGraph::ReachableSet(FuncId root) const {
  std::vector<bool> seen(adjacency_.size(), false);
  std::vector<FuncId> stack{root};
  std::vector<FuncId> result;
  seen[root] = true;
  while (!stack.empty()) {
    const FuncId node = stack.back();
    stack.pop_back();
    result.push_back(node);
    for (FuncId next : adjacency_[node]) {
      if (!seen[next]) {
        seen[next] = true;
        stack.push_back(next);
      }
    }
  }
  return result;
}

xbase::Result<usize> CallGraph::ReachableCount(const std::string& name) const {
  XB_ASSIGN_OR_RETURN(const FuncId root, Find(name));
  return ReachableSet(root).size();
}

}  // namespace simkern
