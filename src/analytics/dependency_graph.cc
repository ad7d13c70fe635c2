#include "src/analytics/dependency_graph.h"

#include <algorithm>
#include <deque>
#include <set>

namespace ts {

void DependencyGraph::AddTree(const TraceTree& tree) {
  for (const auto& node : tree.nodes()) {
    if (node.parent < 0 || node.inferred) {
      continue;
    }
    const auto& parent = tree.nodes()[static_cast<size_t>(node.parent)];
    if (parent.inferred || parent.service == node.service) {
      continue;  // Self-calls carry no dependency information.
    }
    const auto key = std::make_pair(parent.service, node.service);
    auto [it, inserted] = edges_.emplace(key, EdgeStats{});
    it->second.calls += 1;
    it->second.child_latency_ms.Add(static_cast<double>(node.end - node.start) /
                                    1e6);
    ++total_calls_;
    if (inserted) {
      out_[parent.service].push_back(node.service);
      in_[node.service].push_back(parent.service);
    }
  }
}

void DependencyGraph::Merge(const DependencyGraph& other) {
  for (const auto& [key, stats] : other.edges_) {
    auto [it, inserted] = edges_.emplace(key, EdgeStats{});
    it->second.calls += stats.calls;
    it->second.child_latency_ms.Merge(stats.child_latency_ms);
    if (inserted) {
      out_[key.first].push_back(key.second);
      in_[key.second].push_back(key.first);
    }
  }
  total_calls_ += other.total_calls_;
}

std::vector<std::pair<uint32_t, const DependencyGraph::EdgeStats*>>
DependencyGraph::Callees(uint32_t service) const {
  std::vector<std::pair<uint32_t, const EdgeStats*>> out;
  auto it = out_.find(service);
  if (it == out_.end()) {
    return out;
  }
  for (uint32_t callee : it->second) {
    out.emplace_back(callee, &edges_.at({service, callee}));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second->calls > b.second->calls;
  });
  return out;
}

std::vector<uint32_t> DependencyGraph::Callers(uint32_t service) const {
  auto it = in_.find(service);
  return it == in_.end() ? std::vector<uint32_t>{} : it->second;
}

std::vector<uint32_t> DependencyGraph::Closure(uint32_t service,
                                               bool downstream) const {
  const auto& adjacency = downstream ? out_ : in_;
  std::set<uint32_t> seen;
  std::deque<uint32_t> queue = {service};
  while (!queue.empty()) {
    const uint32_t s = queue.front();
    queue.pop_front();
    auto it = adjacency.find(s);
    if (it == adjacency.end()) {
      continue;
    }
    for (uint32_t next : it->second) {
      if (next != service && seen.insert(next).second) {
        queue.push_back(next);
      }
    }
  }
  return std::vector<uint32_t>(seen.begin(), seen.end());
}

std::vector<uint32_t> DependencyGraph::DependsOn(uint32_t service) const {
  return Closure(service, /*downstream=*/true);
}

std::vector<uint32_t> DependencyGraph::ImpactedBy(uint32_t service) const {
  return Closure(service, /*downstream=*/false);
}

std::vector<std::pair<std::pair<uint32_t, uint32_t>, uint64_t>>
DependencyGraph::HeaviestEdges(size_t k) const {
  std::vector<std::pair<std::pair<uint32_t, uint32_t>, uint64_t>> all;
  all.reserve(edges_.size());
  for (const auto& [edge, stats] : edges_) {
    all.emplace_back(edge, stats.calls);
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(keep), all.end(),
                    [](const auto& a, const auto& b) {
                      return a.second > b.second ||
                             (a.second == b.second && a.first < b.first);
                    });
  all.resize(keep);
  return all;
}

}  // namespace ts
