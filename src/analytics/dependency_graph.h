// Service dependency extraction (§5.2 lists it among the analyses enabled by
// sessionization output).
//
// Aggregates trace-tree parent->child service pairs into a weighted dependency
// digraph: per-edge invocation counts and child-span latency statistics, plus
// reachability queries ("what does svc X transitively depend on", "who is
// impacted if svc X degrades") — the questions asked when planning maintenance
// or choosing replica placement for hot pairs.
#ifndef SRC_ANALYTICS_DEPENDENCY_GRAPH_H_
#define SRC_ANALYTICS_DEPENDENCY_GRAPH_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/core/trace_tree.h"

namespace ts {

class DependencyGraph {
 public:
  struct EdgeStats {
    uint64_t calls = 0;
    OnlineStats child_latency_ms;  // Observed child span durations.
  };

  // Folds one trace tree into the graph: every observed parent->child span
  // edge contributes a call and the child's duration.
  void AddTree(const TraceTree& tree);

  // Folds in every tree `other` has seen: per-edge calls and latency stats
  // combine (OnlineStats::Merge), so counts, HeaviestEdges and the closures
  // match one graph fed both tree streams. Edges new to this graph join the
  // adjacency lists after the ones it already had.
  void Merge(const DependencyGraph& other);

  // Direct callees of `service` with their edge stats, ordered by call count
  // (descending).
  std::vector<std::pair<uint32_t, const EdgeStats*>> Callees(uint32_t service) const;

  // Direct callers of `service`.
  std::vector<uint32_t> Callers(uint32_t service) const;

  // Transitive closure downstream of `service` (services it depends on).
  std::vector<uint32_t> DependsOn(uint32_t service) const;

  // Transitive closure upstream of `service` (services impacted by it).
  std::vector<uint32_t> ImpactedBy(uint32_t service) const;

  // The `k` heaviest edges by call count (the paper's replica-placement hint).
  std::vector<std::pair<std::pair<uint32_t, uint32_t>, uint64_t>> HeaviestEdges(
      size_t k) const;

  size_t num_edges() const { return edges_.size(); }
  uint64_t total_calls() const { return total_calls_; }

 private:
  std::vector<uint32_t> Closure(uint32_t service, bool downstream) const;

  std::map<std::pair<uint32_t, uint32_t>, EdgeStats> edges_;
  std::map<uint32_t, std::vector<uint32_t>> out_;  // Adjacency (unique).
  std::map<uint32_t, std::vector<uint32_t>> in_;   // Reverse adjacency.
  uint64_t total_calls_ = 0;
};

}  // namespace ts

#endif  // SRC_ANALYTICS_DEPENDENCY_GRAPH_H_
