// Tests for service dependency extraction.
#include <gtest/gtest.h>

#include "src/analytics/dependency_graph.h"

#include <algorithm>
#include <cmath>

#include "src/offline/offline_sessionizer.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

LogRecord Rec(const char* txn, EventTime t, uint32_t service) {
  LogRecord r;
  r.time = t;
  r.session_id = "S";
  r.txn_id = *TxnId::Parse(txn);
  r.service = service;
  return r;
}

TraceTree Build(std::vector<LogRecord> records) {
  Session s;
  s.id = "S";
  s.records = std::move(records);
  return TraceTree::FromSession(s)[0];
}

TEST(DependencyGraph, EdgesCountsAndLatency) {
  DependencyGraph graph;
  // svc1 -> svc2 (span [10,30] = 20ms... times in ns; use ms-scale ns).
  graph.AddTree(Build({
      Rec("1", 0, 1), Rec("1", 100'000'000, 1),
      Rec("1-1", 10'000'000, 2), Rec("1-1", 30'000'000, 2),
  }));
  graph.AddTree(Build({
      Rec("1", 0, 1), Rec("1-1", 5'000'000, 2), Rec("1-1", 45'000'000, 2),
  }));
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_EQ(graph.total_calls(), 2u);
  auto callees = graph.Callees(1);
  ASSERT_EQ(callees.size(), 1u);
  EXPECT_EQ(callees[0].first, 2u);
  EXPECT_EQ(callees[0].second->calls, 2u);
  EXPECT_NEAR(callees[0].second->child_latency_ms.mean(), 30.0, 1e-9);
  EXPECT_EQ(graph.Callers(2), (std::vector<uint32_t>{1}));
}

TEST(DependencyGraph, SelfCallsAndInferredNodesIgnored) {
  DependencyGraph graph;
  graph.AddTree(Build({
      Rec("1", 0, 7), Rec("1-1", 10, 7),  // Self call.
      Rec("1-2-1", 20, 9),                // 1-2 inferred: edge skipped.
  }));
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(DependencyGraph, TransitiveClosures) {
  DependencyGraph graph;
  // 1 -> 2 -> 3, 1 -> 4.
  graph.AddTree(Build({
      Rec("1", 0, 1),
      Rec("1-1", 1, 2),
      Rec("1-1-1", 2, 3),
      Rec("1-2", 3, 4),
  }));
  EXPECT_EQ(graph.DependsOn(1), (std::vector<uint32_t>{2, 3, 4}));
  EXPECT_EQ(graph.DependsOn(2), (std::vector<uint32_t>{3}));
  EXPECT_TRUE(graph.DependsOn(3).empty());
  EXPECT_EQ(graph.ImpactedBy(3), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(graph.ImpactedBy(4), (std::vector<uint32_t>{1}));
}

TEST(DependencyGraph, HeaviestEdgesOrderedDeterministically) {
  DependencyGraph graph;
  for (int i = 0; i < 3; ++i) {
    graph.AddTree(Build({Rec("1", 0, 1), Rec("1-1", 1, 2)}));
  }
  graph.AddTree(Build({Rec("1", 0, 1), Rec("1-1", 1, 3)}));
  graph.AddTree(Build({Rec("1", 0, 2), Rec("1-1", 1, 3)}));
  auto heaviest = graph.HeaviestEdges(2);
  ASSERT_EQ(heaviest.size(), 2u);
  EXPECT_EQ(heaviest[0].first, (std::pair<uint32_t, uint32_t>{1, 2}));
  EXPECT_EQ(heaviest[0].second, 3u);
  // Tie between (1,3) and (2,3): lexicographically smaller edge first.
  EXPECT_EQ(heaviest[1].first, (std::pair<uint32_t, uint32_t>{1, 3}));
}

TEST(DependencyGraph, CyclicServiceRelationshipsTerminate) {
  // A calls B in one request; B calls A in another: closure must terminate
  // and exclude the root itself.
  DependencyGraph graph;
  graph.AddTree(Build({Rec("1", 0, 1), Rec("1-1", 1, 2)}));
  graph.AddTree(Build({Rec("1", 0, 2), Rec("1-1", 1, 1)}));
  EXPECT_EQ(graph.DependsOn(1), (std::vector<uint32_t>{2}));
  EXPECT_EQ(graph.DependsOn(2), (std::vector<uint32_t>{1}));
}

// Trees of a generated trace, the same kind the live report folds in.
std::vector<TraceTree> GeneratedTrees() {
  GeneratorConfig config;
  config.seed = 7;
  config.duration_ns = 2 * kNanosPerSecond;
  config.target_records_per_sec = 5'000;
  TraceGenerator gen(config);
  std::vector<LogRecord> records;
  Epoch epoch = 0;
  std::vector<LogRecord> batch;
  while (gen.NextEpoch(&epoch, &batch)) {
    records.insert(records.end(), batch.begin(), batch.end());
  }
  std::vector<TraceTree> trees;
  for (const auto& s : OfflineSessionizer::Sessionize(std::move(records))) {
    for (auto& t : TraceTree::FromSession(s)) {
      trees.push_back(std::move(t));
    }
  }
  return trees;
}

void ExpectRelNear(double got, double want) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::fabs(want)));
}

TEST(DependencyGraph, MergeMatchesOneGraphFedEveryTree) {
  const std::vector<TraceTree> trees = GeneratedTrees();
  ASSERT_GT(trees.size(), 100u);
  DependencyGraph whole;
  std::vector<DependencyGraph> parts(3);
  for (size_t i = 0; i < trees.size(); ++i) {
    whole.AddTree(trees[i]);
    parts[(i * 7919) % parts.size()].AddTree(trees[i]);
  }
  DependencyGraph merged;
  for (const auto& part : parts) {
    merged.Merge(part);
  }
  ASSERT_GT(whole.num_edges(), 1u);
  EXPECT_EQ(merged.num_edges(), whole.num_edges());
  EXPECT_EQ(merged.total_calls(), whole.total_calls());
  EXPECT_EQ(merged.HeaviestEdges(whole.num_edges()),
            whole.HeaviestEdges(whole.num_edges()));
  const auto stats_of = [](const DependencyGraph& g,
                           std::pair<uint32_t, uint32_t> edge) {
    for (const auto& [callee, stats] : g.Callees(edge.first)) {
      if (callee == edge.second) {
        return stats;
      }
    }
    return static_cast<const DependencyGraph::EdgeStats*>(nullptr);
  };
  for (const auto& [edge, calls] : whole.HeaviestEdges(whole.num_edges())) {
    const DependencyGraph::EdgeStats* want = stats_of(whole, edge);
    const DependencyGraph::EdgeStats* got = stats_of(merged, edge);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->calls, calls);
    EXPECT_EQ(got->child_latency_ms.count(), want->child_latency_ms.count());
    EXPECT_EQ(got->child_latency_ms.min(), want->child_latency_ms.min());
    EXPECT_EQ(got->child_latency_ms.max(), want->child_latency_ms.max());
    ExpectRelNear(got->child_latency_ms.mean(), want->child_latency_ms.mean());
    ExpectRelNear(got->child_latency_ms.variance(),
                  want->child_latency_ms.variance());
    // Adjacency is a set: the merge may list it in another order.
    auto sorted = [](std::vector<uint32_t> v) {
      std::sort(v.begin(), v.end());
      return v;
    };
    EXPECT_EQ(sorted(merged.Callers(edge.second)),
              sorted(whole.Callers(edge.second)));
    EXPECT_EQ(merged.DependsOn(edge.first), whole.DependsOn(edge.first));
    EXPECT_EQ(merged.ImpactedBy(edge.second), whole.ImpactedBy(edge.second));
  }
}

TEST(DependencyGraph, MergeIntoAndFromEmpty) {
  DependencyGraph graph;
  graph.AddTree(Build({Rec("1", 0, 1), Rec("1-1", 10'000'000, 2),
                       Rec("1-1", 30'000'000, 2)}));
  DependencyGraph empty;
  graph.Merge(empty);
  DependencyGraph copy;
  copy.Merge(graph);
  for (const DependencyGraph* g : {&graph, &copy}) {
    EXPECT_EQ(g->num_edges(), 1u);
    EXPECT_EQ(g->total_calls(), 1u);
    ASSERT_EQ(g->Callees(1).size(), 1u);
    EXPECT_EQ(g->Callees(1)[0].second->child_latency_ms.mean(), 20.0);
    EXPECT_EQ(g->Callers(2), (std::vector<uint32_t>{1}));
  }
}

}  // namespace
}  // namespace ts
