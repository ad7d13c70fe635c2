// Cross-module integration tests: the full TS pipeline (generator -> input ->
// exchange -> sessionize -> trace trees) against ground truth computed
// directly from the generated records, with and without record loss.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/siphash.h"
#include "src/dataflow/collectors.h"
#include "src/dataflow/sessionize.h"
#include "src/dataflow/topk.h"
#include "src/dataflow/tree_ops.h"
#include "src/offline/offline_sessionizer.h"
#include "src/timely/timely.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

GeneratorConfig TestGen(double loss = 0.0) {
  GeneratorConfig config;
  config.seed = 2024;
  config.duration_ns = 10 * kNanosPerSecond;
  config.target_records_per_sec = 5'000;
  config.record_loss_rate = loss;
  return config;
}

std::vector<LogRecord> Materialize(const GeneratorConfig& config) {
  TraceGenerator gen(config);
  std::vector<LogRecord> all;
  Epoch epoch;
  std::vector<LogRecord> batch;
  while (gen.NextEpoch(&epoch, &batch)) {
    for (auto& r : batch) {
      all.push_back(std::move(r));
    }
  }
  return all;
}

// Epoch-granularity reference splitter matching the online operator's
// semantics: a session splits when consecutive records are more than
// `inactivity` epochs apart.
std::map<std::string, std::vector<size_t>> ReferenceFragments(
    std::vector<LogRecord> records, Epoch inactivity) {
  auto sessions = OfflineSessionizer::Sessionize(std::move(records));
  std::map<std::string, std::vector<size_t>> fragments;
  for (const auto& s : sessions) {
    size_t count = 1;
    for (size_t i = 1; i < s.records.size(); ++i) {
      const Epoch prev = static_cast<Epoch>(s.records[i - 1].time / kNanosPerSecond);
      const Epoch cur = static_cast<Epoch>(s.records[i].time / kNanosPerSecond);
      if (cur > prev + inactivity) {
        fragments[s.id].push_back(count);
        count = 0;
      }
      ++count;
    }
    fragments[s.id].push_back(count);
  }
  return fragments;
}

struct PipelineResult {
  std::vector<Session> sessions;
  std::vector<TraceTree> trees;
};

PipelineResult RunPipeline(const std::vector<LogRecord>& records, size_t workers,
                           Epoch inactivity) {
  auto session_collector = std::make_shared<ConcurrentCollector<Session>>();
  auto tree_collector = std::make_shared<ConcurrentCollector<TraceTree>>();

  // Pre-bucket by epoch for the scripted driver.
  std::map<Epoch, std::vector<LogRecord>> by_epoch;
  for (const auto& r : records) {
    by_epoch[static_cast<Epoch>(r.time / kNanosPerSecond)].push_back(r);
  }

  Computation::Options options;
  options.workers = workers;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, stream] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess_options;
    sess_options.inactivity_epochs = inactivity;
    auto [sessions, metrics] = Sessionize(scope, stream, sess_options);
    auto inspected = scope.Inspect<Session>(
        sessions, "collect_sessions",
        [session_collector](Epoch, const Session& s) { session_collector->Add(s); });
    auto trees = ConstructTraceTrees(scope, inspected);
    CollectInto<TraceTree>(scope, trees, tree_collector, "collect_trees");

    auto in = std::make_shared<InputSession<LogRecord>>(input);
    if (scope.worker_index() == 0) {
      auto it = std::make_shared<std::map<Epoch, std::vector<LogRecord>>::iterator>(
          by_epoch.begin());
      scope.AddDriver([in, it, &by_epoch]() mutable -> DriverStatus {
        if (*it == by_epoch.end()) {
          in->Close();
          return DriverStatus::kFinished;
        }
        if ((*it)->first > in->current_epoch()) {
          in->AdvanceTo((*it)->first);
        }
        in->GiveBatch(std::move((*it)->second));
        ++*it;
        return DriverStatus::kWorked;
      });
    } else {
      scope.AddDriver([in]() -> DriverStatus {
        in->Close();
        return DriverStatus::kFinished;
      });
    }
  });

  return PipelineResult{std::move(session_collector->items()),
                        std::move(tree_collector->items())};
}

TEST(Integration, OnlineSessionsMatchEpochGranularityGroundTruth) {
  const auto records = Materialize(TestGen());
  ASSERT_GT(records.size(), 20'000u);
  constexpr Epoch kInactivity = 4;
  auto result = RunPipeline(records, /*workers=*/2, kInactivity);
  auto expected = ReferenceFragments(records, kInactivity);

  std::map<std::string, std::vector<size_t>> got;
  for (const auto& s : result.sessions) {
    got[s.id].push_back(s.records.size());
  }
  for (auto& [id, sizes] : got) {
    std::sort(sizes.begin(), sizes.end());
  }
  for (auto& [id, sizes] : expected) {
    std::sort(sizes.begin(), sizes.end());
  }
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_EQ(got, expected);

  // Conservation: every record ends up in exactly one session.
  size_t total = 0;
  for (const auto& s : result.sessions) {
    total += s.records.size();
  }
  EXPECT_EQ(total, records.size());
}

TEST(Integration, TreesCoverEveryObservedRootSpan) {
  const auto records = Materialize(TestGen());
  // Ground truth: distinct (session, root index) pairs and per-pair counts.
  std::map<std::pair<std::string, uint32_t>, uint32_t> expected;
  for (const auto& r : records) {
    ++expected[{r.session_id, r.txn_id.root()}];
  }
  auto result = RunPipeline(records, 2, /*inactivity=*/20);
  // With a large inactivity window and a 10s trace, no fragmentation: one
  // tree per observed root span.
  std::map<std::pair<std::string, uint32_t>, uint32_t> got;
  for (const auto& t : result.trees) {
    const auto key = std::make_pair(t.session_id(), t.root().id.root());
    EXPECT_TRUE(got.emplace(key, t.total_records()).second)
        << "duplicate tree for root span";
  }
  EXPECT_EQ(got, expected);
}

TEST(Integration, TreesAreStructurallyWellFormed) {
  const auto records = Materialize(TestGen());
  auto result = RunPipeline(records, 1, 20);
  ASSERT_GT(result.trees.size(), 500u);
  size_t multi_span = 0;
  for (const auto& t : result.trees) {
    // Root is node 0 with no parent; every other node's parent precedes it.
    EXPECT_EQ(t.root().parent, -1);
    for (size_t i = 1; i < t.nodes().size(); ++i) {
      const auto& n = t.nodes()[i];
      ASSERT_GE(n.parent, 0);
      ASSERT_LT(n.parent, static_cast<int>(i));
      EXPECT_TRUE(t.nodes()[n.parent].id.IsAncestorOf(n.id));
    }
    // No loss: nothing inferred, sibling sets complete.
    EXPECT_EQ(t.num_inferred(), 0u);
    EXPECT_EQ(t.ImpliedMissingChildren(), 0u);
    if (t.num_spans() > 1) {
      ++multi_span;
    }
    // Signature length equals span count.
    EXPECT_EQ(t.Signature().size(), t.num_spans());
  }
  EXPECT_GT(multi_span, result.trees.size() / 3);
}

TEST(Integration, RecordLossYieldsInferredNodesAndDetectableGaps) {
  // Deterministic damage injection: random loss rates need enormous traces to
  // reliably wipe out *all* records of an interior span, so instead we surgically
  // remove records that must produce each kind of detectable damage:
  //  (a) all records of node 1-1 in sessions where 1-1 has observed children
  //      -> the node must be inferred from its descendants;
  //  (b) the whole 1-2 subtree in sessions that also observed sibling 1-3
  //      -> the sibling-index gap must be reported as implied-missing.
  auto records = Materialize(TestGen());
  std::map<std::string, std::pair<bool, bool>> session_flags;  // (a-able, b-able)
  for (const auto& r : records) {
    const auto& p = r.txn_id.path();
    auto& flags = session_flags[r.session_id];
    if (p.size() >= 3 && p[0] == 1 && p[1] == 1) {
      flags.first = true;
    }
    if (p.size() >= 2 && p[0] == 1 && p[1] == 3) {
      flags.second = true;
    }
  }
  std::set<std::string> drop_node;     // Case (a).
  std::set<std::string> drop_subtree;  // Case (b).
  for (const auto& [id, flags] : session_flags) {
    if (flags.first) {
      drop_node.insert(id);
    } else if (flags.second) {
      drop_subtree.insert(id);
    }
  }
  ASSERT_GT(drop_node.size(), 5u);
  ASSERT_GT(drop_subtree.size(), 5u);

  std::vector<LogRecord> damaged;
  damaged.reserve(records.size());
  for (auto& r : records) {
    const auto& p = r.txn_id.path();
    if (drop_node.count(r.session_id) && p.size() == 2 && p[0] == 1 && p[1] == 1) {
      continue;
    }
    if (drop_subtree.count(r.session_id) && p.size() >= 2 && p[0] == 1 && p[1] == 2) {
      continue;
    }
    damaged.push_back(std::move(r));
  }

  auto result = RunPipeline(damaged, 1, 20);
  size_t inferred = 0;
  size_t implied_missing = 0;
  for (const auto& t : result.trees) {
    inferred += t.num_inferred();
    implied_missing += t.ImpliedMissingChildren();
  }
  EXPECT_GE(inferred, drop_node.size());
  EXPECT_GT(implied_missing, 0u);
}

TEST(Integration, AnalyticsComposeOnTreeStream) {
  // sessionize -> trees -> {signature top-k, service-pair top-k} as in §4.3,
  // validated against brute force over the collected trees.
  const auto records = Materialize(TestGen());
  std::map<Epoch, std::vector<LogRecord>> by_epoch;
  for (const auto& r : records) {
    by_epoch[static_cast<Epoch>(r.time / kNanosPerSecond)].push_back(r);
  }

  auto tree_collector = std::make_shared<ConcurrentCollector<TraceTree>>();
  auto sig_results =
      std::make_shared<ConcurrentCollector<TopKResult<std::string>>>();

  Computation::Options options;
  options.workers = 2;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, stream] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess_options;
    sess_options.inactivity_epochs = 3;
    auto [sessions, metrics] = Sessionize(scope, stream, sess_options);
    auto trees = ConstructTraceTrees(scope, sessions);
    auto observed = scope.Inspect<TraceTree>(
        trees, "observe", [tree_collector](Epoch, const TraceTree& t) {
          tree_collector->Add(t);
        });
    auto sigs = scope.Map<TraceTree, std::string>(
        observed, "signature", [](TraceTree t) { return t.SignatureKey(); });
    auto topk = TopKPerEpoch<std::string, std::string>(
        scope, sigs, 5, [](const std::string& s) { return s; },
        [](const std::string& s) { return SipHash24(s); }, "sig_topk");
    CollectInto<TopKResult<std::string>>(scope, topk, sig_results, "collect_topk");

    auto in = std::make_shared<InputSession<LogRecord>>(input);
    if (scope.worker_index() == 0) {
      auto it = std::make_shared<std::map<Epoch, std::vector<LogRecord>>::iterator>(
          by_epoch.begin());
      scope.AddDriver([in, it, &by_epoch]() mutable -> DriverStatus {
        if (*it == by_epoch.end()) {
          in->Close();
          return DriverStatus::kFinished;
        }
        if ((*it)->first > in->current_epoch()) {
          in->AdvanceTo((*it)->first);
        }
        in->GiveBatch(std::move((*it)->second));
        ++*it;
        return DriverStatus::kWorked;
      });
    } else {
      scope.AddDriver([in]() -> DriverStatus {
        in->Close();
        return DriverStatus::kFinished;
      });
    }
  });

  // Brute force per emission epoch. Trees are emitted at their session's
  // close epoch; reconstruct that mapping from the collected trees' times is
  // complex, so validate the aggregate: summed top-1 counts must not exceed
  // total trees, and every reported signature must exist among the trees.
  std::set<std::string> known_signatures;
  for (const auto& t : tree_collector->items()) {
    known_signatures.insert(t.SignatureKey());
  }
  ASSERT_FALSE(sig_results->items().empty());
  uint64_t reported = 0;
  for (const auto& r : sig_results->items()) {
    ASSERT_FALSE(r.entries.empty());
    for (const auto& [sig, count] : r.entries) {
      EXPECT_TRUE(known_signatures.count(sig)) << sig;
      reported += count;
    }
  }
  EXPECT_LE(reported, tree_collector->items().size());
  EXPECT_GT(reported, 0u);
}

}  // namespace
}  // namespace ts
