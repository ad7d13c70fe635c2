// Differential test for the trace-tree build: TraceTree::FromSession and
// FromRecords against the std::map-based build they replaced, kept here verbatim as the reference
// together with the std::deque walks of Signature and ServiceCallPairs.
// Sessions come from the generator with record loss (so nodes are inferred)
// and from hand-made and random cases: ids deeper than TxnId's inline
// capacity, duplicate ids, out-of-order records and several roots.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/analytics/critical_path.h"
#include "src/common/rng.h"
#include "src/core/trace_tree.h"
#include "src/offline/offline_sessionizer.h"
#include "src/workload/generator.h"

namespace ts {

struct ReferenceTree {
  std::string session_id;
  std::vector<TraceNode> nodes;
  uint32_t total_records = 0;
  EventTime min_time = 0;
  EventTime max_time = 0;
};

struct TraceTreeTestPeer {
  static TraceTree Wrap(const ReferenceTree& ref) {
    TraceTree tree;
    tree.session_id_ = ref.session_id;
    tree.nodes_ = ref.nodes;
    tree.total_records_ = ref.total_records;
    tree.min_time_ = ref.min_time;
    tree.max_time_ = ref.max_time;
    return tree;
  }
};

namespace {

// --- The reference: the map-based build ------------------------------------

ReferenceTree RefFromRecords(const std::string& session_id,
                             const std::vector<const LogRecord*>& records) {
  ReferenceTree tree;
  tree.session_id = session_id;
  std::map<TxnId, int> index;
  const TxnId root_id = records.front()->txn_id.Root();
  index.emplace(root_id, -1);
  for (const auto* r : records) {
    index.emplace(r->txn_id, -1);
    TxnId cursor = r->txn_id;
    while (cursor.depth() > 1) {
      cursor = cursor.Parent();
      index.emplace(cursor, -1);
    }
  }
  tree.nodes.resize(index.size());
  int next = 0;
  for (auto& [id, slot] : index) {
    slot = next;
    tree.nodes[next].id = id;
    tree.nodes[next].inferred = true;
    ++next;
  }
  for (size_t i = 1; i < tree.nodes.size(); ++i) {
    const int parent = index.at(tree.nodes[i].id.Parent());
    tree.nodes[i].parent = parent;
    tree.nodes[parent].children.push_back(static_cast<int>(i));
  }
  bool first = true;
  for (const auto* r : records) {
    TraceNode& node = tree.nodes[index.at(r->txn_id)];
    if (node.inferred) {
      node.inferred = false;
      node.service = r->service;
      node.host = r->host;
      node.start = node.end = r->time;
    } else {
      node.start = std::min(node.start, r->time);
      node.end = std::max(node.end, r->time);
    }
    ++node.num_records;
    ++tree.total_records;
    if (first) {
      tree.min_time = tree.max_time = r->time;
      first = false;
    } else {
      tree.min_time = std::min(tree.min_time, r->time);
      tree.max_time = std::max(tree.max_time, r->time);
    }
  }
  return tree;
}

std::vector<ReferenceTree> RefFromSession(const Session& session) {
  std::map<uint32_t, std::vector<const LogRecord*>> by_root;
  for (const auto& r : session.records) {
    if (r.txn_id.empty()) {
      continue;
    }
    by_root[r.txn_id.root()].push_back(&r);
  }
  std::vector<ReferenceTree> trees;
  for (auto& [root, records] : by_root) {
    trees.push_back(RefFromRecords(session.id, records));
  }
  return trees;
}

std::vector<uint32_t> RefSignature(const std::vector<TraceNode>& nodes) {
  std::vector<uint32_t> sig;
  std::deque<int> queue = {0};
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    sig.push_back(static_cast<uint32_t>(nodes[n].children.size()));
    for (int c : nodes[n].children) {
      queue.push_back(c);
    }
  }
  return sig;
}

std::string RefSignatureKey(const std::vector<TraceNode>& nodes) {
  std::string key;
  for (uint32_t d : RefSignature(nodes)) {
    if (!key.empty()) {
      key.push_back('.');
    }
    key += std::to_string(d);
  }
  return key;
}

std::vector<std::pair<uint32_t, uint32_t>> RefServiceCallPairs(
    const std::vector<TraceNode>& nodes) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::deque<int> queue = {0};
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    for (int c : nodes[n].children) {
      if (nodes[n].service != kUnknownService &&
          nodes[c].service != kUnknownService) {
        pairs.emplace_back(nodes[n].service, nodes[c].service);
      }
      queue.push_back(c);
    }
  }
  return pairs;
}

size_t RefImpliedMissingChildren(const std::vector<TraceNode>& nodes) {
  size_t missing = 0;
  for (const auto& node : nodes) {
    if (node.children.empty()) {
      continue;
    }
    uint32_t max_sibling = 0;
    for (int c : node.children) {
      max_sibling = std::max(max_sibling, nodes[c].id.sibling_index());
    }
    if (max_sibling > node.children.size()) {
      missing += max_sibling - node.children.size();
    }
  }
  return missing;
}

// --- Comparison --------------------------------------------------------------

struct Totals {
  size_t trees = 0;
  size_t inferred = 0;
  size_t implied_missing = 0;
  size_t deeper_than_inline = 0;
};

void ExpectSameTree(const TraceTree& tree, const ReferenceTree& ref,
                    Totals* totals) {
  SCOPED_TRACE(ref.session_id + " tree " + ref.nodes.front().id.ToString());
  EXPECT_EQ(tree.session_id(), ref.session_id);
  EXPECT_EQ(tree.total_records(), ref.total_records);
  EXPECT_EQ(tree.MinTime(), ref.min_time);
  EXPECT_EQ(tree.MaxTime(), ref.max_time);
  ASSERT_EQ(tree.nodes().size(), ref.nodes.size());
  for (size_t i = 0; i < ref.nodes.size(); ++i) {
    const TraceNode& a = tree.nodes()[i];
    const TraceNode& b = ref.nodes[i];
    EXPECT_EQ(a.id, b.id) << "node " << i;
    EXPECT_EQ(a.service, b.service) << "node " << i;
    EXPECT_EQ(a.host, b.host) << "node " << i;
    EXPECT_EQ(a.inferred, b.inferred) << "node " << i;
    EXPECT_EQ(a.start, b.start) << "node " << i;
    EXPECT_EQ(a.end, b.end) << "node " << i;
    EXPECT_EQ(a.num_records, b.num_records) << "node " << i;
    EXPECT_EQ(a.parent, b.parent) << "node " << i;
    EXPECT_EQ(a.children, b.children) << "node " << i;
    if (b.id.depth() > TxnId::kInlineCapacity) {
      ++totals->deeper_than_inline;
    }
  }
  EXPECT_EQ(tree.Signature(), RefSignature(ref.nodes));
  EXPECT_EQ(tree.SignatureKey(), RefSignatureKey(ref.nodes));
  EXPECT_EQ(tree.ServiceCallPairs(), RefServiceCallPairs(ref.nodes));
  EXPECT_EQ(tree.ImpliedMissingChildren(), RefImpliedMissingChildren(ref.nodes));

  const CriticalPath got_path = ComputeCriticalPath(tree);
  const CriticalPath want_path =
      ComputeCriticalPath(TraceTreeTestPeer::Wrap(ref));
  EXPECT_EQ(got_path.total_ns, want_path.total_ns);
  ASSERT_EQ(got_path.steps.size(), want_path.steps.size());
  for (size_t i = 0; i < want_path.steps.size(); ++i) {
    EXPECT_EQ(got_path.steps[i].node, want_path.steps[i].node);
    EXPECT_EQ(got_path.steps[i].service, want_path.steps[i].service);
    EXPECT_EQ(got_path.steps[i].exclusive_ns, want_path.steps[i].exclusive_ns);
  }

  ++totals->trees;
  totals->inferred += tree.num_inferred();
  totals->implied_missing += RefImpliedMissingChildren(ref.nodes);
}

// FromSession, and FromRecords on each root's records in record order and
// reversed, against the reference.
void ExpectSameTrees(const Session& session, Totals* totals) {
  const std::vector<TraceTree> got = TraceTree::FromSession(session);
  const std::vector<ReferenceTree> want = RefFromSession(session);
  ASSERT_EQ(got.size(), want.size()) << session.id;
  for (size_t t = 0; t < got.size(); ++t) {
    ExpectSameTree(got[t], want[t], totals);
  }
  std::map<uint32_t, std::vector<const LogRecord*>> by_root;
  for (const auto& r : session.records) {
    if (!r.txn_id.empty()) {
      by_root[r.txn_id.root()].push_back(&r);
    }
  }
  Totals ignored;
  for (auto& [root, records] : by_root) {
    ExpectSameTree(TraceTree::FromRecords(session.id, records),
                   RefFromRecords(session.id, records), &ignored);
    std::reverse(records.begin(), records.end());
    ExpectSameTree(TraceTree::FromRecords(session.id, records),
                   RefFromRecords(session.id, records), &ignored);
  }
}


LogRecord Rec(std::vector<uint32_t> path, EventTime t, uint32_t service) {
  LogRecord r;
  r.time = t;
  r.session_id = "S";
  r.txn_id = TxnId(path);
  r.service = service;
  r.host = service + 100;
  return r;
}

Session MakeSession(std::vector<LogRecord> records) {
  Session s;
  s.id = "S";
  s.records = std::move(records);
  return s;
}

// --- Cases -------------------------------------------------------------------

TEST(TraceTreeDifferential, GeneratorSessionsWithRecordLoss) {
  for (const double loss : {0.0, 0.2, 0.5}) {
    GeneratorConfig config;
    config.seed = 17;
    config.duration_ns = 8 * kNanosPerSecond;
    config.target_records_per_sec = 4'000;
    config.record_loss_rate = loss;
    TraceGenerator gen(config);
    std::vector<LogRecord> records;
    Epoch e;
    std::vector<LogRecord> batch;
    while (gen.NextEpoch(&e, &batch)) {
      for (auto& r : batch) {
        records.push_back(std::move(r));
      }
    }
    Totals totals;
    for (const Session& s : OfflineSessionizer::Sessionize(std::move(records))) {
      ExpectSameTrees(s, &totals);
    }
    SCOPED_TRACE(loss);
    EXPECT_GT(totals.trees, 500u);
    if (loss > 0) {
      EXPECT_GT(totals.inferred, 0u);
      EXPECT_GT(totals.implied_missing, 0u);
    }
  }
}

TEST(TraceTreeDifferential, IdsDeeperThanInlineCapacity) {
  // One logged leaf 3× the inline capacity deep: every ancestor, on both
  // sides of the boundary, is inferred. A sibling branch forks inside the
  // heap-stored depths.
  std::vector<uint32_t> deep;
  for (uint32_t i = 0; i < 3 * TxnId::kInlineCapacity; ++i) {
    deep.push_back(i == 0 ? 4 : 1 + i % 3);
  }
  std::vector<uint32_t> fork(deep.begin(), deep.begin() + TxnId::kInlineCapacity + 2);
  fork.push_back(9);
  std::vector<uint32_t> at_boundary(deep.begin(),
                                    deep.begin() + TxnId::kInlineCapacity);
  Totals totals;
  ExpectSameTrees(MakeSession({Rec(deep, 30, 1), Rec(fork, 20, 2),
                               Rec(at_boundary, 10, 3), Rec(deep, 40, 1)}),
                  &totals);
  EXPECT_GT(totals.deeper_than_inline, 0u);
  EXPECT_GT(totals.inferred, 2 * TxnId::kInlineCapacity);
}

TEST(TraceTreeDifferential, DuplicateIdsOutOfOrderRecordsAndSeveralRoots) {
  Totals totals;
  ExpectSameTrees(
      MakeSession({Rec({3, 2}, 50, 7), Rec({1}, 40, 1), Rec({3}, 10, 5),
                   Rec({1, 10}, 5, 2), Rec({3, 2}, 20, 7), Rec({}, 1, 9),
                   Rec({1, 2, 1}, 60, 3), Rec({2, 1}, 70, 4), Rec({1, 2}, 30, 2),
                   Rec({3, 1}, 35, 6), Rec({1, 10}, 3, 2), Rec({3, 2}, 80, 8),
                   Rec({4294967295u, 1}, 90, 1)}),
      &totals);
  EXPECT_EQ(totals.trees, 4u);
}

TEST(TraceTreeDifferential, RandomSessions) {
  // Random shapes: ids up to 3× the inline capacity deep drawn from a few
  // small component values (so prefixes are shared and ids repeat), records
  // in random order with random times, and up to four roots per session.
  Rng rng(23);
  Totals totals;
  for (int s = 0; s < 400; ++s) {
    std::vector<LogRecord> records;
    const size_t n = 1 + rng.NextBelow(40);
    const uint64_t roots = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      std::vector<uint32_t> path = {static_cast<uint32_t>(rng.NextBelow(roots))};
      const size_t depth = rng.NextBelow(3 * TxnId::kInlineCapacity);
      for (size_t d = 0; d < depth; ++d) {
        path.push_back(static_cast<uint32_t>(1 + rng.NextBelow(3)));
      }
      records.push_back(Rec(std::move(path),
                            static_cast<EventTime>(rng.NextBelow(1000)),
                            static_cast<uint32_t>(rng.NextBelow(5))));
    }
    ExpectSameTrees(MakeSession(std::move(records)), &totals);
  }
  EXPECT_GT(totals.deeper_than_inline, 0u);
  EXPECT_GT(totals.inferred, 0u);
}

}  // namespace
}  // namespace ts
