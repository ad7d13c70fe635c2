#include "src/core/trace_tree.h"

#include <algorithm>
#include <charconv>

#include "src/common/status.h"

namespace ts {
namespace {

// Number of leading components `a` and `b` share.
size_t SharedPrefix(const TxnId& a, const TxnId& b) {
  const std::span<const uint32_t> x = a.path();
  const std::span<const uint32_t> y = b.path();
  return static_cast<size_t>(
      std::mismatch(x.begin(), x.end(), y.begin(), y.end()).first - x.begin());
}

}  // namespace

std::vector<TraceTree> TraceTree::FromSession(const Session& session) {
  // Order the records by transaction id, which groups them by root index.
  // They share one vector, so breaking ties by address keeps record order.
  std::vector<const LogRecord*> sorted;
  sorted.reserve(session.records.size());
  for (const auto& r : session.records) {
    if (r.txn_id.empty()) {
      continue;  // Malformed correlator; cannot be placed in any tree.
    }
    sorted.push_back(&r);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const LogRecord* a, const LogRecord* b) {
              const auto order = a->txn_id <=> b->txn_id;
              return order != 0 ? order < 0 : a < b;
            });
  std::vector<TraceTree> trees;
  const std::span<const LogRecord* const> all(sorted);
  for (size_t begin = 0; begin < all.size();) {
    const uint32_t root = all[begin]->txn_id.root();
    size_t end = begin + 1;
    while (end < all.size() && all[end]->txn_id.root() == root) {
      ++end;
    }
    trees.push_back(FromSortedRecords(session.id, all.subspan(begin, end - begin)));
    begin = end;
  }
  return trees;
}

TraceTree TraceTree::FromRecords(const std::string& session_id,
                                 std::span<const LogRecord* const> records) {
  std::vector<const LogRecord*> sorted(records.begin(), records.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const LogRecord* a, const LogRecord* b) {
                     return a->txn_id < b->txn_id;
                   });
  return FromSortedRecords(session_id, sorted);
}

TraceTree TraceTree::FromSortedRecords(const std::string& session_id,
                                       std::span<const LogRecord* const> sorted) {
  TS_CHECK(!sorted.empty());
  TraceTree tree;
  tree.session_id_ = session_id;

  // Nodes are laid out in id order, which puts the root first, every node
  // after its ancestors, and siblings in index order. Every id implies its
  // ancestors (§2.3: "transaction ID of 2-10 implies there is a root
  // transaction 2"). Those the previous record's id did not already imply
  // are the prefixes longer than the prefix the two share; they sort between
  // the two ids, so emitting them just before the id keeps the layout sorted.
  // A record whose id equals the previous one (a span's START, ANNOT and END)
  // adds no node. Count first so the node vector is allocated once.
  const uint32_t root = sorted.front()->txn_id.root();
  size_t num_nodes = 0;
  const TxnId* prev = nullptr;
  for (const auto* r : sorted) {
    TS_CHECK(r->txn_id.root() == root);
    num_nodes += r->txn_id.depth() - (prev ? SharedPrefix(*prev, r->txn_id) : 0);
    prev = &r->txn_id;
  }
  tree.nodes_.reserve(num_nodes);
  auto add_node = [&tree](TxnId id) {
    const int index = static_cast<int>(tree.nodes_.size());
    // In this pre-order layout the parent is the nearest ancestor of the
    // previous node one level up.
    int parent = index - 1;
    while (parent >= 0 && tree.nodes_[parent].id.depth() >= id.depth()) {
      parent = tree.nodes_[parent].parent;
    }
    TraceNode& node = tree.nodes_.emplace_back();
    node.id = std::move(id);
    node.inferred = true;
    node.parent = parent;
  };

  // Fold in the records: ties are in record order, so each node takes its
  // service and host from its first record.
  prev = nullptr;
  for (const auto* r : sorted) {
    const std::span<const uint32_t> path = r->txn_id.path();
    const size_t shared = prev ? SharedPrefix(*prev, r->txn_id) : 0;
    for (size_t len = shared + 1; len < path.size(); ++len) {
      add_node(TxnId(path.first(len)));
    }
    if (shared < path.size()) {
      add_node(r->txn_id);
    }
    prev = &r->txn_id;

    TraceNode& node = tree.nodes_.back();
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
    ++tree.total_records_;
    if (tree.total_records_ == 1) {
      tree.min_time_ = tree.max_time_ = r->time;
    } else {
      tree.min_time_ = std::min(tree.min_time_, r->time);
      tree.max_time_ = std::max(tree.max_time_, r->time);
    }
  }
  TS_CHECK(tree.nodes_.size() == num_nodes && tree.nodes_.front().id.IsRoot());

  // Link children, each list allocated once at its exact size; ascending
  // node order sorts them by sibling index.
  std::vector<uint32_t> num_children(num_nodes, 0);
  for (size_t i = 1; i < num_nodes; ++i) {
    ++num_children[tree.nodes_[i].parent];
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    tree.nodes_[i].children.reserve(num_children[i]);
  }
  for (size_t i = 1; i < num_nodes; ++i) {
    tree.nodes_[tree.nodes_[i].parent].children.push_back(static_cast<int>(i));
  }
  return tree;
}

size_t TraceTree::num_inferred() const {
  size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.inferred) {
      ++n;
    }
  }
  return n;
}

std::vector<int> TraceTree::BfsOrder() const {
  std::vector<int> order;
  order.reserve(nodes_.size());
  order.push_back(0);
  for (size_t head = 0; head < order.size(); ++head) {
    const auto& children = nodes_[order[head]].children;
    order.insert(order.end(), children.begin(), children.end());
  }
  return order;
}

std::vector<uint32_t> TraceTree::Signature() const {
  std::vector<uint32_t> sig;
  sig.reserve(nodes_.size());
  for (int n : BfsOrder()) {
    sig.push_back(static_cast<uint32_t>(nodes_[n].children.size()));
  }
  return sig;
}

std::string TraceTree::SignatureKey() const {
  std::string key;
  key.reserve(2 * nodes_.size());  // One digit and a '.' per node, usually.
  char buf[12];                     // u32 max is 10 digits.
  for (int n : BfsOrder()) {
    if (!key.empty()) {
      key.push_back('.');
    }
    auto [ptr, ec] = std::to_chars(
        buf, buf + sizeof(buf), static_cast<uint32_t>(nodes_[n].children.size()));
    key.append(buf, static_cast<size_t>(ptr - buf));
  }
  return key;
}

std::vector<std::pair<uint32_t, uint32_t>> TraceTree::ServiceCallPairs() const {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (int n : BfsOrder()) {
    const TraceNode& parent = nodes_[n];
    if (parent.service == kUnknownService) {
      continue;
    }
    for (int c : parent.children) {
      if (nodes_[c].service != kUnknownService) {
        pairs.emplace_back(parent.service, nodes_[c].service);
      }
    }
  }
  return pairs;
}

size_t TraceTree::DistinctServices() const {
  std::vector<uint32_t> services;
  services.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    if (node.service != kUnknownService) {
      services.push_back(node.service);
    }
  }
  std::sort(services.begin(), services.end());
  services.erase(std::unique(services.begin(), services.end()), services.end());
  return services.size();
}

size_t TraceTree::ImpliedMissingChildren() const {
  size_t missing = 0;
  for (const auto& node : nodes_) {
    if (node.children.empty()) {
      continue;
    }
    uint32_t max_sibling = 0;
    for (int c : node.children) {
      max_sibling = std::max(max_sibling, nodes_[c].id.sibling_index());
    }
    // Sibling indices are 1-based in the instrumentation convention, so a max
    // index above the child count implies unobserved siblings.
    if (max_sibling > node.children.size()) {
      missing += max_sibling - node.children.size();
    }
  }
  return missing;
}

}  // namespace ts
