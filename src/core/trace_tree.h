// Trace trees: the per-request call hierarchies recovered from a session.
//
// Each root span (root-level transaction index) in a session yields one trace
// tree. Nodes are transactions; structure comes entirely from the hierarchical
// transaction IDs, so reconstruction works independently of component
// boundaries (§2.1, §5 "Workload characteristics"). Interior nodes whose own
// log records were lost are *inferred* from their descendants' IDs (§2.3).
#ifndef SRC_CORE_TRACE_TREE_H_
#define SRC_CORE_TRACE_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/time_util.h"
#include "src/core/session.h"
#include "src/log/record.h"

namespace ts {

// Service id of a node with no observed records.
inline constexpr uint32_t kUnknownService = 0xFFFFFFFFu;

struct TraceNode {
  TxnId id;
  uint32_t service = kUnknownService;
  uint32_t host = kUnknownService;  // Machine that emitted the span's records.
  bool inferred = false;      // Existence implied by descendants only.
  EventTime start = 0;        // Earliest observed record time (0 if inferred).
  EventTime end = 0;          // Latest observed record time.
  uint32_t num_records = 0;   // Log records (annotations) observed for this node.
  int parent = -1;            // Node index; -1 for the root.
  std::vector<int> children;  // Node indices, ordered by sibling index.
};

class TraceTree {
 public:
  // Splits a session's records by root transaction index and builds one tree
  // per root span, ordered by root index.
  static std::vector<TraceTree> FromSession(const Session& session);

  // Builds a single tree from records sharing one root transaction index, in
  // any order; a node's service and host come from its first record.
  static TraceTree FromRecords(const std::string& session_id,
                               std::span<const LogRecord* const> records);

  const std::vector<TraceNode>& nodes() const { return nodes_; }
  const TraceNode& root() const { return nodes_.front(); }
  const std::string& session_id() const { return session_id_; }

  size_t num_spans() const { return nodes_.size(); }
  size_t num_inferred() const;
  uint32_t total_records() const { return total_records_; }

  EventTime MinTime() const { return min_time_; }
  EventTime MaxTime() const { return max_time_; }
  EventTime Duration() const { return max_time_ - min_time_; }

  // Light-weight structural signature: the out-degree of every node in BFS
  // order (§5.2 "a tree signature amounts to a vector whose elements correspond
  // to the number of outgoing edges of the nodes in the trace tree").
  std::vector<uint32_t> Signature() const;

  // Signature packed into a printable key, usable for counting/top-k.
  std::string SignatureKey() const;

  // Parent-service -> child-service pairs discovered by a breadth-first
  // traversal (§5.2 "Inferring communication patterns"). Pairs involving
  // inferred nodes (unknown service) are skipped.
  std::vector<std::pair<uint32_t, uint32_t>> ServiceCallPairs() const;

  // Number of distinct services with observed activity in this tree (Figure 4).
  size_t DistinctServices() const;

  // Children implied by sibling indices but never observed: a node whose
  // max child sibling index exceeds its child count is missing descendants
  // (detectable log loss, §2.3).
  size_t ImpliedMissingChildren() const;

 private:
  // Lets the differential test wrap reference-built nodes in a TraceTree.
  friend struct TraceTreeTestPeer;

  // Builds one tree from records sharing one root index, sorted by id with
  // ties in record order.
  static TraceTree FromSortedRecords(const std::string& session_id,
                                     std::span<const LogRecord* const> sorted);

  // Node indices in breadth-first order from the root.
  std::vector<int> BfsOrder() const;

  std::string session_id_;
  std::vector<TraceNode> nodes_;  // nodes_[0] is the root.
  uint32_t total_records_ = 0;
  EventTime min_time_ = 0;
  EventTime max_time_ = 0;
};

}  // namespace ts

#endif  // SRC_CORE_TRACE_TREE_H_
