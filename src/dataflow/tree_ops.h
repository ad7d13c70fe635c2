// Dataflow stage turning sessions into trace trees (§4.3:
// "stream.sessionize(INACTIVITY_LIMIT).construct_trace_trees()").
#ifndef SRC_DATAFLOW_TREE_OPS_H_
#define SRC_DATAFLOW_TREE_OPS_H_

#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/core/trace_tree.h"
#include "src/timely/scope.h"

namespace ts {

// One TraceTree per root span in each session. Pipeline stage: sessions are
// already partitioned by session ID, and a tree is derived from one session.
inline Stream<TraceTree> ConstructTraceTrees(Scope& scope,
                                             const Stream<Session>& sessions) {
  return scope.FlatMap<Session, TraceTree>(
      sessions, "construct_trace_trees",
      [](Session session, std::vector<TraceTree>& out) {
        for (auto& tree : TraceTree::FromSession(session)) {
          out.push_back(std::move(tree));
        }
      });
}

}  // namespace ts

#endif  // SRC_DATAFLOW_TREE_OPS_H_
