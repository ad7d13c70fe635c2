// Dataflow stage feeding reconstructed sessions into a SessionStore, the
// query substrate of the architecture's "UI: Query interface" box (Figure 2).
#ifndef SRC_DATAFLOW_STORE_SESSIONS_H_
#define SRC_DATAFLOW_STORE_SESSIONS_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/analytics/session_store.h"
#include "src/core/session.h"
#include "src/timely/scope.h"

namespace ts {

// Attaches a sink that feeds every session of `stream` into `store`.
inline void StoreSessions(Scope& scope, const Stream<Session>& stream,
                          std::shared_ptr<SessionStore> store) {
  scope.Sink<Session>(stream, "session_store",
                      [store](Epoch, std::vector<Session>& data) {
                        for (auto& s : data) {
                          store->Insert(std::move(s));
                        }
                      });
}

}  // namespace ts

#endif  // SRC_DATAFLOW_STORE_SESSIONS_H_
