// Sessionization as a data-parallel windowed group-by operator (§4.2): the
// timely adapter over the one sessionization kernel, LiveCloser.
//
// Records are shuffled by SipHash-2-4 of the session ID (Exchange PACT) to one
// LiveCloser per worker. A session is flushed once a fixed number of epochs
// elapse with no intervening activity ("flush on inactivity", §3): every
// emission is notification-driven — timeout is the norm, not the exception.
//
// Of the paper's three indexed collections, the adapter keeps (i), messages
// organized by time: data may race ahead of notifications (several epochs can
// be in flight concurrently), so records are staged per epoch and fed to the
// closer strictly in epoch order, when the epoch's notification fires. Without
// this staging, a fast-arriving future record would spuriously extend a
// session that the inactivity rule should have closed. The closer holds (ii),
// the in-flight sessions, and (iii), the expiration candidates.
//
// The closer keys each record on its epoch, not its event time. It counts
// nanoseconds and reports whole seconds as epochs, so epoch e is fed as e
// seconds. On the notification for epoch e the watermark becomes the frontier,
// e + 1, and the window is inactivity_epochs + 1: a session last active at L
// closes at e = L + inactivity_epochs, while a record at exactly that epoch is
// fed first and extends it (a gap equal to the timeout does not split).
#ifndef SRC_DATAFLOW_SESSIONIZE_H_
#define SRC_DATAFLOW_SESSIONIZE_H_

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/live_closer.h"
#include "src/core/session.h"
#include "src/log/record.h"
#include "src/timely/scope.h"

namespace ts {

struct SessionizeOptions {
  // Number of epochs that must elapse without activity before a session is
  // declared closed. With 1-second epochs, 5 means "5 seconds idle".
  Epoch inactivity_epochs = 5;
};

// Per-worker metrics exposed for tests and benches. The shared_ptr returned by
// Sessionize keeps them alive past the computation.
struct SessionizeMetrics {
  uint64_t records_in = 0;
  uint64_t sessions_out = 0;
  uint64_t fragments_out = 0;  // Emissions with fragment_index > 0.
  size_t peak_inflight_sessions = 0;
  size_t peak_state_bytes = 0;  // Staged plus open record bytes.
};

// Builds the sessionization stage on `scope`: exchange by session hash followed
// by the stateful window operator. Returns the session stream and this worker's
// metrics handle.
inline std::pair<Stream<Session>, std::shared_ptr<SessionizeMetrics>> Sessionize(
    Scope& scope, const Stream<LogRecord>& records, const SessionizeOptions& options) {
  struct WorkerState {
    explicit WorkerState(EventTime window) : closer(window) {}
    std::map<Epoch, std::vector<LogRecord>> pending_by_epoch;
    size_t pending_bytes = 0;
    LiveCloser closer;
    std::vector<Session> closed;
    SessionizeMetrics metrics;
  };
  const auto key = [](Epoch e) { return static_cast<EventTime>(e) * kNanosPerSecond; };
  const Epoch delay = options.inactivity_epochs;
  auto state = std::make_shared<WorkerState>(key(delay + 1));
  auto metrics = std::make_shared<SessionizeMetrics>();

  auto sessions = scope.Unary<LogRecord, Session>(
      records,
      Partition<LogRecord>::ByKey(
          [](const LogRecord& r) { return SessionHash(r.session_id); }),
      "sessionize",
      // Data plane: stage records by epoch.
      [state](Epoch epoch, std::vector<LogRecord>& data, OutputSession<Session>&,
              NotificatorHandle& notificator) {
        if (data.empty()) {
          return;
        }
        state->metrics.records_in += data.size();
        auto& staged = state->pending_by_epoch[epoch];
        for (auto& r : data) {
          state->pending_bytes += r.MemoryFootprint();
          staged.push_back(std::move(r));
        }
        notificator.NotifyAt(epoch);
      },
      // Control plane, invoked in strict epoch order: (1) feed the epoch's
      // staged records to the closer, (2) flush sessions whose inactivity
      // window elapsed at this epoch.
      [state, delay, metrics, key](Epoch epoch, OutputSession<Session>& out,
                                   NotificatorHandle& notificator) {
        LiveCloser& closer = state->closer;
        auto staged = state->pending_by_epoch.find(epoch);
        if (staged != state->pending_by_epoch.end()) {
          for (auto& r : staged->second) {
            state->pending_bytes -= r.MemoryFootprint();
            closer.Feed(std::move(r), key(epoch), &state->closed);
          }
          state->pending_by_epoch.erase(staged);
          notificator.NotifyAt(epoch + delay);
          state->metrics.peak_inflight_sessions =
              std::max(state->metrics.peak_inflight_sessions, closer.open_sessions());
          state->metrics.peak_state_bytes = std::max(
              state->metrics.peak_state_bytes, state->pending_bytes + closer.open_bytes());
        }
        closer.ObserveWatermark(key(epoch + 1));
        closer.CloseExpired(&state->closed);
        for (auto& session : state->closed) {
          session.closed_at = epoch;
          ++state->metrics.sessions_out;
          if (session.fragment_index > 0) {
            ++state->metrics.fragments_out;
          }
          out.Give(epoch, std::move(session));
        }
        state->closed.clear();
        // Publish the metrics snapshot for this worker.
        *metrics = state->metrics;
      });
  return {sessions, metrics};
}

}  // namespace ts

#endif  // SRC_DATAFLOW_SESSIONIZE_H_
