// QueryServer: the serving-side transport of the reproduction — the paper's
// Figure 2 feeds sessionization output into a "UI: Query interface, Live
// visualization" box, and this server is that box's entry point. It attaches
// to a live SessionStore and answers the ts_query wire protocol
// (src/query/query_protocol.h): point lookups, service/time-range scans,
// STATS over the store + a MetricsRegistry, TOPK, and a streaming SUBSCRIBE
// that live-tails every session inserted (closed) after the subscriber
// attaches.
//
// Built on the same pieces as the ingest-side LogServer: EventLoop (epoll +
// wake eventfd), LineFramer request framing, and bounded per-connection
// SendBuffers. Memory is bounded per connection:
//   * query responses stage at most max_conn_buffer_bytes of blocks, plus at
//     most one session block of overshoot (a response always makes
//     progress); multi-session responses cut short by the budget carry a
//     #TRUNCATED line before their #OK;
//   * subscription pushes NEVER overshoot — a session that does not fit in a
//     slow subscriber's buffer is dropped and counted, and the subscriber
//     sees "#DROPPED <n>" as soon as space frees, so a stalled dashboard
//     costs a bounded buffer instead of server memory (the unbounded-
//     buffering failure mode Figure 6 pins on the generic-engine baseline).
//
// Threading: Run()/PollOnce() drive everything on one thread. Stop() and
// counters() are thread-safe. Session inserts arrive from dataflow worker
// threads. While anyone is subscribed, the loop keeps the set of distinct
// active filters registered as the store's insert observer; the inserting
// thread judges each closed session against that set before the store lock
// and serializes only a session some filter takes. Under the store lock the
// push joins a mutex-guarded queue in insertion order, and the loop is woken
// when that queue goes from empty to non-empty.
#ifndef SRC_QUERY_QUERY_SERVER_H_
#define SRC_QUERY_QUERY_SERVER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/analytics/session_store.h"
#include "src/store/cold_tier.h"
#include "src/net/event_loop.h"
#include "src/net/frame_reader.h"
#include "src/net/net_util.h"
#include "src/net/send_buffer.h"
#include "src/net/transport_stats.h"
#include "src/common/metrics_registry.h"
#include "src/query/query_protocol.h"

namespace ts {

struct QueryServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port from port().
  // Per-connection staged-output budget (responses and subscription pushes).
  size_t max_conn_buffer_bytes = 256 << 10;
  // When > 0, pins SO_SNDBUF/SO_RCVBUF on accepted connections to this size,
  // disabling kernel buffer auto-tuning so max_conn_buffer_bytes is the real
  // end-to-end bound on a slow subscriber (instead of the kernel silently
  // growing a multi-megabyte cushion under it). 0 keeps the kernel default.
  int conn_sock_buf_bytes = 0;
  // SERVICE/RANGE limits are clamped to this.
  size_t max_query_limit = 10'000;
};

// Plain snapshot of the server's own counters (transport bytes live in
// TransportStats).
struct QueryServerCounters {
  uint64_t queries = 0;            // Requests answered (#OK or #ERR).
  uint64_t errors = 0;             // #ERR responses.
  uint64_t subscribers_attached = 0;
  uint64_t sessions_streamed = 0;  // Blocks pushed to subscribers.
  uint64_t sessions_dropped = 0;   // Blocks dropped on slow subscribers.
  uint64_t filter_evals = 0;       // Subscription filter predicate runs.
  uint64_t sessions_encoded = 0;   // Closed sessions serialized for pushes.
};

class QueryServer {
 public:
  // `metrics` may be null; when set, its gauges are appended to STATS.
  QueryServer(const QueryServerOptions& options,
              std::shared_ptr<SessionStore> store,
              std::shared_ptr<MetricsRegistry> metrics = nullptr);
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, listens and sets up the event loop. Returns false on any socket
  // error. The store insert observer is installed by the first SUBSCRIBE.
  bool Start();

  // Source for TEMPLATES responses: a point-in-time snapshot of the mined
  // templates (ts_sessionize wires the live pipeline's TemplateSnapshot in
  // when --mine-templates is set). Must be thread-safe — it runs on the
  // serving thread. Call before Start()/Run(); when unset, TEMPLATES
  // answers "#ERR template mining disabled".
  using TemplateSource = std::function<std::vector<TemplateCount>()>;
  void SetTemplateSource(TemplateSource source) {
    template_source_ = std::move(source);
  }

  // Attaches the cold tier (may be null). Call before Start(): the loop
  // thread reads it without further synchronization. With a tier attached,
  // GET/FRAGMENTS/SERVICE/RANGE/TOPK answer over hot ∪ cold through
  // src/store/tiered_reads.h, and STATS grows store_cold_* gauges —
  // history is bounded only by disk. Attaching makes the store track its
  // cold twins (TrackColdTwins) until this server goes away.
  void SetColdTier(std::shared_ptr<ColdTier> cold);

  uint16_t port() const { return port_; }

  // Serves until Stop(). Drops all connections on exit.
  void Run();

  // One event-loop iteration; returns false once the server should exit.
  bool PollOnce(int timeout_ms);

  // Thread-safe: wakes the loop and makes Run() return.
  void Stop();

  const TransportStats& stats() const { return stats_; }
  QueryServerCounters counters() const;
  size_t subscriber_count() const {
    return subscriber_count_.load(std::memory_order_relaxed);
  }

  // Runs on the loop thread right after DeliverPending has taken the pending
  // queue, before it fans the taken pushes out — a deterministic point for
  // tests to race an insert against the hand-off. Set before Start().
  void SetPendingSwapHookForTest(std::function<void()> hook) {
    pending_swap_hook_ = std::move(hook);
  }

 private:
  // One distinct SUBSCRIBE filter. Subscribers that ask for an equal filter
  // share it and its id. Ids are never reused, so a push judged against an
  // older filter set never reaches a later subscriber of an equal filter.
  struct Filter {
    enum class Kind { kAll, kService, kPrefix };
    Kind kind = Kind::kAll;
    uint32_t service = 0;
    std::string prefix;
    uint64_t id = 0;
    bool SameAs(const Filter& other) const {
      return kind == other.kind && service == other.service &&
             prefix == other.prefix;
    }
  };

  struct Connection {
    explicit Connection(size_t send_cap) : send(send_cap) {}
    FdGuard fd;
    LineFramer framer;
    SendBuffer send;
    bool subscribed = false;
    Filter filter;                 // Meaningful once subscribed.
    uint64_t dropped_pending = 0;  // Drops since the last #DROPPED notice.
  };

  // A closed session some active filter takes, serialized once on the
  // inserting thread and fanned out to the subscribers of those filters on
  // the loop.
  struct PendingPush : SessionStore::InsertObserver::Pending {
    std::string block;
    std::vector<uint64_t> taken;  // Ids of the filters that take it.
    uint64_t filter_evals = 0;    // Counted when the push is fanned out.
    bool TakenBy(uint64_t filter_id) const {
      return std::find(taken.begin(), taken.end(), filter_id) != taken.end();
    }
  };

  // The published filter set: the store insert observer (query_server.cc).
  class ActiveFilters;

  void Accept();
  // Returns false if the connection died and was removed.
  bool HandleReadable(Connection* conn);
  void HandleRequest(Connection* conn, const std::string& line);
  void AppendStats(Connection* conn, uint64_t* lines);
  // Fans queued pushes out to subscribers and flushes them.
  void DeliverPending();
  // Emits a pending "#DROPPED n" notice once it fits.
  void MaybeEmitDropNotice(Connection* conn);
  // Flushes; returns false if the connection died and was removed.
  bool FlushConnection(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConnection(int fd);
  // Registers the distinct filters of the current subscribers with the store
  // (none: no observer at all). Called whenever a subscription starts or ends.
  void PublishFilters();

  QueryServerOptions options_;
  std::shared_ptr<SessionStore> store_;
  std::shared_ptr<ColdTier> cold_;  // May be null; set before Start().
  std::shared_ptr<MetricsRegistry> metrics_;
  TemplateSource template_source_;  // Set before Start(); loop thread reads.
  uint16_t port_ = 0;
  FdGuard listen_fd_;
  EventLoop loop_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::unique_ptr<ActiveFilters> active_filters_;  // Registered with store_.
  uint64_t next_filter_id_ = 1;
  std::function<void()> pending_swap_hook_;

  std::mutex pending_mu_;
  std::vector<std::unique_ptr<PendingPush>> pending_;  // Guarded by pending_mu_.

  TransportStats stats_;
  std::atomic<size_t> subscriber_count_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> subscribers_attached_{0};
  std::atomic<uint64_t> sessions_streamed_{0};
  std::atomic<uint64_t> sessions_dropped_{0};
  std::atomic<uint64_t> filter_evals_{0};
  std::atomic<uint64_t> sessions_encoded_{0};
};

}  // namespace ts

#endif  // SRC_QUERY_QUERY_SERVER_H_
