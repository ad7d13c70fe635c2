// Bounded in-memory store of recently reconstructed sessions — the substrate
// behind the architecture's "UI: Query interface, Live visualization" box
// (Figure 2). Sessionization output streams in; operators and dashboards query
// by session ID, by service, or by time range; memory is bounded by evicting
// the oldest-closed sessions first.
//
// Thread-safe: sinks on worker threads insert concurrently with queries.
#ifndef SRC_ANALYTICS_SESSION_STORE_H_
#define SRC_ANALYTICS_SESSION_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/timely/scope.h"

namespace ts {

class SessionStore {
 public:
  struct Options {
    size_t max_bytes = 256ull << 20;  // Eviction threshold.
  };

  struct Stats {
    size_t sessions = 0;
    size_t bytes = 0;
    uint64_t inserted = 0;
    uint64_t evicted = 0;
  };

  SessionStore() : SessionStore(Options()) {}
  explicit SessionStore(const Options& options) : options_(options) {}

  // Inserts a reconstructed session (typically from a dataflow sink). A later
  // fragment of the same ID is stored as its own entry.
  void Insert(Session session);

  // Exact lookup by (session id, fragment index).
  std::optional<Session> GetById(const std::string& id, uint32_t fragment = 0) const;

  // All stored fragments of a session id, oldest first.
  std::vector<Session> GetAllFragments(const std::string& id) const;

  // Most recently closed sessions that invoked `service`, up to `limit`.
  std::vector<Session> QueryByService(uint32_t service, size_t limit) const;

  // Sessions whose event-time extent intersects [lo, hi), up to `limit`,
  // ordered by start time. limit == 0 returns nothing.
  std::vector<Session> QueryByTimeRange(EventTime lo, EventTime hi,
                                        size_t limit) const;

  // The `k` services touched by the most live (non-evicted) sessions, as
  // (service, session count) descending by count, ties broken by service id.
  // Feeds the query protocol's TOPK verb.
  std::vector<std::pair<uint32_t, size_t>> TopServices(size_t k) const;

  // True when (id, fragment) is currently stored — the ts_ckpt restore path's
  // replay-window dedupe guard.
  bool Contains(const std::string& id, uint32_t fragment) const;

  Stats stats() const;

  // --- Snapshot support (ts_ckpt) ---

  // Iterates every live entry oldest-inserted-first under mu_, handing each
  // session to `fn`. `fn` must not call back into the store. The callback
  // form lets the checkpointer serialize straight out of the store without
  // materializing a second copy of every session.
  void ForEachSession(const std::function<void(const Session&)>& fn) const;

  // Delta scan for the incremental checkpointer: like ForEachSession but only
  // entries whose process-local insertion seq is >= min_seq. Returns the live
  // seq window [oldest, next): seqs are consecutive (every insert appends,
  // eviction pops the front), so a frame cache keyed by seq drops exactly
  // `oldest - previous_oldest` entries from its front and appends the ones
  // this call visited. Seqs restart at 0 in each process (ImportSnapshot
  // renumbers), unlike the lifetime inserted/evicted counters.
  struct SeqWindow {
    uint64_t oldest = 0;  // Seq of the oldest live entry (== next if empty).
    uint64_t next = 0;    // One past the newest live entry's seq.
  };
  SeqWindow ForEachSessionSince(
      uint64_t min_seq, const std::function<void(const Session&)>& fn) const;

  // Rebuilds the store from snapshot sessions (vector order becomes insertion
  // order, i.e. eviction order) and restores the lifetime counters. Insert
  // observers are NOT invoked — restored sessions were already published to
  // subscribers by the pre-crash process. Intended for a freshly constructed
  // store; existing entries are kept (restore into an empty store).
  void ImportSnapshot(std::vector<Session> sessions, uint64_t inserted,
                      uint64_t evicted);

  // Subscription hook: `fn` runs synchronously inside Insert, after the
  // session is indexed, for every future insert. Observers are invoked under
  // the store lock — they must be fast and must not call back into the store
  // (the query server's observer just serializes the session and enqueues it
  // for its event loop). Returns a token for RemoveInsertObserver.
  using InsertObserver = std::function<void(const Session&)>;
  uint64_t AddInsertObserver(InsertObserver fn);
  void RemoveInsertObserver(uint64_t token);

  // Eviction sink: receives every evicted session (strictly oldest-first, the
  // store's insertion order) instead of letting it vanish — the hook the cold
  // tier hangs off. Invoked UNDER the store lock, immediately after the
  // victim is unindexed, so (a) the victim is atomically handed to the next
  // tier — no window where a concurrent query finds it in neither tier, and
  // no checkpoint barrier can complete around a victim in transit — and
  // (b) with concurrent Inserts on N shard workers, sink calls are serialized
  // in exact eviction order (the cold tier's prefix-order invariant). The
  // sink must therefore not block and must not call back into the store
  // (ColdTier::Append is built for exactly this). Blocking backpressure
  // belongs in `barrier`, which runs after the lock is released whenever the
  // triggering Insert/ImportSnapshot evicted anything (ColdTier::
  // WaitForSpace). Set once during setup, before inserts can run
  // concurrently; unset means evictions are discarded as before.
  using EvictionSink = std::function<void(Session&&)>;
  using EvictionBarrier = std::function<void()>;
  void SetEvictionSink(EvictionSink sink, EvictionBarrier barrier = nullptr);

 private:
  struct Entry {
    Session session;
    size_t bytes = 0;
    EventTime min_time = 0;
    EventTime max_time = 0;
    uint64_t seq = 0;                // Insertion order.
    std::vector<uint32_t> services;  // Sorted, unique; mirrors by_service_.
  };
  using EntryList = std::list<Entry>;

  // Caller holds mu_. Each victim is handed to the eviction sink (when set)
  // as it is unindexed, still under mu_, then moved to `victims` — which the
  // caller destroys after unlocking, so no free runs under mu_ — and whose
  // non-emptiness tells the caller to run the eviction barrier.
  void EvictIfNeeded(EntryList* victims);
  void Unindex(EntryList::iterator it);
  EntryList::iterator InsertLocked(Session session);  // Caller holds mu_.

  Options options_;
  mutable std::mutex mu_;
  EntryList entries_;  // Insertion (close) order: front = oldest.
  // (id, fragment) -> entry.
  std::map<std::pair<std::string, uint32_t>, EntryList::iterator> by_id_;
  // service -> entries that touched it, insertion order preserved. Eviction
  // unindexes an entry from exactly the services in Entry::services; since
  // eviction is oldest-first, the victim sits at the front of each deque and
  // is popped in O(1).
  std::unordered_map<uint32_t, std::deque<EntryList::iterator>> by_service_;
  // start time -> entry.
  std::multimap<EventTime, EntryList::iterator> by_time_;
  Stats stats_;
  uint64_t next_seq_ = 0;
  std::vector<std::pair<uint64_t, InsertObserver>> observers_;
  uint64_t next_observer_token_ = 0;
  EvictionSink eviction_sink_;
  EvictionBarrier eviction_barrier_;
};

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

#endif  // SRC_ANALYTICS_SESSION_STORE_H_
