// ColdTier: the on-disk half of the tiered session store.
//
// The in-memory SessionStore stays a bounded hot window; when it evicts, the
// victims land here (SessionStore::SetEvictionSink) instead of vanishing.
// The handoff is two-phase: Append — the sink — indexes the victim into a
// bounded in-memory pending queue and never blocks, so the store can run it
// *under its own lock*, making "removed from hot" and "visible in cold" one
// atomic step; WaitForSpace — the store's eviction barrier, called after the
// store lock is released — is where backpressure blocks the evicting thread.
// A background spill thread drains pending into cold segment files
// (src/store/cold_segment.h — the ts_ckpt snapshot container with a footer
// index), so the evicting shard thread never pays for serialization, CRC or
// fsync. Pending sessions remain fully queryable until their segment is
// durable: a session is never invisible between leaving the hot window and
// reaching disk, and no query can ever observe it in neither tier.
//
// Ordering. Every accepted Append gets a global, monotonically increasing
// spill order. Eviction is strictly oldest-first and Append runs inside the
// store's eviction critical section, so the cold orders form an exact prefix
// of the store's insertion sequence: every cold session precedes every hot
// one. The hot ∪ cold merge relies on this to reproduce the exact bytes an
// unbounded store would serve; its rule (hot read first, hot copy wins on a
// shared (id, fragment), RANGE cold-first on equal start times, frames read
// only when emitted) lives in one place, src/store/tiered_reads.h. On
// restart, segments are re-discovered by directory scan (file order ==
// spill order), so the sequence survives crashes.
//
// Crash consistency. Segment writes are atomic (tmp+fsync+rename); pending
// sessions lost to a crash are re-derived by the ts_ckpt replay and re-spill
// on the same eviction path, deduplicated by (id, fragment) against
// everything already cold. FlushPending() — called by the checkpoint writer
// right before each snapshot file is published — guarantees the invariant a
// restore depends on: any eviction that happened before a snapshot's barrier
// is durable in cold by the time that snapshot exists. Hence every closed
// session is always in the snapshot's hot window, in a durable segment, or
// replayable from the log — never lost.
//
// Damage tolerance. A segment that fails index validation at Start is
// skipped (and counted in `corrupt`); a frame that fails its CRC at read
// time degrades to a cold miss. Neither can crash the server or surface a
// wrong answer — the corruption property test flips every byte to prove it.
// Start also unlinks (and counts) leftover `*.tmp` files from a crashed
// spill, so a dead incarnation's partial write can never be confused for a
// segment or leak disk forever.
//
// Storage degradation. A failed segment write retries with bounded
// exponential backoff (spill_backoff_ms, doubling, capped ~2s). After
// spill_retry_limit consecutive failures the tier sheds the stuck batch —
// un-indexes it and advances the durable frontier — with exact accounting
// (shed_batches / shed_sessions / shed_bytes) and raises `shedding` until a
// write succeeds again. Shedding converts an unbounded pending backlog on a
// dead disk into a counted, bounded loss: ingest keeps its WaitForSpace
// semantics (the queue drains, so eviction never wedges), queries keep
// serving hot + already-durable cold, and a shed session becomes a plain
// cold miss — never a wrong answer. Serving preads retry a transient
// failure once (read_retries) before counting the miss as corrupt.
//
// Thread-safe throughout. The destructor stops the spill thread and
// *discards* pending sessions (crash-equivalent by design — the conformance
// suite's kill-mid-spill schedules are exactly this); call FlushPending()
// first on a graceful shutdown.
#ifndef SRC_STORE_COLD_TIER_H_
#define SRC_STORE_COLD_TIER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/store/cold_segment.h"

namespace ts {

struct ColdTierOptions {
  std::string dir;
  // A segment is cut once the pending batch reaches this many (in-memory)
  // bytes; FlushPending cuts one regardless. Clamped to max_pending_bytes at
  // construction: a target the pending queue can never reach would leave the
  // spill thread asleep while WaitForSpace blocks forever.
  size_t segment_target_bytes = 4u << 20;
  // WaitForSpace blocks (backpressure on the evicting thread) while this much
  // is pending — bounds tier memory when the disk cannot keep up.
  size_t max_pending_bytes = 64u << 20;
  // Consecutive segment-write failures before the stuck batch is shed
  // (accounted loss, see "Storage degradation" above). 0 retries forever —
  // pending then stays bounded only by max_pending_bytes backpressure.
  int spill_retry_limit = 8;
  // Base backoff between failed write attempts; doubles per consecutive
  // failure, capped at ~2s.
  int64_t spill_backoff_ms = 100;
};

class ColdTier {
 public:
  struct Stats {
    uint64_t segments = 0;       // Live (valid) segment files.
    uint64_t sessions = 0;       // Cold sessions, durable + pending.
    uint64_t bytes = 0;          // On-disk bytes across live segments.
    uint64_t pending = 0;        // Sessions queued, not yet durable.
    uint64_t spilled = 0;        // Appends accepted (lifetime).
    uint64_t dedup_dropped = 0;  // Appends skipped: already cold.
    uint64_t hits = 0;           // Sessions served from this tier.
    uint64_t misses = 0;         // Lookups that found nothing here.
    uint64_t corrupt = 0;        // Damaged segments skipped + frame CRC fails.
    uint64_t write_failures = 0;
    uint64_t read_retries = 0;   // Serving preads retried after a failure.
    uint64_t tmp_cleaned = 0;    // Stale *.tmp files unlinked by Start().
    uint64_t shed_batches = 0;   // Batches dropped after persistent failure.
    uint64_t shed_sessions = 0;  // Sessions inside those batches...
    uint64_t shed_bytes = 0;     // ...and their in-memory bytes.
    bool shedding = false;       // In shed fallback; clears on next success.
  };

  // A cold index candidate: enough to merge-order and dedupe against hot
  // results without touching the session frame. Resolve with Read() — only
  // candidates that actually stream to the client are ever read, which is
  // what keeps RANGE over a 100k-session tier within its response budget.
  struct Candidate {
    std::string id;
    uint32_t fragment = 0;
    EventTime min_time = 0;
    uint64_t order = 0;  // Global spill order (eviction order).
  };

  explicit ColdTier(const ColdTierOptions& options);
  ~ColdTier();  // Stops the spill thread; pending is DISCARDED (see above).
  ColdTier(const ColdTier&) = delete;
  ColdTier& operator=(const ColdTier&) = delete;

  // Creates the directory if needed, re-discovers existing segments (sorted
  // file order; damaged ones skipped and counted), and starts the spill
  // thread. Returns false only if the directory is unusable.
  bool Start();

  // Eviction sink, stage 1: indexes the session and enqueues it for spill.
  // Dedupes by (id, fragment) against everything already cold. Never blocks —
  // safe to call under the evicting store's lock, which is what keeps the
  // victim continuously visible (hot or cold, never neither) and makes spill
  // order exactly eviction order.
  void Append(Session&& session);

  // Eviction sink, stage 2: blocks while max_pending_bytes of backlog is
  // outstanding. The store calls this as its eviction barrier, after its own
  // lock is released; the spill thread never takes this path, so waiting
  // here cannot deadlock. The pending queue can transiently overshoot the
  // bound by the victims handed over between a barrier and the next Append.
  void WaitForSpace();

  // Blocks until every session appended before this call is durable in a
  // segment (writing a partial segment if needed) — or, under persistent
  // write failure, has been shed with exact accounting. Returns false if a
  // write failed and the backlog is still outstanding. The checkpoint writer
  // calls this before publishing a snapshot (and aborts the snapshot on
  // false, retrying later — see AsyncCheckpointer's degraded mode).
  bool FlushPending();

  // Test support: simulates SIGKILL at this instant. Pending sessions are
  // discarded, and no further append or spill takes effect — exactly the
  // state a crashed process leaves on disk. Durable segments stay readable.
  void Abandon();

  bool Contains(std::string_view id, uint32_t fragment) const;

  // Point read; counts a hit, a miss, or (on CRC damage) corrupt.
  std::optional<Session> Get(const std::string& id, uint32_t fragment);

  // Index-only candidate scans — no session frame is read.
  // Every cold fragment of `id`, fragment-ascending.
  std::vector<Candidate> CollectFragments(const std::string& id) const;
  // Sessions intersecting [lo, hi), ordered by (min_time, order), ≤ limit.
  std::vector<Candidate> CollectRange(EventTime lo, EventTime hi,
                                      size_t limit) const;
  // Sessions that touched `service`, newest (highest order) first, ≤ limit.
  std::vector<Candidate> CollectByService(uint32_t service,
                                          size_t limit) const;

  // Resolves a candidate: copies it from pending or preads + CRC-checks its
  // frame. False on miss (no longer indexed) or damage (counted).
  bool Read(const Candidate& candidate, Session* out);

  // service -> cold session count, service-ascending (TOPK merge input).
  // With `keys`, also sets (*held)[i] to whether the tier holds keys[i], in
  // the same critical section: a shed cannot fall between the two reads.
  std::vector<std::pair<uint32_t, uint64_t>> ServiceCounts(
      std::span<const SessionKeyView> keys = {},
      std::vector<bool>* held = nullptr) const;

  // Every distinct cold session id, ascending (digest/test support). Runs
  // `fn` under the tier lock: collect, don't call back into the tier.
  void ForEachId(const std::function<void(const std::string&)>& fn) const;

  Stats stats() const;

 private:
  struct Segment {
    std::string path;
    uint64_t base_order = 0;  // Order of entry 0; entry i is base + i.
    ColdSegmentIndex index;
    // Entries whose (id, fragment) an earlier segment already holds, found
    // at Start; empty when there are none. by_id_ resolves a key to its
    // earliest copy, so a shadowed entry's services are taken back out of
    // service_counts_ and every scan skips it.
    std::vector<bool> shadowed;
    bool IsShadowed(size_t i) const {
      return !shadowed.empty() && shadowed[i];
    }
  };
  struct PendingEntry : SessionExtent {  // Footprint, time extent, services.
    Session session;
  };

  void SpillLoop();
  void EraseId(const Session& session);  // Un-indexes its key (mu_ held).
  // Takes one session's services out of service_counts_ (mu_ held).
  void UncountServicesLocked(const std::vector<uint32_t>& services);
  bool WantSpillLocked() const;
  // Locates `order` (mu_ held). Returns segment index, or -1 for pending.
  int LocateLocked(uint64_t order, uint32_t* entry_index) const;
  // The candidate at spill order `order` (mu_ held).
  Candidate CandidateLocked(uint64_t order) const;
  // The scan behind CollectRange and CollectByService (mu_ held): entries
  // that `entry_matches` accepts, in segments `segment_may_match` does not
  // exclude, then pending; the first `limit` by (min_time, order), or by
  // order descending when `newest_first`.
  template <typename SegmentFilter, typename EntryFilter>
  std::vector<Candidate> CollectLocked(SegmentFilter segment_may_match,
                                       EntryFilter entry_matches, size_t limit,
                                       bool newest_first) const;

  const ColdTierOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_spill_;  // Wakes the spill thread.
  std::condition_variable cv_state_;  // Wakes WaitForSpace + flushers.
  bool stop_ = false;
  bool started_ = false;

  std::vector<Segment> segments_;       // base_order ascending.
  std::deque<PendingEntry> pending_;    // Orders [front_order_, next_order_).
  uint64_t pending_front_order_ = 0;    // Everything below is durable.
  uint64_t next_order_ = 0;
  size_t pending_bytes_ = 0;
  uint64_t flush_until_ = 0;            // Spill everything below this order.
  uint64_t next_segment_seq_ = 0;       // Next segment file name.
  // (id, fragment) -> spill order, across segments and pending.
  SessionIdIndex<uint64_t> by_id_;
  std::map<uint32_t, uint64_t> service_counts_;

  // Counters (mu_-guarded; mirrors Stats).
  uint64_t disk_bytes_ = 0;
  uint64_t spilled_ = 0;
  uint64_t dedup_dropped_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t corrupt_ = 0;
  uint64_t write_failures_ = 0;
  uint64_t read_retries_ = 0;
  uint64_t tmp_cleaned_ = 0;
  uint64_t shed_batches_ = 0;
  uint64_t shed_sessions_ = 0;
  uint64_t shed_bytes_ = 0;
  bool shedding_ = false;

  std::thread spill_thread_;
};

}  // namespace ts

#endif  // SRC_STORE_COLD_TIER_H_
