// LiveCloser: the one sessionization kernel (the paper's §4.2 windowed
// group-by with "flush on inactivity"). Every online path runs it: the live
// (--connect --serve) pipeline, one closer per shard, and the timely
// Sessionize operator, one closer per worker. A session fragment closes once
// the watermark has advanced `inactivity_ns` past the fragment's last record.
// OfflineSessionizer shares no code with it and stays the reference it is
// checked against.
//
// Each record is keyed on a time in nanoseconds: its own event time by
// default, or one the caller supplies (the timely operator keys on the
// record's epoch). Fragment boundaries and expiry follow the keys, and an
// emitted fragment's first/last epochs are its least and greatest key in
// whole seconds.
//
// Determinism contract (what makes sharded output byte-identical): the caller
// supplies the watermark explicitly, as the prefix-maximum event time of the
// arrival stream *in arrival order* (ObserveWatermark before each Feed). Close
// decisions for the session a record touches are made at Feed time against
// that watermark, so the fragment boundaries of a session are a pure function
// of (the session's own record subsequence, the watermark tag attached to each
// record) — independent of how often CloseExpired runs, of wall-clock poll
// timing, and of how many shards the stream is partitioned across.
// CloseExpired/FlushAll only affect *when* an already-determined fragment is
// emitted, never its contents.
//
// Expiry index (collection (iii) of the paper's sessionizer, "expiration
// candidates by time"): every open fragment owns exactly one candidate in an
// indexed min-heap, keyed by the fragment's last_time when the candidate was
// last armed. Feed never touches the heap for a record that joins an open
// fragment, so renewed activity is invalidated lazily: CloseExpired pops only
// candidates whose key has expired, emits the fragment if its true last_time
// has too, and otherwise re-arms it at its current last_time. Invariant: a
// candidate's key is <= its fragment's last_time, or the candidate is already
// due (a Feed-time split keeps the expired fragment's candidate) — either way
// an expired fragment's candidate is due, which is what makes CloseExpired
// exact. The heap holds exactly open_sessions() entries.
#ifndef SRC_CORE_LIVE_CLOSER_H_
#define SRC_CORE_LIVE_CLOSER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/time_util.h"
#include "src/core/session.h"
#include "src/log/record.h"

namespace ts {

// Serializable open-fragment state of one or more LiveClosers, captured at a
// watermark-aligned barrier (ts_ckpt). Because fragment-split decisions are a
// pure function of (record subsequence, per-record watermark tag), this state
// at arrival position N is identical for every shard count — which is what
// lets a snapshot taken under one --workers value restore under another: the
// restore path simply re-routes each fragment by SipHash(id) % N_new.
struct LiveCloserState {
  struct OpenFragment {
    std::string id;
    EventTime last_time = 0;
    std::vector<LogRecord> records;  // Arrival order, not yet time-sorted.
  };
  std::vector<OpenFragment> open;
  // Every id that has ever emitted a fragment, with the next index to assign.
  // Needed in full: a session can re-appear long after its last fragment
  // closed, and its numbering must continue where the pre-crash run left off.
  std::vector<std::pair<std::string, uint32_t>> next_fragment;
};

class LiveCloser {
 public:
  // A window no idle gap reaches: fragments close only at FlushAll, one per
  // session id (the offline job's grouping without an inactivity split).
  static constexpr EventTime kNoIdleSplit =
      std::numeric_limits<EventTime>::max();

  // `inactivity_ns` >= 0, or kNoIdleSplit.
  explicit LiveCloser(EventTime inactivity_ns)
      : inactivity_ns_(inactivity_ns) {}

  // The expiry index points into open_'s nodes: a copy would alias them.
  LiveCloser(const LiveCloser&) = delete;
  LiveCloser& operator=(const LiveCloser&) = delete;

  // Raises the watermark (monotone; stale values are ignored).
  void ObserveWatermark(EventTime watermark) {
    watermark_ = watermark > watermark_ ? watermark : watermark_;
  }

  // Feeds one record, keyed on its event time. If the record's session has an
  // open fragment that is already expired at the current watermark, that
  // fragment is emitted to *closed first and the record starts the next
  // fragment. Callers that track a global watermark must
  // ObserveWatermark(tag) before each Feed.
  void Feed(LogRecord record, std::vector<Session>* closed) {
    const EventTime at = record.time;
    Feed(std::move(record), at, closed);
  }

  // Feeds one record keyed on `at` instead of record.time; the key raises the
  // watermark as record.time would. The record keeps its own time, by which
  // an emitted fragment's records are still ordered.
  void Feed(LogRecord record, EventTime at, std::vector<Session>* closed);

  // Moves every session idle past the watermark into *closed — exactly the
  // fragments with last_time + inactivity <= watermark, none later than this
  // call. Cost is O((expired + re-armed) * log open), not O(open): it visits
  // only expiry candidates whose key has passed, and a re-armed candidate
  // moves to its fragment's current last_time, so a still-active fragment is
  // re-armed at most once per inactivity window of watermark progress.
  void CloseExpired(std::vector<Session>* closed);

  // Emits every still-open fragment (end of stream).
  void FlushAll(std::vector<Session>* closed);

  // Checkpoint capture (ts_ckpt's async writer): visits every open fragment
  // by reference, in unspecified order (a hash-map walk), so the writer
  // serializes each one straight into its output without a deep copy. The
  // closer must be quiescent for the duration (checkpoint barrier pause).
  using OpenFragmentVisitor = std::function<void(
      const std::string& id, EventTime last_time,
      const std::vector<LogRecord>& records)>;
  void VisitOpenFragments(const OpenFragmentVisitor& fn) const;

  // Appends this closer's fragment counters to *state (merge-friendly: a
  // barrier collects every shard into one state; the counters are small and
  // taken by copy).
  void ExportCounters(LiveCloserState* state) const;

  // Restores one open fragment / one fragment counter (ts_ckpt restore path;
  // the pipeline routes each entry to the owning shard). Must happen before
  // any Feed. Import of an id that is already open replaces it (and re-arms
  // its one expiry candidate at the imported last_time).
  void ImportFragment(LiveCloserState::OpenFragment fragment);
  void SetNextFragment(const std::string& id, uint32_t next);

  // Load shedding (opt-in, --shed-policy=oldest-open): drops whole open
  // fragments, oldest `last_time` first (id as tie-break, so the order is
  // deterministic), until open_bytes() <= max_open_bytes. Shed fragments are
  // never emitted; their records are counted exactly in shed_records() /
  // shed_fragments(), and the id's fragment counter still advances so a
  // session that re-appears continues its numbering as if the fragment had
  // closed. Returns the number of fragments shed.
  size_t ShedOldestUntil(size_t max_open_bytes);

  size_t open_sessions() const { return open_.size(); }
  EventTime watermark() const { return watermark_; }
  uint64_t sessions_emitted() const { return sessions_emitted_; }
  size_t open_bytes() const { return open_bytes_; }

  // Exact-accounting counters: every record Fed is, at any quiescent point,
  // in exactly one of {records_emitted, open_records, shed_records}.
  uint64_t records_emitted() const { return records_emitted_; }
  uint64_t open_records() const { return open_records_; }
  uint64_t shed_records() const { return shed_records_; }
  uint64_t shed_fragments() const { return shed_fragments_; }

  // Expiry index gauges: candidates held (always == open_sessions()) and
  // candidates popped by CloseExpired so far, emitted or re-armed.
  size_t expiry_candidates() const { return expiry_.size(); }
  uint64_t expiry_visited() const { return expiry_visited_; }

 private:
  struct Open {
    std::vector<LogRecord> records;
    EventTime first_time = 0;  // Least key, for Session::first_epoch.
    EventTime last_time = 0;
    size_t candidate = 0;  // This fragment's position in expiry_.
  };
  using OpenMap = std::unordered_map<std::string, Open>;
  // Map nodes are pointer-stable (rehashing moves no node), so a candidate
  // holds its fragment directly: checking or re-arming one costs no hash
  // lookup.
  struct Candidate {
    EventTime last_time;  // See the invariant at the top of this file.
    OpenMap::value_type* fragment;
  };

  // True once a fragment last active at `last_time` has been idle a whole
  // window at the current watermark. Times come off the wire and may be any
  // int64, so the gap is taken in unsigned arithmetic, which cannot overflow;
  // kNoIdleSplit is never reached.
  bool Expired(EventTime last_time) const {
    if (inactivity_ns_ == kNoIdleSplit || last_time > watermark_) {
      return false;
    }
    const uint64_t gap =
        static_cast<uint64_t>(watermark_) - static_cast<uint64_t>(last_time);
    return gap >= static_cast<uint64_t>(inactivity_ns_);
  }

  // Moves *open's records out into a Session appended to *closed.
  void Emit(const std::string& id, Open* open, std::vector<Session>* closed);

  // Indexed min-heap maintenance; every move keeps Open::candidate in step.
  void Arm(OpenMap::value_type* fragment);
  void Rearm(size_t pos, EventTime last_time);
  void Disarm(size_t pos);
  void Place(size_t pos, const Candidate& candidate);
  void Sift(size_t pos);

  EventTime inactivity_ns_;
  EventTime watermark_ = 0;
  uint64_t sessions_emitted_ = 0;
  uint64_t records_emitted_ = 0;
  uint64_t open_records_ = 0;
  uint64_t shed_records_ = 0;
  uint64_t shed_fragments_ = 0;
  size_t open_bytes_ = 0;
  uint64_t expiry_visited_ = 0;
  OpenMap open_;
  std::vector<Candidate> expiry_;  // Min-heap on Candidate::last_time.
  std::unordered_map<std::string, uint32_t> next_fragment_;
};

}  // namespace ts

#endif  // SRC_CORE_LIVE_CLOSER_H_
