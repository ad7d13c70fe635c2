// AsyncCheckpointer: keeps every snapshot — the periodic ones and the final
// one of a graceful shutdown (WriteFinal) — off the ingest hot path.
//
// A synchronous CaptureLiveCheckpoint + Checkpointer::Write costs O(live
// state) on the ingest thread — deep-copying the SessionStore, wire-
// serializing every record, CRC-framing and fsyncing the file — which makes
// the ingest thread the pipeline's critical path the moment snapshots are
// enabled (fig5_live_scaling measured >90% throughput loss at a 16k-record
// cadence). This class splits the work along LivePipeline's two-phase
// barrier instead:
//
//   ingest thread   MaybeCheckpoint(): one BeginCheckpoint (seals a barrier
//                   batch per shard, no waiting) and a hand-off — microseconds.
//   shard workers   pause at the barrier while the writer brings its state up
//                   to the barrier (blocked, not spinning; queued batches
//                   drain afterwards).
//   writer thread   CollectCheckpoint(): waits for the pause, then (a)
//                   serializes the open fragments straight into framed 'O'
//                   bytes via the zero-copy visitor — one pass, no deep copy
//                   of the usually-dominant open section — and (b) advances
//                   an incremental cache of encoded store frames: only
//                   sessions inserted since the previous snapshot are
//                   serialized (store entries are immutable, so cached frames
//                   never go stale; evicted ones fall off the cache front).
//                   After releasing the shards it streams header + sections +
//                   footer to disk, so the O(state) work left per snapshot is
//                   a single file write, and none of it touches the measured
//                   threads.
//
// At most one snapshot is in flight; cadence ticks that land while one is
// being written are skipped and counted (the next due tick retakes them).
// Drain() blocks until in-flight work is durable and MUST be called before
// LivePipeline::Finish(): an uncollected ticket would leave the shard
// workers paused forever. The destructor drains and joins.
//
// Degraded mode: when the disk misbehaves (ENOSPC, EIO, failed fsync) the
// writer retries the barrier + file write with bounded jittered exponential
// backoff, then — still failing — drops that snapshot and waits for the next
// cadence tick. The ingest thread never stalls: MaybeCheckpoint keeps
// skipping while the retry loop holds in_flight_. The episode is fully
// counted (ckpt_write_failures / ckpt_degraded / ckpt_degraded_entries /
// ckpt_snapshots_dropped) and clears itself on the first successful write —
// recovery needs no operator action, only a healed disk. Each retry rebuilds
// the snapshot file from the retained source state via Checkpointer::Write
// (a brand-new tmp fd), never by re-fsyncing an old fd — the fsyncgate rule.
#ifndef SRC_CKPT_ASYNC_CHECKPOINTER_H_
#define SRC_CKPT_ASYNC_CHECKPOINTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "src/analytics/session_store.h"
#include "src/ckpt/checkpointer.h"
#include "src/common/rng.h"
#include "src/core/live_pipeline.h"

namespace ts {

class AsyncCheckpointer {
 public:
  struct Options {
    uint64_t stream = 0;
    uint64_t base_records = 0;         // Counters carried over from the
    uint64_t base_parse_failures = 0;  // snapshot this process restored.
    // Runs on the writer thread after the shards resume, immediately before
    // the snapshot file is written. The tiered store hooks its cold tier's
    // FlushPending() in here: every eviction that happened before this
    // snapshot's barrier is durable in a cold segment by the time the
    // snapshot exists, so a restore can never lose an evicted session. May
    // block; it delays only the (off-critical-path) file write. Returning
    // false means the durability barrier failed (e.g. the cold tier cannot
    // spill): the snapshot MUST NOT be published, so the attempt aborts and
    // is retried/dropped like a failed file write.
    std::function<bool()> before_write;
    // Degraded-mode knobs: per-snapshot write attempts (>= 1) and the base
    // backoff between them (doubled per retry, jittered, capped at ~2s).
    int write_retry_limit = 3;
    int64_t write_retry_backoff_ms = 50;
  };

  // How the final snapshot ended.
  enum class Final { kNotTaken, kWritten, kBarrierFailed, kWriteFailed };

  // All pointees must outlive this object. The Checkpointer must not be
  // written to by any other thread between construction and Drain().
  AsyncCheckpointer(Checkpointer* checkpointer, LivePipeline* pipeline,
                    const SessionStore* store, const Options& options);
  ~AsyncCheckpointer();  // Drains and joins.

  AsyncCheckpointer(const AsyncCheckpointer&) = delete;
  AsyncCheckpointer& operator=(const AsyncCheckpointer&) = delete;

  // Ingest thread. Starts a snapshot when the Checkpointer's interval is due
  // and none is in flight; `resume_offset` is the count of records fed so far
  // (SocketIngestSource::records_received(), after the polled batch has been
  // fully fed and flushed). Returns true if one started.
  bool MaybeCheckpoint(uint64_t resume_offset);

  // Like MaybeCheckpoint but ignores the timer — for callers with their own
  // cadence (benches, tests). Still skips when a snapshot is in flight.
  bool RequestCheckpoint(uint64_t resume_offset);

  // Blocks until no snapshot is in flight (the last Write has returned).
  void Drain();

  // Ingest thread, after the last Feed/Flush and before
  // LivePipeline::Finish(): drains, then takes one more snapshot at
  // `resume_offset` through the same barrier, visitor and store-frame cache,
  // with a larger retry budget (the disk may still be inside a fault window,
  // and nothing after the last record has proven it healthy), and waits until
  // it is written or dropped. kNotTaken if the pipeline is finished.
  Final WriteFinal(uint64_t resume_offset);

  // Ingest-thread accessors (same thread that calls MaybeCheckpoint).
  uint64_t snapshots_started() const { return started_; }
  uint64_t snapshots_skipped_busy() const { return skipped_busy_; }

  // Degraded-mode accessors — safe from any thread (relaxed atomics).
  uint64_t write_failures() const {
    return write_failures_.load(std::memory_order_relaxed);
  }
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  uint64_t degraded_entries() const {
    return degraded_entries_.load(std::memory_order_relaxed);
  }
  uint64_t snapshots_dropped() const {
    return snapshots_dropped_.load(std::memory_order_relaxed);
  }

  // ckpt_* degraded-mode gauges: write_failures, degraded (0/1),
  // degraded_entries, snapshots_dropped. Complements the base gauges
  // Checkpointer::RegisterMetrics already exposes under the same prefix.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix = "ckpt_") const;

 private:
  // Begins a snapshot and hands it to the writer; false if one is in flight
  // or the pipeline is finished.
  bool Begin(uint64_t resume_offset, bool final);
  void WriterLoop();

  Checkpointer* const checkpointer_;
  LivePipeline* const pipeline_;
  const SessionStore* const store_;
  const Options options_;

  std::mutex mu_;
  std::condition_variable cv_;
  LivePipeline::CheckpointTicket ticket_;  // Pending hand-off to the writer.
  uint64_t ticket_resume_offset_ = 0;
  bool ticket_final_ = false;
  Final last_outcome_ = Final::kNotTaken;  // Of the last settled snapshot.
  bool in_flight_ = false;  // Begin happened, Write not yet returned.
  bool stop_ = false;
  uint64_t started_ = 0;       // Ingest-thread-owned.
  uint64_t skipped_busy_ = 0;  // Ingest-thread-owned.

  // Open-section buffer (writer-thread-owned): framed 'O' bytes of the
  // current snapshot, refilled during each pause. Members (with the encoders)
  // so their capacity survives across snapshots — steady state allocates
  // nothing proportional to the open set.
  std::string open_frames_;
  OpenFrameEncoder open_encoder_;
  StoreFrameEncoder store_encoder_;

  // Incremental store-frame cache (writer-thread-owned): encoded 'S' frames
  // for the live entries with insertion seq in [cached_oldest_seq_,
  // cached_next_seq_), stored at [cached_front_, size) of cached_frames_ with
  // one size per frame in cached_frame_sizes_.
  std::string cached_frames_;
  std::deque<uint32_t> cached_frame_sizes_;
  size_t cached_front_ = 0;
  uint64_t cached_oldest_seq_ = 0;
  uint64_t cached_next_seq_ = 0;

  // Degraded-mode state. The rng is writer-thread-only (backoff jitter);
  // its seed is fixed so retry timing is as reproducible as everything else.
  std::atomic<uint64_t> write_failures_{0};
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> degraded_entries_{0};
  std::atomic<uint64_t> snapshots_dropped_{0};
  Rng backoff_rng_{0x636b707462616b6full};  // "ckptbako"

  std::thread writer_;
};

}  // namespace ts

#endif  // SRC_CKPT_ASYNC_CHECKPOINTER_H_
