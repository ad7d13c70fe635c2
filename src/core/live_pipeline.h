// LivePipeline: the sharded live sessionization hot path (paper §4.2's
// Exchange PACT applied to the serving pipeline).
//
//                       ┌─ queue[0] ─ shard 0: parse → LiveCloser ─┐
//   ingest thread ──────┼─ queue[1] ─ shard 1: parse → LiveCloser ─┼──► sink
//   (tag + route by     ├─ queue[2] ─ shard 2: parse → LiveCloser ─┤  (store
//    SipHash(id) % N)   └─ queue[3] ─ shard 3: parse → LiveCloser ─┘  insert)
//
// The single ingest thread does only the cheap part of each line: extract the
// event time and session-id fields (two '|' scans, no full parse), advance the
// global watermark (prefix max of event time in arrival order), tag the line
// with that watermark, and route it by SipHash-2-4(session id) % N — the same
// exchange hash SessionHash() uses for the timely engine. Everything expensive
// (full wire parse, LiveCloser state, session emission) runs on the shard
// workers, in parallel. ShardOf(id) is that routing, and the one place it is
// computed.
//
// Ownership: the shard worker that emits a session allocated it, so it is
// also the thread that frees it. Retire() is the way back for a session
// released elsewhere (a SessionStore eviction, which runs on whichever
// shard's insert pushed the store over budget): it queues the session to
// ShardOf(id), whose worker destroys its queue at the top of each batch.
//
// Determinism: all records of a session land on one shard, in arrival order,
// each carrying the global watermark at its position in the arrival stream.
// Fragment boundaries are decided per record against that tag (see
// live_closer.h), so the set of closed sessions is byte-identical for every
// worker count — only emission timing varies. The batch-end watermark
// broadcast (Flush) lets shards that received no recent records close their
// idle sessions; it can only emit fragments the per-record rule has already
// fixed.
//
// Back-pressure: each shard queue holds at most queue_capacity batches. When
// the target shard's queue is full, Feed* blocks the ingest thread
// (backpressure_stalls() counts those events). A caller draining a
// SocketIngestSource therefore stops polling, the kernel socket buffer fills,
// and TCP flow control pushes back on the log server — the same mechanism the
// transport layer documents for max_records_per_poll.
//
// Watermark merge rule: watermark() is the minimum across shards of the last
// watermark each shard has fully processed — the "safe" frontier: every
// session that can close at or below it has been handed to the sink.
#ifndef SRC_CORE_LIVE_PIPELINE_H_
#define SRC_CORE_LIVE_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/arena.h"
#include "src/common/fixed_queue.h"
#include "src/common/metrics_registry.h"
#include "src/common/retire_queue.h"
#include "src/common/time_util.h"
#include "src/core/live_closer.h"
#include "src/core/session.h"
#include "src/log/record_batch.h"
#include "src/log/record_view.h"
#include "src/parse/template_miner.h"

namespace ts {

// Opt-in overload policy (ts_loadgen overload study, docs/LOADGEN.md). With
// kNone (default) a full shard queue blocks the ingest thread indefinitely —
// backpressure all the way to TCP. With kOldestOpen the pipeline degrades
// predictably instead of stalling: (1) a blocked push waits at most
// shed_stall_limit_ms, then drops the *oldest queued batch* (head drop; never
// a checkpoint barrier or end-of-stream batch), counting its items in
// shed_lines; (2) each shard bounds its open-fragment state to
// shed_open_bytes, shedding oldest-idle fragments first with exact counts
// (LiveCloser::ShedOldestUntil). Every fed record is then, at quiescence, in
// exactly one of {records_emitted, open_records, shed_records}, and every
// admitted-but-dropped line in shed_lines — `records_in == stored + shed`.
// Shedding intentionally trades the byte-identical determinism contract for
// bounded producer stall; it must stay off when digests matter.
enum class ShedPolicy {
  kNone,
  kOldestOpen,
};

struct LivePipelineOptions {
  size_t workers = 1;          // Number of shards (>=1).
  EventTime inactivity_ns = 5 * kNanosPerSecond;
  size_t queue_capacity = 64;  // Batches per shard queue (back-pressure bound).
  size_t max_batch_records = 512;  // Ingest-side batching per shard.
  // Collect per-session close latency (sink time − enqueue time of the batch
  // that triggered the close). Costs one steady_clock read per batch plus a
  // vector push per session; benches enable it, the tool does not.
  bool record_close_latency = false;
  // Online template mining (src/parse): structure each record's payload on
  // ingest, rewriting it to "#<template_id> <vars...>" before routing. Runs
  // on the single ingest thread in arrival order, so the rewritten stream —
  // and everything downstream of it (store contents, digests, snapshots) —
  // is byte-identical for every worker count. Lines without a payload field
  // (fewer than six '|' separators) pass through unmodified.
  bool mine_templates = false;
  TemplateMinerOptions miner;
  // Overload shedding (see ShedPolicy above). Off by default.
  ShedPolicy shed_policy = ShedPolicy::kNone;
  size_t shed_open_bytes = 32ull << 20;  // Per-shard open-fragment budget.
  int64_t shed_stall_limit_ms = 100;     // Max blocked-push wait before a drop.
};

// A point-in-time view of one shard, for gauges and benches.
struct LiveShardSnapshot {
  uint64_t records = 0;
  uint64_t parse_failures = 0;
  uint64_t sessions_closed = 0;
  size_t open_sessions = 0;
  size_t open_bytes = 0;
  size_t queue_depth = 0;  // Batches waiting.
  EventTime watermark = 0;
  int64_t cpu_ns = 0;  // Thread CPU consumed by this shard's worker.
  // Exact-accounting counters (shed policy; zero when shedding is off).
  uint64_t records_emitted = 0;  // Records inside sessions handed to the sink.
  uint64_t open_records = 0;     // Records currently in open fragments.
  uint64_t shed_records = 0;     // Records dropped from shed open fragments.
  uint64_t shed_fragments = 0;   // Open fragments dropped whole.
  uint64_t shed_lines = 0;       // Pre-parse lines dropped by queue head-drop.
  int64_t stall_ns = 0;          // Ingest time spent blocked on this queue.
  uint64_t retired_sessions = 0;  // Retire()d sessions this worker destroyed.
};

// A watermark-aligned consistent snapshot of the pipeline's mutable state,
// collected by CollectCheckpoint() at a barrier: every shard has processed the
// whole arrival prefix, every session that closes at or below the barrier
// watermark has been handed to the sink, and the merged open-fragment state is
// a pure function of the arrival stream (the determinism contract). ts_ckpt
// serializes this plus the SessionStore and the ingest resume offset.
struct PipelineCheckpoint {
  uint64_t records = 0;          // Parsed records fed up to the barrier.
  uint64_t parse_failures = 0;   // Unparseable lines up to the barrier.
  EventTime ingest_watermark = LiveCloser::kNoWatermark;
  LiveCloserState closers;       // Merged across shards.
  // Template-miner state at the barrier position (mine_templates only).
  // Exported on the ingest thread at BeginCheckpoint, so it corresponds to
  // exactly the arrival prefix the resume offset names.
  bool has_miner = false;
  TemplateMinerState miner;
};

class LivePipeline {
 public:
  // Called on shard worker threads, possibly concurrently from different
  // shards; must be thread-safe (SessionStore::Insert is).
  using SessionSink = std::function<void(Session&&)>;

  LivePipeline(const LivePipelineOptions& options, SessionSink sink);
  ~LivePipeline();  // Implies Finish() if not yet called.

  LivePipeline(const LivePipeline&) = delete;
  LivePipeline& operator=(const LivePipeline&) = delete;

  // --- Ingest-thread API (single producer) ---

  // Feeds one wire-format line (trailing \r already stripped by the framer;
  // a stray one is tolerated). Blank lines are skipped — they are framing
  // artifacts, not corrupt records, and must not count as parse failures.
  // Lines whose time/session-id fields cannot be extracted are still routed
  // (by a hash of the whole line) so the owning shard counts the parse
  // failure. Blocks when the target shard's queue is full.
  //
  // The bytes are copied once into a pipeline-owned ingest arena and flow as
  // views from there; FeedBlock is the zero-copy path for callers that
  // already hold arena-backed lines.
  void FeedLine(std::string_view line);

  // Feeds a block of framed lines backed by an ingest arena (the
  // SocketIngestSource::PollBlock hand-off). Routing, watermarks, blank-line
  // and parse-failure accounting are identical to feeding each line through
  // FeedLine — both funnel into the same view path — but the line bytes are
  // never copied: per-shard batches take references on the block's arena and
  // release them when they drain. Consumes the block (it is cleared).
  void FeedBlock(LineBlock&& block);

  // Pushes partial batches and broadcasts the current global watermark to
  // every shard so idle sessions close. Call once per poll iteration.
  void Flush();

  // Flushes, signals end of stream (shards FlushAll into the sink), and joins
  // the workers. Idempotent.
  void Finish();

  // Rendezvous for one checkpoint barrier (see BeginCheckpoint). Opaque to
  // callers; exposed only so CheckpointTicket can be named.
  struct CkptBarrier {
    std::mutex mu;
    std::condition_variable arrived_cv;  // Workers -> collector.
    std::condition_variable release_cv;  // Collector -> workers.
    size_t expected = 0;
    size_t arrived = 0;
    bool released = false;
    EventTime watermark = 0;  // Global ingest watermark when sealed.
    // Miner state at the seal position, exported by BeginCheckpoint on the
    // ingest thread (the collector may run on another thread after ingest
    // has mined past the barrier). Published to the collector by the ticket
    // hand-off, not by the barrier's own synchronization.
    bool has_miner = false;
    TemplateMinerState miner;
  };
  using CheckpointTicket = std::shared_ptr<CkptBarrier>;

  // Two-phase consistent snapshot, split so the expensive half can run on a
  // background thread (src/ckpt/async_checkpointer.h):
  //
  //   BeginCheckpoint()   — ingest thread. Seals a barrier batch (tagged with
  //                         the current global watermark, like a Flush tick)
  //                         into every shard queue and returns immediately;
  //                         ingest may keep feeding behind the marker. Returns
  //                         nullptr after Finish().
  //   CollectCheckpoint() — any thread, with a non-null ticket. Blocks until
  //                         every shard has drained up to the barrier and
  //                         paused on it — so all pre-barrier session closes
  //                         have reached the sink — exports the barrier-aligned
  //                         counters and fragment counters, hands every open
  //                         fragment to `open_visitor` by reference, runs
  //                         `while_paused` (the moment to read the
  //                         SessionStore: no sink call can run, so the store
  //                         holds exactly the sessions closed by the barrier
  //                         prefix), then releases the shards. The returned
  //                         checkpoint's `closers.open` stays empty: the
  //                         visitor has seen the open section.
  //
  // Exactly one CollectCheckpoint per ticket, and every ticket MUST be
  // collected before Finish() — paused workers never wake otherwise. At most
  // one barrier may be in flight at a time.
  CheckpointTicket BeginCheckpoint();
  PipelineCheckpoint CollectCheckpoint(
      const CheckpointTicket& ticket,
      const std::function<void()>& while_paused,
      const LiveCloser::OpenFragmentVisitor& open_visitor);

  // Restores a snapshot into a fresh pipeline: re-routes each open fragment
  // and fragment counter to its owning shard, ShardOf(id) (the shard count
  // may differ from the snapshotting run), and raises the global
  // and per-shard watermarks to the snapshot watermark. MUST be called before
  // the first Feed*/Flush — the workers have not touched their closers yet,
  // and the first queue push publishes the restored state to them.
  void RestoreCheckpoint(PipelineCheckpoint&& checkpoint);

  // --- Ownership (any thread) ---

  // The shard that owns session `id`: its records are routed there, its open
  // fragments live in that shard's closer, and Retire() frees its closed
  // sessions there. SipHash-2-4(id) % workers, the exchange hash the timely
  // engine's SessionHash() uses.
  size_t ShardOf(std::string_view id) const;

  // Queues `session` for destruction by the worker of ShardOf(session.id),
  // which frees it at the top of its next batch. Never blocks beyond one short
  // queue lock and never frees here, so it may run under another structure's
  // lock (LiveNode installs it as the SessionStore's eviction sink). Finish()
  // has every worker free its queue once all shards have emitted their last
  // session; after Finish() the caller keeps `session` and destroys it.
  void Retire(Session&& session);

  // --- Observability (any thread) ---

  size_t workers() const { return shards_.size(); }
  uint64_t records() const;           // Sum of shard records.
  uint64_t parse_failures() const;    // Sum of shard parse failures.
  uint64_t blank_lines() const { return blank_lines_.load(std::memory_order_relaxed); }
  uint64_t sessions_closed() const;   // Sum of shard emissions.
  size_t open_sessions() const;       // Sum of shard open maps.
  uint64_t backpressure_stalls() const {
    return backpressure_stalls_.load(std::memory_order_relaxed);
  }
  // Total ingest-thread time spent blocked on full shard queues (satellite
  // observability: locates the stall point in the overload study). Measured
  // only on the slow path — no clock reads while queues have room.
  int64_t backpressure_stall_ns() const;
  // Shed-policy accounting, summed across shards (all zero when off).
  uint64_t records_emitted() const;  // Records in sink-delivered sessions.
  uint64_t open_records() const;     // Records in still-open fragments.
  uint64_t shed_records() const;     // Records shed from open fragments.
  uint64_t shed_fragments() const;
  uint64_t shed_lines() const;       // Lines dropped pre-parse (head drop).
  // LiveCloser expiry index, summed across shards: candidates held (equal to
  // open_sessions() at every batch boundary) and candidates CloseExpired has
  // popped so far.
  size_t expiry_candidates() const;
  uint64_t expiry_visited() const;
  // Retire() accounting, summed across shards: sessions destroyed by their
  // owner shard's worker, and sessions queued but not yet destroyed (the
  // memory held between eviction and destruction).
  uint64_t retired_sessions() const;
  size_t retire_pending() const;
  // Min-across-shards processed watermark (0 until every shard has seen one,
  // so gauges never show LiveCloser::kNoWatermark).
  EventTime watermark() const;
  // Global ingest-side watermark (prefix max of event time).
  EventTime ingest_watermark() const { return ingest_watermark_; }

  // Per-template (id, hits, text) as of now, sorted by id; empty unless
  // mine_templates is set. Safe from any thread (the query server's TEMPLATES
  // handler calls it while ingest keeps mining).
  std::vector<TemplateInfo> TemplateSnapshot() const;
  // Learned templates / tree nodes (0 unless mine_templates); gauge reads.
  size_t template_count() const;
  size_t template_nodes() const;

  LiveShardSnapshot shard(size_t i) const;

  // Registers merged + per-shard gauges: <prefix>records, <prefix>parse_failures,
  // <prefix>open_sessions, <prefix>watermark_ms, <prefix>backpressure_stalls,
  // <prefix>backpressure_stall_us, <prefix>blank_lines, the shed-accounting
  // set (<prefix>records_emitted, <prefix>open_records, <prefix>shed_records,
  // <prefix>shed_fragments, <prefix>shed_lines — registered always, zero when
  // shedding is off), the expiry-index pair <prefix>expiry_candidates and
  // <prefix>expiry_visited, the Retire() pair <prefix>retired_sessions and
  // <prefix>retire_pending, and per shard k: <prefix>shard<k>_open_sessions,
  // <prefix>shard<k>_records, <prefix>shard<k>_parse_failures,
  // <prefix>shard<k>_queue_depth, <prefix>shard<k>_shed_records,
  // <prefix>shard<k>_shed_lines, <prefix>shard<k>_stall_us.
  // The registry must not outlive the pipeline.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix = "live_") const;

  // Close-latency samples (ms), concatenated across shards. Call after
  // Finish(); only populated when record_close_latency is set.
  std::vector<double> CloseLatenciesMs() const;

 private:
  struct Item {
    // Wire text as a pre-scanned view into an arena the owning batch holds a
    // reference on (separator offsets found once, on the ingest thread — the
    // worker materializes without rescanning).
    RecordView view;
    EventTime watermark = 0;  // Global prefix-max tag at this item's position.
  };
  struct Batch {
    std::vector<Item> items;
    // Keep-alive for every view in `items`: the ingest arenas these items
    // slice into. Destroying the batch (normal drain or shed head-drop) is
    // what releases the bytes.
    std::vector<ArenaRef> arenas;
    EventTime watermark_end = 0;  // Global watermark when the batch was sealed.
    int64_t enqueue_steady_ns = 0;
    bool flush_all = false;  // End of stream: FlushAll after processing items.
    // Non-null on checkpoint barrier batches; the shared_ptr keeps the
    // rendezvous alive for the whole pause even if the collector moves on.
    CheckpointTicket barrier;
  };
  struct Shard {
    explicit Shard(size_t queue_capacity, EventTime inactivity_ns)
        : queue(queue_capacity), closer(inactivity_ns) {}
    FixedQueue<Batch> queue;
    LiveCloser closer;  // Worker-thread-owned after Start.
    std::thread worker;
    // Published by the worker, read by gauges.
    std::atomic<uint64_t> records{0};
    std::atomic<uint64_t> parse_failures{0};
    std::atomic<uint64_t> sessions_closed{0};
    std::atomic<size_t> open_sessions{0};
    std::atomic<size_t> open_bytes{0};
    std::atomic<int64_t> watermark{LiveCloser::kNoWatermark};
    std::atomic<int64_t> cpu_ns{0};
    std::atomic<uint64_t> records_emitted{0};
    std::atomic<uint64_t> open_records{0};
    std::atomic<uint64_t> shed_records{0};
    std::atomic<uint64_t> shed_fragments{0};
    std::atomic<uint64_t> shed_lines{0};   // Ingest-thread head drops.
    std::atomic<size_t> expiry_candidates{0};
    std::atomic<uint64_t> expiry_visited{0};
    std::atomic<int64_t> stall_ns{0};      // Ingest-thread blocked-push time.
    RetireQueue<Session> retire_queue;     // Drained by the worker only.
    std::atomic<uint64_t> retired_sessions{0};
    std::vector<double> close_latencies_ms;  // Worker-owned until join.
    Batch pending;  // Ingest-thread-owned accumulation buffer.
    EventTime last_tick_watermark = LiveCloser::kNoWatermark;
  };

  // Common ingest step for both Feed paths: `line` (already newline/CR
  // trimmed, nonempty) is a view into `*arena`. Scans, optionally mines (the
  // rewritten line is copied into the pipeline's own arena), routes.
  void FeedView(std::string_view line, const ArenaRef& arena);
  void Route(const Item& item, size_t shard_index, const ArenaRef& arena);
  void SealAndPush(Shard& shard);
  void WorkerLoop(size_t shard_index);
  // Worker thread: destroys the shard's Retire() queue.
  static void DrainRetired(Shard& shard);
  // Ensures feed_arena_ exists and is under the rotation threshold.
  void RotateFeedArena();

  LivePipelineOptions options_;
  SessionSink sink_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Counted down by each worker after its end-of-stream batch: past it no
  // shard emits, so no pipeline sink can Retire() anything, and each worker
  // frees its last queue on its own thread.
  std::latch workers_done_;
  // Ingest thread only.
  EventTime ingest_watermark_ = LiveCloser::kNoWatermark;
  // Backing storage for FeedLine copies and mined rewrites; rotated so
  // drained batches can release old bytes. Ingest thread only.
  ArenaRef feed_arena_;
  // Mutated on the ingest thread only; the mutex exists for TemplateSnapshot
  // readers (query server) and the gauges.
  mutable std::mutex miner_mu_;
  std::unique_ptr<TemplateMiner> miner_;  // Non-null iff mine_templates.
  std::string miner_scratch_;             // Ingest thread only.
  std::atomic<uint64_t> blank_lines_{0};
  std::atomic<uint64_t> backpressure_stalls_{0};
  bool finished_ = false;
};

}  // namespace ts

#endif  // SRC_CORE_LIVE_PIPELINE_H_
