// LiveNode: the live consumer process as one object — the composition root
// that every `ts_sessionize` input, `ts_loadgen --quick`,
// bench/overload_study and the fault/crash conformance suites all run:
//
//   SocketIngestSource ─► LivePipeline (N shards) ─► SessionStore ─► QueryServer
//       (PollBlock)           (FeedBlock)         ▲       │
//                                                 │       ├─► ColdTier (spill)
//                                                 └───────┘   or, without one,
//                                               Retire: victims freed on the
//                                               shard that built them
//
// Lifecycle, in this order:
//
//   Start()     cold-tier segment discovery, the query server listening, then
//               restore of the newest valid checkpoint (one written for
//               another stream starts cold), the pipeline and its gauges
//               (counters continue from the restored base), and the
//               asynchronous checkpointer.
//   Step()      one poll of the shipped ingest loop:
//               PollBlock -> FeedBlock -> Flush -> MaybeCheckpoint.
//   Shutdown()  drains the checkpoint writer, takes the final snapshot
//               through it (same barrier and durability rule as the periodic
//               ones, a larger retry budget), then finishes the pipeline.
//   Kill()      models SIGKILL: nothing after this instant reaches disk.
//
// The query server keeps serving until the node is destroyed. With a
// checkpoint directory the replay-window dedupe guard is on: a closed session
// already held hot or cold (replayed from a stale resume offset) is counted in
// replayed_duplicates() and never merged.
//
// Every part but the pipeline and the store is optional. Without `query` the
// node opens no listener. Without `ingest` the caller feeds pipeline() itself
// (`ts_sessionize --in=F`: FeedLine per line, Flush per block, Shutdown at end
// of input); Step() and Run() then do nothing, checkpoint is ignored (a
// snapshot's resume offset names a position in an upstream stream), and the
// ingest accessors (records_received, transport_stats, accounting) must not
// be called.
#ifndef SRC_NODE_LIVE_NODE_H_
#define SRC_NODE_LIVE_NODE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "src/analytics/session_store.h"
#include "src/ckpt/async_checkpointer.h"
#include "src/ckpt/checkpointer.h"
#include "src/common/metrics_registry.h"
#include "src/core/live_pipeline.h"
#include "src/net/socket_ingest.h"
#include "src/query/query_server.h"
#include "src/store/cold_tier.h"

namespace ts {

// Aggregates the options of the parts; adds no setting of its own.
struct LiveNodeOptions {
  std::optional<SocketIngestOptions> ingest;  // Unset: fed by the caller.
  LivePipelineOptions pipeline;
  SessionStore::Options store;
  std::optional<QueryServerOptions> query;        // Unset: no listener.
  std::optional<ColdTierOptions> cold;            // Tiered store.
  std::optional<CheckpointerOptions> checkpoint;  // Crash recovery (ingest).
};

class LiveNode {
 public:
  // Sees every session the node holds exactly once, with its owner shard
  // (LivePipeline::ShardOf): restored ones during Start(), before any batch
  // runs, and closed ones on that shard's worker thread, including those
  // Shutdown()'s Finish force-closes. Calls for one shard never overlap, so
  // per-shard state needs no lock; calls for different shards run
  // concurrently. Replayed duplicates are not passed.
  using CloseCallback = std::function<void(const Session&, size_t shard)>;

  // Banners (restore, final checkpoint, ...) go to `log`; null silences them.
  explicit LiveNode(LiveNodeOptions options, CloseCallback on_close = nullptr,
                    std::FILE* log = stderr);
  // Stops the query server. A node neither shut down nor killed finishes its
  // pipeline without a final checkpoint.
  ~LiveNode();

  LiveNode(const LiveNode&) = delete;
  LiveNode& operator=(const LiveNode&) = delete;

  // Returns false (with a banner) if the cold dir is unusable or the query
  // server cannot bind.
  bool Start();

  // One poll iteration. kEndOfStream and kFailed end the stream; Shutdown()
  // (or Kill()) must follow.
  SocketIngestSource::Poll Step(int timeout_ms = 200);

  // Steps until end of stream, a transport failure, or `stop` returns true.
  void Run(const std::function<bool()>& stop = nullptr);

  // Starts an asynchronous snapshot now instead of on the timer — for callers
  // with their own cadence. Waits for one still in flight to settle first,
  // so every request begins a snapshot. False if none started (no checkpoint
  // directory, or the node is finished).
  bool RequestCheckpoint();

  void Shutdown();
  void Kill();

  MetricsRegistry* metrics() const { return metrics_.get(); }
  SessionStore* store() const { return store_.get(); }
  ColdTier* cold() const { return cold_.get(); }
  LivePipeline* pipeline() const { return pipeline_.get(); }
  uint16_t query_port() const {
    return server_ != nullptr ? server_->port() : 0;
  }

  // Records received from upstream, including the restored resume offset.
  uint64_t records_received() const { return source_->records_received(); }
  const TransportStats& transport_stats() const { return source_->stats(); }
  bool transport_failed() const { return failed_; }
  uint64_t replayed_duplicates() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  // Parsed records / unparseable lines, continuing from the restored base
  // (the ingest_records / ingest_parse_failures gauges).
  uint64_t ingest_records() const;
  uint64_t ingest_parse_failures() const;

  // Exact-accounting snapshot of this incarnation. After Shutdown(),
  // Reconciles() must hold:
  //   received == parsed + parse_failures + blank_lines + shed_lines
  //   parsed   == records_emitted + open_records + shed_records
  struct Accounting {
    uint64_t received = 0;
    uint64_t parsed = 0;
    uint64_t parse_failures = 0;
    uint64_t blank_lines = 0;
    uint64_t records_emitted = 0;
    uint64_t open_records = 0;
    uint64_t shed_records = 0;
    uint64_t shed_fragments = 0;
    uint64_t shed_lines = 0;
    bool Reconciles() const {
      return received == parsed + parse_failures + blank_lines + shed_lines &&
             parsed == records_emitted + open_records + shed_records;
    }
  };
  Accounting accounting() const;

 private:
  void Log(const char* format, ...) const
      __attribute__((format(printf, 2, 3)));
  bool StartServer();
  // Restores the newest valid snapshot for this stream into *state; false on
  // a cold start.
  bool Restore(CheckpointState* state);
  void StartPipeline(bool restored, CheckpointState&& state);
  void WriteFinalCheckpoint();

  const LiveNodeOptions options_;
  const CloseCallback on_close_;
  std::FILE* const log_;

  // Declaration order is destruction order in reverse: the checkpoint writer
  // (which uses the checkpointer, pipeline and store) dies first.
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<SessionStore> store_;
  std::shared_ptr<ColdTier> cold_;
  std::unique_ptr<QueryServer> server_;
  std::thread server_thread_;
  std::unique_ptr<LivePipeline> pipeline_;
  // Published once the pipeline exists: the TEMPLATES source runs on the
  // query-server thread.
  std::atomic<LivePipeline*> mining_pipeline_{nullptr};
  std::unique_ptr<Checkpointer> ckpt_;
  std::unique_ptr<AsyncCheckpointer> async_ckpt_;
  std::unique_ptr<SocketIngestSource> source_;
  LineBlock block_;

  uint64_t base_records_ = 0;
  uint64_t base_parse_failures_ = 0;
  uint64_t resume_offset_ = 0;
  std::atomic<uint64_t> duplicates_{0};
  bool failed_ = false;
  bool finished_ = false;
};

}  // namespace ts

#endif  // SRC_NODE_LIVE_NODE_H_
