#include "src/node/live_node.h"

#include <cstdarg>
#include <chrono>
#include <utility>
#include <vector>

#include "src/ckpt/live_checkpoint.h"
#include "src/store/tiered_reads.h"

namespace ts {
namespace {

// The final checkpoint wants eventual durability: FlushPending returns false
// on the FIRST spill write failure (so a periodic snapshot can be dropped)
// while the spill thread keeps retrying behind it. Each false return is at
// least one consumed fault or shed batch, so a finite fault window drains
// within this many tries.
constexpr int kFinalFlushTries = 100;
// Final snapshot write retries, backing off 100 ms << attempt.
constexpr int kFinalWriteRetries = 5;

}  // namespace

LiveNode::LiveNode(LiveNodeOptions options, CloseCallback on_close,
                   std::FILE* log)
    : options_(std::move(options)),
      on_close_(std::move(on_close)),
      log_(log),
      metrics_(std::make_shared<MetricsRegistry>()),
      store_(std::make_shared<SessionStore>(options_.store)),
      server_(std::make_unique<QueryServer>(options_.query, store_, metrics_)) {}

LiveNode::~LiveNode() {
  if (server_thread_.joinable()) {
    server_->Stop();
    server_thread_.join();
  }
  // The query server may hold the store past this node: finish the pipeline
  // (after the checkpoint writer, as member order would) and detach its
  // Retire sink before the pipeline goes away.
  async_ckpt_.reset();
  if (pipeline_ != nullptr) {
    pipeline_->Finish();
    if (cold_ == nullptr) {
      store_->SetEvictionSink(nullptr);
    }
  }
}

void LiveNode::Log(const char* format, ...) const {
  if (log_ == nullptr) {
    return;
  }
  va_list args;
  va_start(args, format);
  std::vfprintf(log_, format, args);
  va_end(args);
}

bool LiveNode::Start() {
  if (options_.cold) {
    cold_ = std::make_shared<ColdTier>(*options_.cold);
    if (!cold_->Start()) {
      Log("cannot use cold dir %s\n", options_.cold->dir.c_str());
      return false;
    }
    ColdTier* cold = cold_.get();
    store_->SetEvictionSink([cold](Session&& s) { cold->Append(std::move(s)); },
                            [cold] { cold->WaitForSpace(); });
    server_->SetColdTier(cold_);
    const ColdTier::Stats stats = cold_->stats();
    Log("cold tier: %s (%llu segment(s), %llu session(s) re-discovered)\n",
        options_.cold->dir.c_str(),
        static_cast<unsigned long long>(stats.segments),
        static_cast<unsigned long long>(stats.sessions));
  }
  if (options_.pipeline.mine_templates) {
    // ppm = hits per million mined payloads (every payload hits exactly one
    // template, so the snapshot's hits sum to the total).
    server_->SetTemplateSource([this] {
      std::vector<TemplateCount> out;
      LivePipeline* pipe = mining_pipeline_.load(std::memory_order_acquire);
      if (pipe == nullptr) {
        return out;
      }
      const auto snapshot = pipe->TemplateSnapshot();
      uint64_t total = 0;
      for (const auto& info : snapshot) {
        total += info.hits;
      }
      out.reserve(snapshot.size());
      for (const auto& info : snapshot) {
        out.push_back({info.id, info.hits,
                       total > 0 ? info.hits * 1'000'000 / total : 0,
                       info.text});
      }
      return out;
    });
  }
  // Listening before ingest starts, so subscribers attached early see every
  // session close.
  if (!server_->Start()) {
    Log("cannot serve on %s:%u\n", options_.query.host.c_str(),
        options_.query.port);
    return false;
  }
  Log("query server listening on %s:%u\n", options_.query.host.c_str(),
      server_->port());
  server_thread_ = std::thread([this] { server_->Run(); });
  if (!options_.ingest) {
    return true;
  }

  // Restore before connecting, so the hello's "TS1 <stream> <offset>"
  // resumes exactly where the snapshot left off.
  CheckpointState state;
  const bool restored = options_.checkpoint && Restore(&state);
  SocketIngestOptions ingest = *options_.ingest;
  ingest.resume_offset = resume_offset_;
  source_ = std::make_unique<SocketIngestSource>(ingest);
  StartPipeline(restored, std::move(state));
  return true;
}

bool LiveNode::Restore(CheckpointState* state) {
  ckpt_ = std::make_unique<Checkpointer>(*options_.checkpoint);
  const size_t stream = options_.ingest->stream;
  RestoreResult rr = ckpt_->RestoreLatest(state);
  if (rr.restored && state->stream != static_cast<uint64_t>(stream)) {
    Log("checkpoint %s is for stream %llu, not %zu; starting cold\n",
        rr.path.c_str(), static_cast<unsigned long long>(state->stream),
        stream);
    *state = CheckpointState{};
    rr.restored = false;
  }
  if (rr.restored) {
    base_records_ = state->records;
    base_parse_failures_ = state->parse_failures;
    resume_offset_ = state->resume_offset;
    Log("restored %s: resume offset %llu, %zu open fragment(s), "
        "%zu stored session(s)%s\n",
        rr.path.c_str(), static_cast<unsigned long long>(state->resume_offset),
        state->closers.open.size(), state->store_sessions.size(),
        rr.fallbacks > 0 ? " (damaged snapshot(s) skipped)" : "");
  } else if (rr.fallbacks > 0) {
    Log("no valid checkpoint in %s (%llu damaged); starting cold\n",
        options_.checkpoint->dir.c_str(),
        static_cast<unsigned long long>(rr.fallbacks));
  }
  ckpt_->RegisterMetrics(metrics_.get());
  return rr.restored;
}

void LiveNode::StartPipeline(bool restored, CheckpointState&& state) {
  const LivePipelineOptions& pipe_options = options_.pipeline;
  if (pipe_options.shed_policy == ShedPolicy::kOldestOpen) {
    Log("load shedding: oldest-open (open budget %zu MiB/shard, stall limit "
        "%lld ms) — output is no longer byte-identical across runs under "
        "overload\n",
        pipe_options.shed_open_bytes >> 20,
        static_cast<long long>(pipe_options.shed_stall_limit_ms));
  }
  const bool dedupe_replay = ckpt_ != nullptr;
  pipeline_ = std::make_unique<LivePipeline>(
      pipe_options, [this, dedupe_replay](Session&& s) {
        if (dedupe_replay &&
            TieredContains(*store_, cold_.get(), s.id, s.fragment_index)) {
          // Replay-window dedupe guard: with an exact resume offset this
          // never fires, but it keeps a stale offset from double-counting.
          // The cold check covers sessions the pre-crash run had already
          // evicted and spilled.
          duplicates_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (on_close_) {
          on_close_(s, pipeline_->ShardOf(s.id));
        }
        store_->Insert(std::move(s));
      });
  if (cold_ == nullptr) {
    // Victims go back to the shard that built them (the cold tier, when
    // there is one, takes them instead). Installed before the restore, whose
    // store import may already evict.
    LivePipeline* pipe = pipeline_.get();
    store_->SetEvictionSink(
        [pipe](Session&& s) { pipe->Retire(std::move(s)); });
  }
  if (restored) {
    // Must precede the first Feed/Flush: the restore publishes open
    // fragments and the snapshot watermark into the shard closers.
    RestoreLiveCheckpoint(std::move(state), pipeline_.get(), store_.get());
    if (on_close_) {
      // No batch has run yet, so no shard's callback can overlap these.
      store_->ForEachSession([this](const Session& s) {
        on_close_(s, pipeline_->ShardOf(s.id));
      });
    }
  }
  mining_pipeline_.store(pipeline_.get(), std::memory_order_release);
  pipeline_->RegisterMetrics(metrics_.get());
  // Legacy gauge names, kept stable for operators and the e2e smoke. With a
  // restored checkpoint they continue from the snapshot's counters so totals
  // match a crash-free run.
  metrics_->Register("ingest_records", [this] {
    return static_cast<int64_t>(ingest_records());
  });
  metrics_->Register("ingest_parse_failures", [this] {
    return static_cast<int64_t>(ingest_parse_failures());
  });
  LivePipeline* pipe = pipeline_.get();
  metrics_->Register("sessionize_open_sessions", [pipe] {
    return static_cast<int64_t>(pipe->open_sessions());
  });
  metrics_->Register("sessionize_watermark_ms", [pipe] {
    return static_cast<int64_t>(pipe->watermark() / kNanosPerMilli);
  });
  Log("live pipeline: %zu shard worker(s)\n", pipeline_->workers());
  if (ckpt_ == nullptr) {
    return;
  }
  // Periodic snapshots ride the async two-phase barrier: the poll loop pays
  // one BeginCheckpoint per due tick, and all O(live state) serialization +
  // fsync runs on the writer thread while ingest keeps feeding.
  AsyncCheckpointer::Options ac_options;
  ac_options.stream = static_cast<uint64_t>(options_.ingest->stream);
  ac_options.base_records = base_records_;
  ac_options.base_parse_failures = base_parse_failures_;
  if (cold_ != nullptr) {
    // Durability barrier: every eviction that precedes a snapshot's barrier
    // must be in a cold segment before the snapshot exists, or a restore
    // could lose it (the replay window starts at the snapshot's offset).
    ColdTier* cold = cold_.get();
    ac_options.before_write = [cold] { return cold->FlushPending(); };
  }
  async_ckpt_ = std::make_unique<AsyncCheckpointer>(
      ckpt_.get(), pipeline_.get(), store_.get(), ac_options);
  async_ckpt_->RegisterMetrics(metrics_.get());
}

SocketIngestSource::Poll LiveNode::Step(int timeout_ms) {
  if (source_ == nullptr || finished_) {
    return SocketIngestSource::Poll::kEndOfStream;
  }
  // Zero-copy: recv bytes land in the source's arena, PollBlock hands them
  // over as views, and FeedBlock routes them shard-ward with no per-line
  // copies (docs/INGEST.md).
  const auto poll = source_->PollBlock(&block_, timeout_ms);
  pipeline_->FeedBlock(std::move(block_));
  if (poll == SocketIngestSource::Poll::kFailed) {
    failed_ = true;
  } else if (poll != SocketIngestSource::Poll::kEndOfStream) {
    pipeline_->Flush();
    if (async_ckpt_ != nullptr) {
      async_ckpt_->MaybeCheckpoint(source_->records_received());
    }
  }
  return poll;
}

void LiveNode::Run(const std::function<bool()>& stop) {
  while (stop == nullptr || !stop()) {
    const auto poll = Step();
    if (poll == SocketIngestSource::Poll::kEndOfStream ||
        poll == SocketIngestSource::Poll::kFailed) {
      return;
    }
  }
}

bool LiveNode::RequestCheckpoint() {
  if (async_ckpt_ == nullptr || finished_) {
    return false;
  }
  // Settle the previous snapshot first, so every request begins one and a
  // caller's cadence is exactly the cadence of snapshots taken.
  async_ckpt_->Drain();
  return async_ckpt_->RequestCheckpoint(source_->records_received());
}

void LiveNode::Shutdown() {
  if (pipeline_ == nullptr || finished_) {
    return;
  }
  finished_ = true;
  // Drain the writer before the synchronous capture or Finish(): at most one
  // barrier may be in flight, and an uncollected ticket would leave the
  // shard workers paused forever. The writer stays alive (idle) so the
  // degraded-mode gauges it registered keep sampling.
  if (async_ckpt_ != nullptr) {
    async_ckpt_->Drain();
  }
  if (ckpt_ != nullptr && !failed_) {
    WriteFinalCheckpoint();
  }
  pipeline_->Finish();
}

void LiveNode::Kill() {
  if (pipeline_ == nullptr || finished_) {
    return;
  }
  finished_ = true;
  // A snapshot begun before the kill either lands whole or fails whole,
  // like the writer thread of a real process. It must settle while the cold
  // tier still spills: its FlushPending barrier vouches for every eviction
  // before it.
  if (async_ckpt_ != nullptr) {
    async_ckpt_->Drain();
  }
  if (cold_ != nullptr) {
    // The kill instant. Everything after this, including the partial
    // sessions Finish() force-closes below, belongs to a dead process and
    // must never reach disk, or truncated versions would shadow the correct
    // ones on replay.
    cold_->Abandon();
  }
  pipeline_->Finish();
}

void LiveNode::WriteFinalCheckpoint() {
  // Before Finish(): Finish force-closes every open fragment, and those early
  // closes must not leak into the snapshot — a restart continues them as
  // open fragments instead.
  pipeline_->Flush();
  CheckpointState state = CaptureLiveCheckpoint(
      pipeline_.get(), *store_, source_->records_received(),
      static_cast<uint64_t>(options_.ingest->stream));
  state.records += base_records_;
  state.parse_failures += base_parse_failures_;
  if (cold_ != nullptr) {
    // Same durability barrier as the periodic snapshots, ridden through the
    // spill thread's retries. The snapshot is written either way, but a
    // barrier that never drained is reported: some session evicted before it
    // may not be durable yet.
    bool drained = false;
    for (int i = 0; i < kFinalFlushTries && !drained; ++i) {
      drained = cold_->FlushPending();
    }
    if (!drained) {
      Log("cold spill barrier did not drain before the final checkpoint "
          "(%s)\n",
          options_.cold->dir.c_str());
    }
  }
  // The disk may still be inside a fault window at end of stream (the
  // periodic writer only ticks while records flow, so nothing after the last
  // record has proven it healthy). Retry with backoff rather than silently
  // leaving the directory empty.
  bool ok = ckpt_->Write(state);
  for (int attempt = 0; !ok && attempt < kFinalWriteRetries; ++attempt) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(int64_t{100} << attempt));
    ok = ckpt_->Write(state);
  }
  if (ok) {
    Log("final checkpoint at offset %llu (%s)\n",
        static_cast<unsigned long long>(state.resume_offset),
        ckpt_->dir().c_str());
  } else {
    Log("final checkpoint FAILED (%s unwritable)\n", ckpt_->dir().c_str());
  }
}

uint64_t LiveNode::ingest_records() const {
  return base_records_ + pipeline_->records();
}

uint64_t LiveNode::ingest_parse_failures() const {
  return base_parse_failures_ + pipeline_->parse_failures();
}

LiveNode::Accounting LiveNode::accounting() const {
  Accounting a;
  a.received = source_->records_received() - resume_offset_;
  a.parsed = pipeline_->records();
  a.parse_failures = pipeline_->parse_failures();
  a.blank_lines = pipeline_->blank_lines();
  a.records_emitted = pipeline_->records_emitted();
  a.open_records = pipeline_->open_records();
  a.shed_records = pipeline_->shed_records();
  a.shed_fragments = pipeline_->shed_fragments();
  a.shed_lines = pipeline_->shed_lines();
  return a;
}

}  // namespace ts
