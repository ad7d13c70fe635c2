#include "src/core/live_pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/common/siphash.h"
#include "src/common/thread_timer.h"
#include "src/log/record_view.h"

namespace ts {
namespace {

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Rotate the FeedLine/mining arena once it holds this much line text; old
// arenas die when the batches referencing them drain.
constexpr size_t kFeedArenaRotateBytes = 1 << 20;

// Strips the trailing newline (and any CR/LF run) like FeedLine always has.
std::string_view TrimLineEnding(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  return line;
}

}  // namespace

LivePipeline::LivePipeline(const LivePipelineOptions& options, SessionSink sink)
    : options_(options),
      sink_(std::move(sink)),
      workers_done_(
          static_cast<std::ptrdiff_t>(std::max<size_t>(1, options.workers))) {
  options_.workers = std::max<size_t>(1, options_.workers);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  options_.max_batch_records = std::max<size_t>(1, options_.max_batch_records);
  shards_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.queue_capacity,
                                              options_.inactivity_ns));
  }
  if (options_.mine_templates) {
    miner_ = std::make_unique<TemplateMiner>(options_.miner);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
}

LivePipeline::~LivePipeline() { Finish(); }

void LivePipeline::RotateFeedArena() {
  if (feed_arena_ == nullptr ||
      feed_arena_->bytes_used() > kFeedArenaRotateBytes) {
    feed_arena_ = std::make_shared<Arena>();
  }
}

void LivePipeline::FeedLine(std::string line) {
  const std::string_view trimmed = TrimLineEnding(line);
  if (trimmed.empty()) {
    // Framing artifact, not a corrupt record: skipped everywhere, counted
    // nowhere near parse_failures (see ISSUE: blank-line unification).
    blank_lines_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // One copy into the ingest arena; from here the bytes flow as views, same
  // as the FeedBlock path.
  RotateFeedArena();
  FeedView(feed_arena_->Copy(trimmed), feed_arena_);
}

void LivePipeline::FeedBlock(LineBlock&& block) {
  if (block.connection_reset) {
    // Mark every shard's next batch: per-connection interning dictionaries
    // downstream describe a dead producer. Batch granularity is fine — the
    // dictionaries are pure caches (reset timing is output-neutral).
    for (auto& shard_ptr : shards_) {
      shard_ptr->pending.reset_interners = true;
    }
  }
  for (std::string_view raw : block.lines) {
    const std::string_view line = TrimLineEnding(raw);
    if (line.empty()) {
      blank_lines_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    FeedView(line, block.arena);
  }
  block.clear();
}

void LivePipeline::FeedView(std::string_view line, const ArenaRef& arena) {
  RecordView view = ScanRecord(line);
  const ArenaRef* owner = &arena;
  if (miner_ != nullptr) {
    // Mine before routing: the miner sees the full arrival stream in order
    // on this one thread, which is what keeps template ids independent of
    // the worker count. The rewritten line is what every downstream stage
    // (parse, store, digests, snapshots) sees. Lines without a payload field
    // pass through unmodified.
    const size_t offset = PayloadOffset(view);
    if (offset != std::string_view::npos) {
      std::lock_guard<std::mutex> lock(miner_mu_);
      miner_scratch_.clear();
      miner_->MineAndRewrite(line.substr(offset), &miner_scratch_);
      // Rewritten line = unchanged prefix + mined payload, copied into the
      // pipeline arena. The prefix — and so every separator offset — is
      // untouched; only the view's line pointer moves.
      RotateFeedArena();
      char* dst = feed_arena_->Allocate(offset + miner_scratch_.size());
      std::memcpy(dst, line.data(), offset);
      std::memcpy(dst + offset, miner_scratch_.data(), miner_scratch_.size());
      view.line = std::string_view(dst, offset + miner_scratch_.size());
      owner = &feed_arena_;
    }
  }
  EventTime time = 0;
  std::string_view session_id;
  size_t shard_index;
  if (ExtractRouteKey(view, &time, &session_id)) {
    ingest_watermark_ = std::max(ingest_watermark_, time);
    shard_index = ShardOf(session_id);
  } else {
    shard_index = ShardOf(view.line);
  }
  Item item;
  item.view = view;
  item.watermark = ingest_watermark_;
  Route(std::move(item), shard_index, *owner);
}

void LivePipeline::FeedRecord(LogRecord record) {
  if (miner_ != nullptr) {
    std::lock_guard<std::mutex> lock(miner_mu_);
    miner_scratch_.clear();
    miner_->MineAndRewrite(record.payload, &miner_scratch_);
    record.payload = miner_scratch_;
  }
  ingest_watermark_ = std::max(ingest_watermark_, record.time);
  const size_t shard_index = ShardOf(record.session_id);
  Item item;
  item.record = std::move(record);
  item.parsed = true;
  item.watermark = ingest_watermark_;
  Route(std::move(item), shard_index, /*arena=*/nullptr);
}

void LivePipeline::Route(Item item, size_t shard_index, const ArenaRef& arena) {
  Shard& shard = *shards_[shard_index];
  shard.pending.items.push_back(std::move(item));
  if (arena != nullptr) {
    // Record the view's keep-alive. The same handful of arenas repeats across
    // a batch (ingest block + maybe the feed arena), so a linear scan dedups.
    auto& arenas = shard.pending.arenas;
    bool held = false;
    for (const ArenaRef& a : arenas) {
      if (a == arena) {
        held = true;
        break;
      }
    }
    if (!held) {
      arenas.push_back(arena);
    }
  }
  if (shard.pending.items.size() >= options_.max_batch_records) {
    SealAndPush(shard);
  }
}

void LivePipeline::SealAndPush(Shard& shard) {
  Batch batch = std::move(shard.pending);
  shard.pending = Batch{};
  batch.watermark_end = ingest_watermark_;
  if (options_.record_close_latency) {
    batch.enqueue_steady_ns = SteadyNowNanos();
  }
  shard.last_tick_watermark = batch.watermark_end;
  // Full shard queue: this is the back-pressure moment — Push below blocks,
  // the stalled ingest thread stops draining its socket, and TCP flow
  // control propagates the stall to the log server. (TryPush would consume
  // the batch on failure, so probe with size(); as the queue's only
  // producer we can at worst under- or over-count a racing pop.)
  if (shard.queue.size() < options_.queue_capacity) {
    shard.queue.Push(std::move(batch));
    return;
  }
  backpressure_stalls_.fetch_add(1, std::memory_order_relaxed);
  const int64_t stall_start = SteadyNowNanos();
  if (options_.shed_policy == ShedPolicy::kNone) {
    shard.queue.Push(std::move(batch));
  } else {
    // Bounded stall: wait up to the limit for the worker to free a slot, then
    // shed the *oldest queued* batch (head drop — the records least likely to
    // still matter) and retry. Barrier and end-of-stream batches are never
    // dropped: if one heads the queue we simply keep waiting (its worker is
    // guaranteed to drain it). Dropped items are pre-parse lines; they are
    // counted exactly in shed_lines and nowhere else.
    auto wait = std::chrono::milliseconds(
        std::max<int64_t>(1, options_.shed_stall_limit_ms));
    while (!shard.queue.PushWithTimeout(batch, wait)) {
      Batch dropped;
      if (shard.queue.PopFrontIf(
              [](const Batch& b) { return b.barrier == nullptr && !b.flush_all; },
              &dropped)) {
        if (!dropped.items.empty()) {
          shard.shed_lines.fetch_add(dropped.items.size(),
                                     std::memory_order_relaxed);
        }
      }
      // After the first timeout, retry tightly: a slot is either already free
      // (we just dropped the head) or about to be.
      wait = std::chrono::milliseconds(1);
    }
  }
  shard.stall_ns.fetch_add(SteadyNowNanos() - stall_start,
                           std::memory_order_relaxed);
}

void LivePipeline::Flush() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (!shard.pending.items.empty()) {
      SealAndPush(shard);
    } else if (shard.last_tick_watermark != ingest_watermark_) {
      // Watermark-only tick so shards with no recent records still close
      // their idle sessions. Skipped while the watermark is unchanged.
      SealAndPush(shard);
    }
  }
}

LivePipeline::CheckpointTicket LivePipeline::BeginCheckpoint() {
  if (finished_) {
    return nullptr;
  }
  auto ticket = std::make_shared<CkptBarrier>();
  ticket->expected = shards_.size();
  ticket->watermark = ingest_watermark_;
  if (miner_ != nullptr) {
    // Exported here — on the ingest thread, at exactly the barrier's arrival
    // position — because by the time the collector runs, ingest may have
    // mined lines past the marker.
    std::lock_guard<std::mutex> lock(miner_mu_);
    ticket->miner = miner_->Export();
    ticket->has_miner = true;
  }
  for (auto& shard_ptr : shards_) {
    // Seal whatever is pending plus the barrier marker; the barrier batch
    // carries the current global watermark like any Flush tick, so the state
    // each shard exports is aligned at (arrival position, ingest watermark).
    shard_ptr->pending.barrier = ticket;
    SealAndPush(*shard_ptr);
  }
  return ticket;
}

PipelineCheckpoint LivePipeline::CollectCheckpoint(
    const CheckpointTicket& ticket, const std::function<void()>& while_paused,
    const LiveCloser::OpenFragmentVisitor& open_visitor) {
  {
    std::unique_lock<std::mutex> lock(ticket->mu);
    ticket->arrived_cv.wait(
        lock, [&ticket] { return ticket->arrived == ticket->expected; });
  }
  // Every worker is paused inside the barrier with its counters published
  // (the acquire on ticket->mu above orders those relaxed stores), so the
  // totals below are barrier-aligned even while ingest keeps queueing batches
  // behind the marker. The closers are safe to read for the same reason: their
  // owning workers cannot advance until released below.
  PipelineCheckpoint checkpoint;
  checkpoint.records = records();
  checkpoint.parse_failures = parse_failures();
  checkpoint.ingest_watermark = ticket->watermark;
  checkpoint.has_miner = ticket->has_miner;
  checkpoint.miner = std::move(ticket->miner);
  for (auto& shard_ptr : shards_) {
    shard_ptr->closer.ExportCounters(&checkpoint.closers);
    shard_ptr->closer.VisitOpenFragments(open_visitor);
  }
  if (while_paused) {
    while_paused();
  }
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->released = true;
  }
  ticket->release_cv.notify_all();
  return checkpoint;
}

void LivePipeline::RestoreCheckpoint(PipelineCheckpoint&& checkpoint) {
  if (miner_ != nullptr && checkpoint.has_miner) {
    std::lock_guard<std::mutex> lock(miner_mu_);
    miner_->Import(checkpoint.miner);
  }
  ingest_watermark_ = std::max(ingest_watermark_, checkpoint.ingest_watermark);
  for (auto& fragment : checkpoint.closers.open) {
    shards_[ShardOf(fragment.id)]->closer.ImportFragment(std::move(fragment));
  }
  for (const auto& [id, next] : checkpoint.closers.next_fragment) {
    shards_[ShardOf(id)]->closer.SetNextFragment(id, next);
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.closer.ObserveWatermark(checkpoint.ingest_watermark);
    shard.open_sessions.store(shard.closer.open_sessions(),
                              std::memory_order_relaxed);
    shard.open_bytes.store(shard.closer.open_bytes(),
                           std::memory_order_relaxed);
    shard.watermark.store(shard.closer.watermark(), std::memory_order_relaxed);
    shard.expiry_candidates.store(shard.closer.expiry_candidates(),
                                  std::memory_order_relaxed);
  }
}

void LivePipeline::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.pending.flush_all = true;
    SealAndPush(shard);
    shard.queue.Close();
  }
  for (auto& shard_ptr : shards_) {
    if (shard_ptr->worker.joinable()) {
      shard_ptr->worker.join();
    }
    // The workers freed their queues after the last emission; what is left
    // was retired from outside the pipeline since. Later Retire() calls get
    // their session back.
    shard_ptr->retire_queue.Close();
  }
}

size_t LivePipeline::ShardOf(std::string_view id) const {
  return SipHash24(id) % shards_.size();
}

void LivePipeline::Retire(Session&& session) {
  shards_[ShardOf(session.id)]->retire_queue.Push(std::move(session));
}

void LivePipeline::DrainRetired(Shard& shard) {
  if (const size_t freed = shard.retire_queue.Drain(); freed > 0) {
    shard.retired_sessions.fetch_add(freed, std::memory_order_relaxed);
  }
}

void LivePipeline::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  LiveCloser& closer = shard.closer;
  std::vector<Session> closed;
  // Per-connection dictionaries memoizing the svc-/h- field parses; cleared
  // when a batch carries the reconnect flag. Worker-thread-owned.
  InternerPair interners;
  uint64_t records = 0;
  uint64_t parse_failures = 0;
  while (auto batch = shard.queue.Pop()) {
    // Sessions this shard built and another thread released (store
    // evictions) are freed here, on the thread whose allocator owns them.
    DrainRetired(shard);
    if (batch->reset_interners) {
      interners.Clear();
    }
    for (Item& item : batch->items) {
      closer.ObserveWatermark(item.watermark);
      if (item.parsed) {
        closer.Feed(std::move(item.record), &closed);
        ++records;
      } else {
        // The materialization point: numerics parse lazily off the
        // pre-scanned view; this is the first (and only) copy of the
        // session-id and payload bytes out of the ingest arena.
        LogRecord record;
        if (MaterializeRecord(item.view, &interners, &record)) {
          closer.Feed(std::move(record), &closed);
          ++records;
        } else {
          ++parse_failures;
        }
      }
    }
    closer.ObserveWatermark(batch->watermark_end);
    closer.CloseExpired(&closed);
    if (options_.shed_policy == ShedPolicy::kOldestOpen &&
        closer.open_bytes() > options_.shed_open_bytes) {
      // Over the open-state budget (under overload, head drops upstream orphan
      // fragments whose closing records were shed — they would otherwise pin
      // memory until end of stream): drop oldest-idle fragments, exactly
      // accounted, until back under budget.
      closer.ShedOldestUntil(options_.shed_open_bytes);
    }
    if (batch->flush_all) {
      closer.FlushAll(&closed);
    }
    if (!closed.empty()) {
      for (Session& s : closed) {
        if (options_.record_close_latency && batch->enqueue_steady_ns > 0) {
          shard.close_latencies_ms.push_back(
              static_cast<double>(SteadyNowNanos() - batch->enqueue_steady_ns) /
              1e6);
        }
        sink_(std::move(s));
      }
      shard.sessions_closed.fetch_add(closed.size(),
                                      std::memory_order_relaxed);
      closed.clear();
    }
    shard.records.store(records, std::memory_order_relaxed);
    shard.parse_failures.store(parse_failures, std::memory_order_relaxed);
    shard.open_sessions.store(closer.open_sessions(),
                              std::memory_order_relaxed);
    shard.open_bytes.store(closer.open_bytes(), std::memory_order_relaxed);
    shard.watermark.store(closer.watermark(), std::memory_order_relaxed);
    shard.records_emitted.store(closer.records_emitted(),
                                std::memory_order_relaxed);
    shard.open_records.store(closer.open_records(), std::memory_order_relaxed);
    shard.shed_records.store(closer.shed_records(), std::memory_order_relaxed);
    shard.shed_fragments.store(closer.shed_fragments(),
                               std::memory_order_relaxed);
    shard.expiry_candidates.store(closer.expiry_candidates(),
                                  std::memory_order_relaxed);
    shard.expiry_visited.store(closer.expiry_visited(),
                               std::memory_order_relaxed);
    shard.cpu_ns.store(ThreadCpuNanos(), std::memory_order_relaxed);
    if (batch->barrier != nullptr) {
      // Two-phase checkpoint rendezvous: pre-barrier closes are in the sink
      // and the counters above are published, so once every shard is parked
      // here the collector reads barrier-aligned totals and may export this
      // shard's closer. Pause (blocked, no CPU) until it releases us.
      CkptBarrier& barrier = *batch->barrier;
      std::unique_lock<std::mutex> lock(barrier.mu);
      if (++barrier.arrived == barrier.expected) {
        barrier.arrived_cv.notify_all();
      }
      barrier.release_cv.wait(lock, [&barrier] { return barrier.released; });
    }
  }
  // End of stream. Other shards may still be emitting, and their inserts may
  // evict sessions this shard built: wait until every shard is past its last
  // emission, then free the rest here.
  workers_done_.arrive_and_wait();
  DrainRetired(shard);
}

uint64_t LivePipeline::records() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->records.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LivePipeline::parse_failures() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->parse_failures.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LivePipeline::sessions_closed() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->sessions_closed.load(std::memory_order_relaxed);
  }
  return total;
}

size_t LivePipeline::open_sessions() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    total += s->open_sessions.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t LivePipeline::backpressure_stall_ns() const {
  int64_t total = 0;
  for (const auto& s : shards_) {
    total += s->stall_ns.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LivePipeline::records_emitted() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->records_emitted.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LivePipeline::open_records() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->open_records.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LivePipeline::shed_records() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->shed_records.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LivePipeline::shed_fragments() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->shed_fragments.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LivePipeline::shed_lines() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->shed_lines.load(std::memory_order_relaxed);
  }
  return total;
}

size_t LivePipeline::expiry_candidates() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    total += s->expiry_candidates.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LivePipeline::expiry_visited() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->expiry_visited.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LivePipeline::retired_sessions() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->retired_sessions.load(std::memory_order_relaxed);
  }
  return total;
}

size_t LivePipeline::retire_pending() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    total += s->retire_queue.pending();
  }
  return total;
}

EventTime LivePipeline::watermark() const {
  EventTime min_wm = 0;
  bool first = true;
  for (const auto& s : shards_) {
    const EventTime wm = s->watermark.load(std::memory_order_relaxed);
    min_wm = first ? wm : std::min(min_wm, wm);
    first = false;
  }
  return min_wm;
}

std::vector<TemplateInfo> LivePipeline::TemplateSnapshot() const {
  if (miner_ == nullptr) {
    return {};
  }
  std::lock_guard<std::mutex> lock(miner_mu_);
  return miner_->Snapshot();
}

size_t LivePipeline::template_count() const {
  if (miner_ == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(miner_mu_);
  return miner_->template_count();
}

size_t LivePipeline::template_nodes() const {
  if (miner_ == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(miner_mu_);
  return miner_->node_count();
}

LiveShardSnapshot LivePipeline::shard(size_t i) const {
  const Shard& s = *shards_[i];
  LiveShardSnapshot snap;
  snap.records = s.records.load(std::memory_order_relaxed);
  snap.parse_failures = s.parse_failures.load(std::memory_order_relaxed);
  snap.sessions_closed = s.sessions_closed.load(std::memory_order_relaxed);
  snap.open_sessions = s.open_sessions.load(std::memory_order_relaxed);
  snap.open_bytes = s.open_bytes.load(std::memory_order_relaxed);
  snap.queue_depth = s.queue.size();
  snap.watermark = s.watermark.load(std::memory_order_relaxed);
  snap.cpu_ns = s.cpu_ns.load(std::memory_order_relaxed);
  snap.records_emitted = s.records_emitted.load(std::memory_order_relaxed);
  snap.open_records = s.open_records.load(std::memory_order_relaxed);
  snap.shed_records = s.shed_records.load(std::memory_order_relaxed);
  snap.shed_fragments = s.shed_fragments.load(std::memory_order_relaxed);
  snap.shed_lines = s.shed_lines.load(std::memory_order_relaxed);
  snap.stall_ns = s.stall_ns.load(std::memory_order_relaxed);
  snap.retired_sessions = s.retired_sessions.load(std::memory_order_relaxed);
  return snap;
}

void LivePipeline::RegisterMetrics(MetricsRegistry* registry,
                                   const std::string& prefix) const {
  registry->Register(prefix + "records", [this] {
    return static_cast<int64_t>(records());
  });
  registry->Register(prefix + "parse_failures", [this] {
    return static_cast<int64_t>(parse_failures());
  });
  registry->Register(prefix + "blank_lines", [this] {
    return static_cast<int64_t>(blank_lines());
  });
  registry->Register(prefix + "open_sessions", [this] {
    return static_cast<int64_t>(open_sessions());
  });
  registry->Register(prefix + "sessions_closed", [this] {
    return static_cast<int64_t>(sessions_closed());
  });
  registry->Register(prefix + "watermark_ms", [this] {
    return static_cast<int64_t>(watermark() / kNanosPerMilli);
  });
  registry->Register(prefix + "backpressure_stalls", [this] {
    return static_cast<int64_t>(backpressure_stalls());
  });
  registry->Register(prefix + "backpressure_stall_us", [this] {
    return backpressure_stall_ns() / 1000;
  });
  // Shed accounting — registered even with shedding off (then all zero), so
  // STATS consumers can always reconcile
  // records == records_emitted + open_records + shed_records.
  registry->Register(prefix + "records_emitted", [this] {
    return static_cast<int64_t>(records_emitted());
  });
  // Closed sessions released by the store and not yet / already freed on
  // their owner shard (Retire).
  registry->Register(prefix + "retired_sessions", [this] {
    return static_cast<int64_t>(retired_sessions());
  });
  registry->Register(prefix + "retire_pending", [this] {
    return static_cast<int64_t>(retire_pending());
  });
  registry->Register(prefix + "open_records", [this] {
    return static_cast<int64_t>(open_records());
  });
  registry->Register(prefix + "shed_records", [this] {
    return static_cast<int64_t>(shed_records());
  });
  registry->Register(prefix + "shed_fragments", [this] {
    return static_cast<int64_t>(shed_fragments());
  });
  registry->Register(prefix + "shed_lines", [this] {
    return static_cast<int64_t>(shed_lines());
  });
  registry->Register(prefix + "expiry_candidates", [this] {
    return static_cast<int64_t>(expiry_candidates());
  });
  registry->Register(prefix + "expiry_visited", [this] {
    return static_cast<int64_t>(expiry_visited());
  });
  if (options_.mine_templates) {
    registry->Register(prefix + "templates", [this] {
      return static_cast<int64_t>(template_count());
    });
    registry->Register(prefix + "template_nodes", [this] {
      return static_cast<int64_t>(template_nodes());
    });
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string shard_prefix = prefix + "shard" + std::to_string(i) + "_";
    registry->Register(shard_prefix + "records", [this, i] {
      return static_cast<int64_t>(shard(i).records);
    });
    registry->Register(shard_prefix + "parse_failures", [this, i] {
      return static_cast<int64_t>(shard(i).parse_failures);
    });
    registry->Register(shard_prefix + "open_sessions", [this, i] {
      return static_cast<int64_t>(shard(i).open_sessions);
    });
    registry->Register(shard_prefix + "queue_depth", [this, i] {
      return static_cast<int64_t>(shard(i).queue_depth);
    });
    registry->Register(shard_prefix + "shed_records", [this, i] {
      return static_cast<int64_t>(shard(i).shed_records);
    });
    registry->Register(shard_prefix + "shed_lines", [this, i] {
      return static_cast<int64_t>(shard(i).shed_lines);
    });
    registry->Register(shard_prefix + "stall_us", [this, i] {
      return shard(i).stall_ns / 1000;
    });
  }
}

std::vector<double> LivePipeline::CloseLatenciesMs() const {
  std::vector<double> all;
  if (!finished_) {
    return all;  // Worker-owned until the workers join.
  }
  for (const auto& s : shards_) {
    all.insert(all.end(), s->close_latencies_ms.begin(),
               s->close_latencies_ms.end());
  }
  return all;
}

}  // namespace ts
