#include "src/ckpt/async_checkpointer.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/ckpt/live_checkpoint.h"

namespace ts {
namespace {

// The final snapshot's budget. Its barrier gets this many before_write calls
// to drain: a tiered store's FlushPending returns false at the first spill
// failure while its spill thread keeps retrying, and each false return is at
// least one consumed fault or shed batch, so a finite fault window drains
// within them. One that never drains is not published.
constexpr int kFinalBarrierTries = 100;
// Then this many write attempts, backing off kFinalBackoffMs << attempt,
// without jitter.
constexpr int kFinalWriteAttempts = 6;
constexpr int64_t kFinalBackoffMs = 100;

}  // namespace

AsyncCheckpointer::AsyncCheckpointer(Checkpointer* checkpointer,
                                     LivePipeline* pipeline,
                                     const SessionStore* store,
                                     const Options& options)
    : checkpointer_(checkpointer),
      pipeline_(pipeline),
      store_(store),
      options_(options) {
  writer_ = std::thread([this] { WriterLoop(); });
}

AsyncCheckpointer::~AsyncCheckpointer() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !in_flight_; });
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) {
    writer_.join();
  }
}

bool AsyncCheckpointer::MaybeCheckpoint(uint64_t resume_offset) {
  if (!checkpointer_->ShouldCheckpoint()) {
    return false;
  }
  return RequestCheckpoint(resume_offset);
}

bool AsyncCheckpointer::RequestCheckpoint(uint64_t resume_offset) {
  return Begin(resume_offset, /*final=*/false);
}

bool AsyncCheckpointer::Begin(uint64_t resume_offset, bool final) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_) {
      ++skipped_busy_;
      return false;
    }
  }
  // BeginCheckpoint outside mu_: it is ingest-thread-only API and the writer
  // never touches the pipeline before it receives a ticket.
  LivePipeline::CheckpointTicket ticket = pipeline_->BeginCheckpoint();
  if (ticket == nullptr) {
    return false;  // Pipeline already finished.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket_ = std::move(ticket);
    ticket_resume_offset_ = resume_offset;
    ticket_final_ = final;
    in_flight_ = true;
  }
  ++started_;
  cv_.notify_all();
  return true;
}

void AsyncCheckpointer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !in_flight_; });
}

AsyncCheckpointer::Final AsyncCheckpointer::WriteFinal(
    uint64_t resume_offset) {
  Drain();
  if (!Begin(resume_offset, /*final=*/true)) {
    return Final::kNotTaken;
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !in_flight_; });
  return last_outcome_;
}

void AsyncCheckpointer::WriterLoop() {
  for (;;) {
    LivePipeline::CheckpointTicket ticket;
    uint64_t resume_offset = 0;
    bool final = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || ticket_ != nullptr; });
      if (ticket_ == nullptr) {
        return;  // stop_ with nothing pending; Drain guarantees this order.
      }
      ticket = std::move(ticket_);
      resume_offset = ticket_resume_offset_;
      final = ticket_final_;
    }
    CheckpointState state;
    state.resume_offset = resume_offset;
    state.stream = options_.stream;
    open_frames_.clear();  // Keeps capacity from the previous snapshot.
    uint64_t open_count = 0;
    PipelineCheckpoint pipeline_state = pipeline_->CollectCheckpoint(
        ticket,
        [this, &state] {
          // Shards are paused: bring the incremental store-frame cache up to
          // the barrier. Only sessions inserted since the previous snapshot
          // get serialized (stored sessions are immutable and insertion seqs
          // are consecutive, so cached frames stay valid forever); evicted
          // ones fall off the cache front. Amortized cost per snapshot is
          // O(new sessions), not O(store).
          const SessionStore::Stats stats = store_->stats();
          state.store_inserted = stats.inserted;
          state.store_evicted = stats.evicted;
          const SessionStore::SeqWindow window = store_->ForEachSessionSince(
              cached_next_seq_, [this](const Session& s) {
                const size_t before = cached_frames_.size();
                store_encoder_.Append(s, &cached_frames_);
                cached_frame_sizes_.push_back(
                    static_cast<uint32_t>(cached_frames_.size() - before));
              });
          // Drop frames for entries evicted since the last snapshot. Only
          // seqs below the previous cache end ever had frames — an entry both
          // inserted and evicted between snapshots never entered the cache —
          // so the drop is bounded by it, not by window.oldest alone.
          const uint64_t drop_to = std::min(window.oldest, cached_next_seq_);
          while (cached_oldest_seq_ < drop_to &&
                 !cached_frame_sizes_.empty()) {
            cached_front_ += cached_frame_sizes_.front();
            cached_frame_sizes_.pop_front();
            ++cached_oldest_seq_;
          }
          cached_oldest_seq_ = window.oldest;
          cached_next_seq_ = window.next;
        },
        // Open fragments mutate between snapshots, so they cannot be cached
        // like store frames — but the visitor serializes each one exactly
        // once, straight into the output buffer, with no deep copy (and none
        // of its per-fragment allocations).
        [this, &open_count](const std::string& id, EventTime last_time,
                            const std::vector<LogRecord>& records) {
          open_encoder_.Append(id, last_time, records, &open_frames_);
          ++open_count;
        });
    FillFromPipelineCheckpoint(std::move(pipeline_state), &state);
    state.records += options_.base_records;
    state.parse_failures += options_.base_parse_failures;
    // Reclaim the dead prefix once it dominates the buffer; outside the
    // pause, so the memmove races nothing.
    if (cached_front_ > (1u << 20) && cached_front_ > cached_frames_.size() / 2) {
      cached_frames_.erase(0, cached_front_);
      cached_front_ = 0;
    }
    // Shards are running again; framing CRCs were paid incrementally at cache
    // append time, and the cached section streams straight to the file —
    // fsync + rotation happen here, concurrently with normal processing.
    //
    // Disk trouble never reaches the ingest thread: each failed attempt (a
    // false durability barrier or a failed Write) is counted, retried after
    // jittered exponential backoff, and — past the retry limit — the snapshot
    // is dropped; the next cadence tick starts a fresh one. Every retry goes
    // back through Checkpointer::Write, which re-encodes the retained state
    // into a brand-new tmp fd: after a failed fsync the old fd and its tmp
    // file are already discarded (fsyncgate), never re-fsynced.
    //
    // The final snapshot takes the same path under a larger budget (the
    // constants above): its barrier rides out the spill thread's own
    // retries, a barrier that never drains ends it unpublished, and its
    // backoff has no jitter.
    const int retry_limit =
        final ? kFinalWriteAttempts : std::max(options_.write_retry_limit, 1);
    const int64_t backoff_ms =
        final ? kFinalBackoffMs : options_.write_retry_backoff_ms;
    Final outcome = Final::kWriteFailed;
    for (int attempt = 0; attempt < retry_limit; ++attempt) {
      bool barrier_ok = !options_.before_write;
      for (int t = 0; !barrier_ok && t < (final ? kFinalBarrierTries : 1);
           ++t) {
        barrier_ok = options_.before_write();
      }
      if (barrier_ok &&
          checkpointer_->Write(
              state, open_frames_, open_count,
              std::string_view(cached_frames_).substr(cached_front_),
              cached_frame_sizes_.size())) {
        outcome = Final::kWritten;
        break;
      }
      outcome = barrier_ok ? Final::kWriteFailed : Final::kBarrierFailed;
      write_failures_.fetch_add(1, std::memory_order_relaxed);
      if (!degraded_.exchange(true, std::memory_order_relaxed)) {
        degraded_entries_.fetch_add(1, std::memory_order_relaxed);
      }
      if (attempt + 1 >= retry_limit || (final && !barrier_ok)) {
        break;
      }
      const int64_t base =
          std::min<int64_t>(backoff_ms << std::min(attempt, 5), 2000);
      const int64_t jitter =
          final ? 0
                : static_cast<int64_t>(
                      backoff_rng_.NextBelow(static_cast<uint64_t>(base) + 1));
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(base + jitter),
                   [this] { return stop_; });
    }
    if (outcome == Final::kWritten) {
      degraded_.store(false, std::memory_order_relaxed);  // Disk healed.
    } else {
      snapshots_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_outcome_ = outcome;
      in_flight_ = false;
    }
    cv_.notify_all();
  }
}

void AsyncCheckpointer::RegisterMetrics(MetricsRegistry* registry,
                                        const std::string& prefix) const {
  registry->Register(prefix + "write_failures", [this] {
    return static_cast<int64_t>(
        write_failures_.load(std::memory_order_relaxed));
  });
  registry->Register(prefix + "degraded", [this] {
    return degraded_.load(std::memory_order_relaxed) ? int64_t{1}
                                                     : int64_t{0};
  });
  registry->Register(prefix + "degraded_entries", [this] {
    return static_cast<int64_t>(
        degraded_entries_.load(std::memory_order_relaxed));
  });
  registry->Register(prefix + "snapshots_dropped", [this] {
    return static_cast<int64_t>(
        snapshots_dropped_.load(std::memory_order_relaxed));
  });
}

}  // namespace ts
