// LivePipeline: the sharded live sessionization hot path. Covers the
// acceptance property (closed-session output is byte-identical for every
// worker count, and equal to one LiveCloser fed the parsed stream in arrival
// order), blank-line/parse-failure accounting, fragment renumbering across
// shards, back-pressure, the merged watermark, metrics registration, and a
// multi-worker ingest stress intended for the TSan CI lane.
#include "src/core/live_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/arena.h"
#include "src/common/metrics_registry.h"
#include "src/common/rng.h"
#include "src/log/record_batch.h"
#include "src/log/record_view.h"
#include "src/log/wire_format.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

constexpr EventTime kSec = kNanosPerSecond;

LogRecord Rec(const std::string& id, EventTime t, uint32_t service = 1) {
  LogRecord r;
  r.time = t;
  r.session_id = id;
  r.txn_id = *TxnId::Parse("1");
  r.service = service;
  r.host = service;
  r.kind = EventKind::kAnnotation;
  r.payload = "p";
  return r;
}

// A deterministic arrival stream: many interleaved sessions, mild
// out-of-order arrivals (within the inactivity slack), and idle gaps that
// force mid-stream fragment splits.
std::vector<std::string> MakeLines(size_t sessions, size_t rounds) {
  std::vector<std::string> lines;
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t round = 0; round < rounds; ++round) {
    // Rounds 0..2 are a burst, round 3 starts after a long idle gap so every
    // session splits into a second fragment.
    const EventTime base =
        static_cast<EventTime>(round) * kSec + (round >= 3 ? 60 * kSec : 0);
    for (size_t s = 0; s < sessions; ++s) {
      const std::string id = "SESS" + std::to_string(s);
      // Jitter keeps arrival order != event-time order within a round.
      const EventTime jitter = static_cast<EventTime>(next() % kNanosPerMilli);
      lines.push_back(ToWireFormat(
          Rec(id, base + jitter, static_cast<uint32_t>(s % 7))));
    }
  }
  return lines;
}

struct Collected {
  std::mutex mu;
  std::vector<Session> sessions;
  void Add(Session&& s) {
    std::lock_guard<std::mutex> lock(mu);
    sessions.push_back(std::move(s));
  }
};

std::string Canonical(const std::vector<Session>& sessions) {
  std::vector<std::string> blocks;
  for (const auto& s : sessions) {
    std::string b = s.id + "#" + std::to_string(s.fragment_index) + "@" +
                    std::to_string(s.first_epoch) + "-" +
                    std::to_string(s.last_epoch) + ":" +
                    std::to_string(s.closed_at);
    for (const auto& r : s.records) {
      b += "\n" + ToWireFormat(r);
    }
    blocks.push_back(std::move(b));
  }
  std::sort(blocks.begin(), blocks.end());
  std::string out;
  for (const auto& b : blocks) {
    out += b + "\n---\n";
  }
  return out;
}

std::string RunPipeline(const std::vector<std::string>& lines, size_t workers,
                        size_t flush_every = 64) {
  Collected collected;
  LivePipelineOptions options;
  options.workers = workers;
  options.inactivity_ns = 2 * kSec;
  LivePipeline pipeline(options,
                        [&](Session&& s) { collected.Add(std::move(s)); });
  size_t fed = 0;
  for (const auto& l : lines) {
    pipeline.FeedLine(l);
    if (++fed % flush_every == 0) {
      pipeline.Flush();
    }
  }
  pipeline.Finish();
  EXPECT_EQ(pipeline.records(), lines.size());
  EXPECT_EQ(pipeline.parse_failures(), 0u);
  EXPECT_EQ(pipeline.sessions_closed(), collected.sessions.size());
  return Canonical(collected.sessions);
}

TEST(LivePipelineTest, ByteIdenticalAcrossWorkerCounts) {
  const auto lines = MakeLines(/*sessions=*/37, /*rounds=*/5);
  const std::string one = RunPipeline(lines, 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, RunPipeline(lines, 2));
  EXPECT_EQ(one, RunPipeline(lines, 4));
  // Flush cadence must not change the output either.
  EXPECT_EQ(one, RunPipeline(lines, 4, /*flush_every=*/7));
}

TEST(LivePipelineTest, BlankLinesAreSkippedNotFailures) {
  Collected collected;
  LivePipelineOptions options;
  options.workers = 2;
  LivePipeline pipeline(options,
                        [&](Session&& s) { collected.Add(std::move(s)); });
  pipeline.FeedLine(ToWireFormat(Rec("S", kSec)));
  pipeline.FeedLine("");            // Blank.
  pipeline.FeedLine("\r\n");        // Blank after stripping.
  pipeline.FeedLine("not|a|record");  // Malformed: a real parse failure.
  pipeline.FeedLine("corrupt");       // No separators at all.
  pipeline.Finish();
  EXPECT_EQ(pipeline.records(), 1u);
  EXPECT_EQ(pipeline.blank_lines(), 2u);
  EXPECT_EQ(pipeline.parse_failures(), 2u);
  EXPECT_EQ(collected.sessions.size(), 1u);
}

TEST(LivePipelineTest, FragmentRenumberingAcrossShards) {
  const auto lines = MakeLines(/*sessions=*/23, /*rounds=*/5);
  Collected collected;
  LivePipelineOptions options;
  options.workers = 4;
  options.inactivity_ns = 2 * kSec;
  LivePipeline pipeline(options,
                        [&](Session&& s) { collected.Add(std::move(s)); });
  for (const auto& l : lines) {
    pipeline.FeedLine(l);
  }
  pipeline.Finish();

  // Every session split at the round-3 idle gap: each id must have fragments
  // numbered 0..k-1 exactly once, even though different ids live on
  // different shards.
  std::unordered_map<std::string, std::vector<uint32_t>> fragments;
  for (const auto& s : collected.sessions) {
    fragments[s.id].push_back(s.fragment_index);
  }
  EXPECT_EQ(fragments.size(), 23u);
  for (auto& [id, indices] : fragments) {
    std::sort(indices.begin(), indices.end());
    ASSERT_EQ(indices.size(), 2u) << id;
    EXPECT_EQ(indices[0], 0u) << id;
    EXPECT_EQ(indices[1], 1u) << id;
  }
}

TEST(LivePipelineTest, BackpressureStallsIngestAndDeliversEverything) {
  std::atomic<size_t> delivered{0};
  LivePipelineOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.max_batch_records = 1;
  options.inactivity_ns = kSec;
  LivePipeline pipeline(options, [&](Session&& s) {
    (void)s;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    delivered.fetch_add(1);
  });
  const size_t n = 256;
  for (size_t i = 0; i < n; ++i) {
    // Distinct sessions far apart in time: every record closes the previous
    // session, so the slow sink throttles the whole shard.
    pipeline.FeedLine(
        ToWireFormat(Rec("S" + std::to_string(i),
                         static_cast<EventTime>(i) * 10 * kSec)));
  }
  pipeline.Finish();
  EXPECT_EQ(pipeline.records(), n);
  EXPECT_EQ(delivered.load(), n);
  EXPECT_GT(pipeline.backpressure_stalls(), 0u);
}

TEST(LivePipelineTest, MergedWatermarkIsMinAcrossShards) {
  LivePipelineOptions options;
  options.workers = 4;
  LivePipeline pipeline(options, [](Session&&) {});
  EXPECT_EQ(pipeline.watermark(), 0);  // Nothing processed anywhere yet.
  pipeline.FeedLine(ToWireFormat(Rec("A", 7 * kSec)));
  pipeline.FeedLine(ToWireFormat(Rec("B", 9 * kSec)));
  EXPECT_EQ(pipeline.ingest_watermark(), 9 * kSec);
  pipeline.Finish();
  // Finish broadcasts the final watermark to every shard, so the merged
  // (min-across-shards) watermark converges to the ingest watermark.
  EXPECT_EQ(pipeline.watermark(), 9 * kSec);
}

TEST(LivePipelineTest, MetricsRegistrationExposesShardGauges) {
  MetricsRegistry registry;
  LivePipelineOptions options;
  options.workers = 2;
  LivePipeline pipeline(options, [](Session&&) {});
  pipeline.RegisterMetrics(&registry, "live_");
  pipeline.FeedLine(ToWireFormat(Rec("A", kSec)));
  pipeline.Finish();

  bool saw_records = false, saw_shard1_queue = false, saw_stalls = false;
  int64_t live_records = -1;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == "live_records") {
      saw_records = true;
      live_records = value;
    }
    if (name == "live_shard1_queue_depth") {
      saw_shard1_queue = true;
    }
    if (name == "live_backpressure_stalls") {
      saw_stalls = true;
    }
  }
  EXPECT_TRUE(saw_records);
  EXPECT_TRUE(saw_shard1_queue);
  EXPECT_TRUE(saw_stalls);
  EXPECT_EQ(live_records, 1);
}

// Multi-worker ingest stress: 4 shard workers drain a fast producer while a
// reader thread hammers every cross-thread accessor. Run under TSan in CI
// (the tsan lane's -R filter matches "Stress").
TEST(LivePipelineTest, StressConcurrentIngestAndMetricsReads) {
  const auto lines = MakeLines(/*sessions=*/101, /*rounds=*/40);
  std::atomic<uint64_t> delivered{0};
  MetricsRegistry registry;
  LivePipelineOptions options;
  options.workers = 4;
  options.inactivity_ns = 2 * kSec;
  options.queue_capacity = 8;
  options.max_batch_records = 64;
  LivePipeline pipeline(options, [&](Session&& s) {
    delivered.fetch_add(1 + s.records.size(), std::memory_order_relaxed);
  });
  pipeline.RegisterMetrics(&registry);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Snapshot();
      (void)pipeline.watermark();
      (void)pipeline.open_sessions();
      for (size_t i = 0; i < pipeline.workers(); ++i) {
        (void)pipeline.shard(i);
      }
    }
  });

  size_t fed = 0;
  for (const auto& l : lines) {
    pipeline.FeedLine(l);
    if (++fed % 97 == 0) {
      pipeline.Flush();
    }
  }
  pipeline.Finish();
  stop.store(true);
  reader.join();

  EXPECT_EQ(pipeline.records(), lines.size());
  EXPECT_EQ(pipeline.parse_failures(), 0u);
  EXPECT_GT(delivered.load(), 0u);
  // Conservation: every fed record ends up in exactly one closed session.
  uint64_t records_in_sessions = 0;
  for (size_t i = 0; i < pipeline.workers(); ++i) {
    records_in_sessions += pipeline.shard(i).records;
  }
  EXPECT_EQ(records_in_sessions, lines.size());
}

TEST(LivePipelineTest, OldestOpenShedBoundsStateAndReconcilesExactly) {
  // Sessions never close on their own (huge inactivity window), so each
  // shard's open bytes grow until the worker sheds oldest-open fragments
  // down to the budget. Every record must still be accounted for.
  std::atomic<uint64_t> sunk{0};
  LivePipelineOptions options;
  options.workers = 2;
  options.inactivity_ns = 3600 * kSec;
  options.max_batch_records = 32;
  options.shed_policy = ShedPolicy::kOldestOpen;
  options.shed_open_bytes = 16 << 10;  // Tiny per-shard budget.
  LivePipeline pipeline(options, [&](Session&& s) {
    sunk.fetch_add(s.records.size(), std::memory_order_relaxed);
  });
  const size_t kLines = 5000;
  for (size_t i = 0; i < kLines; ++i) {
    pipeline.FeedLine(ToWireFormat(
        Rec("S" + std::to_string(i % 200),
            static_cast<EventTime>(1 + i) * kNanosPerMilli)));
    if (i % 64 == 0) {
      pipeline.Flush();
    }
  }
  pipeline.Finish();
  EXPECT_GT(pipeline.shed_records(), 0u);
  EXPECT_EQ(pipeline.open_records(), 0u);  // Finish flushed or shed them all.
  // records_in == stored + shed, at both granularities.
  EXPECT_EQ(kLines, pipeline.records() + pipeline.shed_lines());
  EXPECT_EQ(pipeline.records(),
            pipeline.records_emitted() + pipeline.shed_records());
  EXPECT_EQ(sunk.load(), pipeline.records_emitted());
}

TEST(LivePipelineTest, HeadDropShedsLinesWithBoundedStall) {
  // A deliberately slow sink with a one-batch queue: with the shed policy on,
  // a blocked push waits at most shed_stall_limit_ms and then drops the
  // oldest queued batch, so ingest stays near wire speed while every dropped
  // line is counted in shed_lines.
  std::atomic<uint64_t> sunk{0};
  LivePipelineOptions options;
  options.workers = 1;
  options.inactivity_ns = kNanosPerMilli;  // Fragments close constantly.
  options.queue_capacity = 1;
  options.max_batch_records = 8;
  options.shed_policy = ShedPolicy::kOldestOpen;
  options.shed_stall_limit_ms = 1;
  LivePipeline pipeline(options, [&](Session&& s) {
    sunk.fetch_add(s.records.size(), std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  const auto start = std::chrono::steady_clock::now();
  const size_t kLines = 1200;
  for (size_t i = 0; i < kLines; ++i) {
    pipeline.FeedLine(ToWireFormat(
        Rec("S" + std::to_string(i % 8),
            static_cast<EventTime>(1 + i) * 10 * kNanosPerMilli)));
  }
  pipeline.Finish();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GT(pipeline.shed_lines(), 0u);
  EXPECT_GT(pipeline.backpressure_stall_ns(), 0);
  // Head-dropped lines never reach a worker: they appear in shed_lines and
  // nowhere else, and the two-level identity still reconciles exactly.
  EXPECT_EQ(kLines, pipeline.records() + pipeline.shed_lines());
  EXPECT_EQ(pipeline.records(),
            pipeline.records_emitted() + pipeline.shed_records());
  EXPECT_EQ(sunk.load(), pipeline.records_emitted());
  // Bounded producer window: without shedding this workload would stall the
  // feeder behind ~minutes of sink sleeps.
  EXPECT_LT(elapsed, std::chrono::seconds(60));
}

TEST(LivePipelineTest, ShedMetricsRegisteredAndZeroWhenOff) {
  MetricsRegistry registry;
  LivePipelineOptions options;
  options.workers = 2;
  LivePipeline pipeline(options, [](Session&&) {});
  pipeline.RegisterMetrics(&registry);
  pipeline.FeedLine(ToWireFormat(Rec("S", kSec)));
  pipeline.Finish();
  const auto snapshot = registry.Snapshot();
  const auto get = [&](const std::string& name) -> int64_t {
    for (const auto& [k, v] : snapshot) {
      if (k == name) {
        return v;
      }
    }
    ADD_FAILURE() << "gauge missing: " << name;
    return -1;
  };
  EXPECT_EQ(get("live_shed_records"), 0);
  EXPECT_EQ(get("live_shed_lines"), 0);
  EXPECT_EQ(get("live_shed_fragments"), 0);
  EXPECT_EQ(get("live_backpressure_stall_us"), 0);
  EXPECT_EQ(get("live_records_emitted"), 1);
  EXPECT_EQ(get("live_open_records"), 0);
}

// --- Kernel parity: the pipeline against one closer, no pipeline at all ---

// A seeded ts_workload trace in a mildly shuffled arrival order, with blank
// lines and malformed lines mixed in. Some malformed lines still carry a
// readable time field, one kind of them 300 ms past the record before it.
std::vector<std::string> MakeDirtyTrace() {
  GeneratorConfig config;
  config.seed = 23;
  config.duration_ns = 8 * kSec;
  config.target_records_per_sec = 3'000;
  TraceGenerator generator(config);
  std::vector<std::string> valid;
  Epoch epoch = 0;
  std::vector<LogRecord> records;
  while (generator.NextEpoch(&epoch, &records)) {
    for (const auto& r : records) {
      valid.push_back(ToWireFormat(r));
    }
  }
  Rng rng(23);
  for (size_t i = 0; i + 8 < valid.size(); ++i) {
    std::swap(valid[i], valid[i + rng.NextBelow(8)]);
  }
  std::vector<std::string> lines;
  for (size_t i = 0; i < valid.size(); ++i) {
    lines.push_back(valid[i]);
    if (i % 97 != 0) {
      continue;
    }
    const size_t time_end = valid[i].find('|');
    const EventTime time = std::stoll(valid[i].substr(0, time_end));
    switch ((i / 97) % 6) {
      case 0:
        lines.push_back("");
        break;
      case 1:
        lines.push_back("\r");
        break;
      case 2:  // No separators.
        lines.push_back("corrupt");
        break;
      case 3:  // Bad time field.
        lines.push_back("x|S|1|svc-1|h-1|ANNOT|p");
        break;
      case 4:  // Cut after the session id: the time field still reads.
        lines.push_back(
            valid[i].substr(0, valid[i].find('|', time_end + 1) + 1));
        break;
      case 5:  // A readable time 300 ms past this record's, bad txn id.
        lines.push_back(std::to_string(time + 300 * kNanosPerMilli) +
                        "|late|not-a-txn|svc-1|h-1|ANNOT|p");
        break;
    }
  }
  return lines;
}

// The determinism contract as code: each line through ParseWireFormat into
// one LiveCloser, in arrival order, under the prefix-max event-time
// watermark. The pipeline tags that watermark from a line's time field
// before anything parses it, so a line whose time field reads raises it
// even when the rest of the line fails to parse; the reference does the
// same. Returns the closed sessions in Canonical form.
std::string KernelReference(const std::vector<std::string>& lines,
                            EventTime inactivity_ns) {
  LiveCloser closer(inactivity_ns);
  std::vector<Session> closed;
  EventTime watermark = LiveCloser::kNoWatermark;
  for (const auto& line : lines) {
    auto record = ParseWireFormat(line);
    EventTime time = 0;
    std::string_view id;
    if (record.has_value()) {
      time = record->time;
    } else if (!ExtractRouteKey(ScanRecord(line), &time, &id)) {
      continue;
    }
    watermark = std::max(watermark, time);
    closer.ObserveWatermark(watermark);
    if (record.has_value()) {
      closer.Feed(std::move(*record), &closed);
    }
  }
  closer.FlushAll(&closed);
  return Canonical(closed);
}

enum class FeedPath { kBlock, kLine };

// Feeds `lines` through one feed path, flushing every kPerPoll lines like
// the tool's poll loop, and returns the closed sessions like KernelReference.
std::string RunFeedPath(const std::vector<std::string>& lines, size_t workers,
                        EventTime inactivity_ns, FeedPath path) {
  constexpr size_t kPerPoll = 512;
  Collected collected;
  LivePipelineOptions options;
  options.workers = workers;
  options.inactivity_ns = inactivity_ns;
  LivePipeline pipeline(options,
                        [&](Session&& s) { collected.Add(std::move(s)); });
  for (size_t begin = 0; begin < lines.size(); begin += kPerPoll) {
    const size_t end = std::min(lines.size(), begin + kPerPoll);
    if (path == FeedPath::kBlock) {
      LineBlock block;  // A fresh arena per block, as a socket poll hands off.
      block.arena = std::make_shared<Arena>();
      for (size_t i = begin; i < end; ++i) {
        block.lines.push_back(block.arena->Copy(lines[i]));
      }
      pipeline.FeedBlock(std::move(block));
    } else {
      for (size_t i = begin; i < end; ++i) {
        pipeline.FeedLine(lines[i]);
      }
    }
    pipeline.Flush();
  }
  pipeline.Finish();
  EXPECT_EQ(pipeline.records() + pipeline.parse_failures() +
                pipeline.blank_lines(),
            lines.size());
  EXPECT_EQ(pipeline.sessions_closed(), collected.sessions.size());
  return Canonical(collected.sessions);
}

void ExpectKernelParity(EventTime inactivity_ns) {
  const auto lines = MakeDirtyTrace();
  const std::string reference = KernelReference(lines, inactivity_ns);
  size_t sessions = 0;
  for (size_t at = reference.find("\n---\n"); at != std::string::npos;
       at = reference.find("\n---\n", at + 1)) {
    ++sessions;
  }
  ASSERT_GT(sessions, 100u);
  for (FeedPath path : {FeedPath::kBlock, FeedPath::kLine}) {
    for (size_t workers : {1, 2, 4}) {
      SCOPED_TRACE(std::string(path == FeedPath::kBlock ? "FeedBlock"
                                                        : "FeedLine") +
                   " at " + std::to_string(workers) + " workers");
      EXPECT_EQ(RunFeedPath(lines, workers, inactivity_ns, path), reference);
    }
  }
}

TEST(LivePipelineKernelParity, OneSecondWindowMatchesOneCloserOnEveryFeedPath) {
  ExpectKernelParity(kSec);
}

TEST(LivePipelineKernelParity, NoIdleSplitMatchesOneCloserOnEveryFeedPath) {
  ExpectKernelParity(LiveCloser::kNoIdleSplit);
}

// ShardOf is the routing of every feed path: each record lands on the shard
// ShardOf names for its session id.
TEST(LivePipelineRetire, ShardOfIsTheRoutingOfEveryFeedPath) {
  LivePipelineOptions options;
  options.workers = 3;
  LivePipeline pipeline(options, [](Session&&) {});
  std::vector<uint64_t> expected(options.workers);
  for (int i = 0; i < 60; ++i) {
    const std::string id = "ID" + std::to_string(i);
    ++expected[pipeline.ShardOf(id)];
    const std::string line = ToWireFormat(Rec(id, kSec + i));
    if (i % 2 == 0) {
      LineBlock block;
      block.arena = std::make_shared<Arena>();
      block.lines.push_back(block.arena->Copy(line));
      pipeline.FeedBlock(std::move(block));
    } else {
      pipeline.FeedLine(line);
    }
  }
  pipeline.Finish();
  for (size_t k = 0; k < options.workers; ++k) {
    EXPECT_EQ(pipeline.shard(k).records, expected[k]) << "shard " << k;
  }
}

TEST(LivePipelineRetire, QueuedSessionsAreFreedByTheirOwnerAtFinish) {
  MetricsRegistry registry;
  LivePipelineOptions options;
  options.workers = 3;
  LivePipeline pipeline(options, [](Session&&) {});
  pipeline.RegisterMetrics(&registry, "live_");
  const auto gauge = [&registry](const std::string& name) {
    for (const auto& [gauge, value] : registry.Snapshot()) {
      if (gauge == name) {
        return value;
      }
    }
    return int64_t{-1};
  };
  std::vector<uint64_t> owned(options.workers);
  for (int i = 0; i < 100; ++i) {
    Session s;
    s.id = "R" + std::to_string(i);
    s.records.push_back(Rec(s.id, kSec));
    ++owned[pipeline.ShardOf(s.id)];
    pipeline.Retire(std::move(s));
  }
  // No batch has run, so no worker has drained: all of it is still queued.
  EXPECT_EQ(pipeline.retire_pending(), 100u);
  EXPECT_EQ(gauge("live_retire_pending"), 100);
  EXPECT_EQ(gauge("live_retired_sessions"), 0);

  pipeline.Finish();
  EXPECT_EQ(gauge("live_retire_pending"), 0);
  EXPECT_EQ(gauge("live_retired_sessions"), 100);
  for (size_t k = 0; k < options.workers; ++k) {
    // Each worker freed exactly the sessions it owns.
    EXPECT_EQ(pipeline.shard(k).retired_sessions, owned[k]) << "shard " << k;
  }

  // After Finish nothing can drain the queue: the caller keeps the session.
  Session late;
  late.id = "late";
  late.records.push_back(Rec(late.id, kSec));
  pipeline.Retire(std::move(late));
  EXPECT_EQ(late.records.size(), 1u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(pipeline.retired_sessions(), 100u);
  EXPECT_EQ(pipeline.retire_pending(), 0u);
}

}  // namespace
}  // namespace ts
