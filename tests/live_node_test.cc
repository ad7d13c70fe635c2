// LiveNode's lifecycle wiring, end to end over loopback TCP: the restore
// decisions, the gauges that continue across a restart, the replay-window
// dedupe guard and the final checkpoint's retry loop — the paths that
// ts_sessionize --connect --serve runs and that the shell smokes used to be
// the only check of.
#include <cerrno>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/report_accumulator.h"
#include "src/ckpt/checkpointer.h"
#include "src/common/siphash.h"
#include "src/node/live_node.h"
#include "src/offline/offline_sessionizer.h"
#include "src/query/query_client.h"
#include "tests/canonical_session.h"
#include "tests/live_node_test_util.h"

namespace ts {
namespace {

// Collects what a node writes to its log.
class CapturedLog {
 public:
  CapturedLog() : file_(open_memstream(&buf_, &len_)) {}
  ~CapturedLog() {
    std::fclose(file_);
    std::free(buf_);
  }
  CapturedLog(const CapturedLog&) = delete;
  CapturedLog& operator=(const CapturedLog&) = delete;
  std::FILE* file() const { return file_; }
  std::string text() {
    std::fflush(file_);
    return std::string(buf_, len_);
  }

 private:
  char* buf_ = nullptr;
  size_t len_ = 0;
  std::FILE* file_;
};

std::string TempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + tag + "_" +
                          std::to_string(::getpid());
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  return dir;
}

// What a run leaves behind: the close-callback digest and the store's.
struct NodeRun {
  uint64_t session_digest = 0;  // XOR over every session the callback saw.
  uint64_t sessions = 0;
  uint64_t store_digest = 0;
  uint64_t ingest_records = 0;
  uint64_t ingest_parse_failures = 0;
  uint64_t replayed_duplicates = 0;
};

// Runs one node incarnation over archive[0, end) to end of stream and shuts
// it down. `ckpt_dir` empty: no checkpointing.
NodeRun RunNode(const std::vector<std::string>& archive, uint64_t end,
                const std::string& ckpt_dir) {
  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/2);
  // Well inside the 1-2 s traces, so sessions close while the stream flows.
  options.pipeline.inactivity_ns = 200 * kNanosPerMilli;
  if (!ckpt_dir.empty()) {
    options.checkpoint.emplace();
    options.checkpoint->dir = ckpt_dir;
    options.checkpoint->interval_ms = 0;
  }
  CloseDigest closes;
  LiveNode node(
      std::move(options),
      [&closes](const Session& s, size_t) { closes.Add(s); },
      /*log=*/nullptr);
  EXPECT_TRUE(node.Start());
  upstream.Serve(archive, end);
  node.Run();
  EXPECT_FALSE(node.transport_failed());
  node.Shutdown();
  NodeRun run;
  run.session_digest = closes.xor_digest;
  run.sessions = closes.sessions;
  run.store_digest = ChainedStoreDigest(*node.store(), closes.ids);
  run.ingest_records = node.ingest_records();
  run.ingest_parse_failures = node.ingest_parse_failures();
  run.replayed_duplicates = node.replayed_duplicates();
  return run;
}

CheckpointState LatestSnapshot(const std::string& dir) {
  CheckpointerOptions options;
  options.dir = dir;
  Checkpointer ckpt(options);
  CheckpointState state;
  EXPECT_TRUE(ckpt.RestoreLatest(&state).restored) << dir;
  return state;
}

TEST(LiveNodeRestore, CheckpointForAnotherStreamStartsCold) {
  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/1);
  const std::string dir = TempDir("ts_node_stream");
  // A checkpoint of stream 0, taken halfway through it.
  RunNode(*archive, archive->size() / 2, dir);
  ASSERT_GT(LatestSnapshot(dir).resume_offset, 0u);

  // Stream 1 of 2 on the same directory must not resume from stream 0's
  // offset or carry its sessions.
  LogServerOptions server_options;
  server_options.num_streams = 2;
  PrefixUpstream upstream(server_options);
  LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/2);
  options.ingest->stream = 1;
  options.ingest->num_streams = 2;
  options.checkpoint.emplace();
  options.checkpoint->dir = dir;
  CapturedLog log;
  LiveNode node(std::move(options), nullptr, log.file());
  ASSERT_TRUE(node.Start());
  EXPECT_NE(log.text().find("is for stream 0, not 1; starting cold"),
            std::string::npos)
      << log.text();
  EXPECT_EQ(node.records_received(), 0u);
  EXPECT_EQ(node.store()->stats().sessions, 0u);
  EXPECT_EQ(node.ingest_records(), 0u);

  upstream.Serve(*archive, archive->size());
  node.Run();
  node.Shutdown();
  // Stream 1 is every odd archive record, all of them consumed from 0.
  EXPECT_EQ(node.ingest_records(), archive->size() / 2);
  EXPECT_EQ(LatestSnapshot(dir).stream, 1u);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(LiveNodeRestore, IngestCountersContinueFromRestoredBase) {
  // Every 100th line is garbage: parse failures to carry across a restart.
  const auto generated = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/1);
  std::vector<std::string> archive;
  uint64_t garbage = 0;
  for (size_t i = 0; i < generated->size(); ++i) {
    if (i % 100 == 0) {
      archive.push_back("not a wire record " + std::to_string(i));
      ++garbage;
    }
    archive.push_back((*generated)[i]);
  }
  const uint64_t cut = archive.size() / 2;
  const std::string dir = TempDir("ts_node_counters");
  const NodeRun first = RunNode(archive, cut, dir);
  ASSERT_GT(first.ingest_parse_failures, 0u);
  ASSERT_EQ(first.ingest_records + first.ingest_parse_failures, cut);

  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/3);
  options.checkpoint.emplace();
  options.checkpoint->dir = dir;
  LiveNode node(std::move(options), nullptr, /*log=*/nullptr);
  ASSERT_TRUE(node.Start());
  // Before a single new record: the gauges already read the restored base.
  EXPECT_EQ(node.records_received(), cut);
  EXPECT_EQ(Gauge(node, "ingest_records"),
            static_cast<int64_t>(first.ingest_records));
  EXPECT_EQ(Gauge(node, "ingest_parse_failures"),
            static_cast<int64_t>(first.ingest_parse_failures));

  upstream.Serve(archive, archive.size());
  node.Run();
  node.Shutdown();
  EXPECT_EQ(Gauge(node, "ingest_records"),
            static_cast<int64_t>(generated->size()));
  EXPECT_EQ(Gauge(node, "ingest_parse_failures"),
            static_cast<int64_t>(garbage));
  EXPECT_EQ(node.ingest_records(), generated->size());
  EXPECT_EQ(node.ingest_parse_failures(), garbage);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(LiveNodeRestore, StaleResumeOffsetIsCaughtByTheDedupeGuard) {
  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2);
  const uint64_t total = archive->size();
  const NodeRun baseline = RunNode(*archive, total, "");
  ASSERT_GT(baseline.sessions, 0u);

  // Snapshot `early` at the halfway offset, then `late` at end of stream.
  const std::string dir = TempDir("ts_node_stale");
  RunNode(*archive, total / 2, dir);
  const CheckpointState early = LatestSnapshot(dir);
  RunNode(*archive, total, dir);
  const CheckpointState late = LatestSnapshot(dir);
  ASSERT_EQ(early.resume_offset, total / 2);
  ASSERT_GT(late.store_sessions.size(), early.store_sessions.size());

  // A snapshot whose resume offset is stale: the store already holds every
  // session the stream closes up to its end, but ingest resumes halfway.
  CheckpointState stale = early;
  stale.store_sessions = late.store_sessions;
  stale.store_inserted = late.store_inserted;
  stale.store_evicted = late.store_evicted;
  const std::string stale_dir = TempDir("ts_node_stale_ckpt");
  {
    CheckpointerOptions options;
    options.dir = stale_dir;
    Checkpointer ckpt(options);
    ASSERT_TRUE(ckpt.Write(stale));
  }

  // Replaying the second half re-derives every session closed there; each
  // is already stored, so each is counted and dropped, never merged.
  const NodeRun replayed = RunNode(*archive, total, stale_dir);
  EXPECT_EQ(replayed.replayed_duplicates,
            late.store_sessions.size() - early.store_sessions.size());
  EXPECT_EQ(replayed.sessions, baseline.sessions);
  EXPECT_EQ(replayed.session_digest, baseline.session_digest);
  EXPECT_EQ(replayed.store_digest, baseline.store_digest);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "' '" + stale_dir + "'").c_str()),
            0);
}

std::map<std::string, int64_t> StatsOf(const LiveNode& node) {
  QueryClientOptions client_options;
  client_options.port = node.query_port();
  QueryClient client(client_options);
  EXPECT_TRUE(client.Connect());
  const QueryResponse response = client.Stats();
  EXPECT_TRUE(response.ok);
  return {response.stats.begin(), response.stats.end()};
}

// A snapshot restored over cold segments that already hold some of its
// sessions (they were evicted and flushed after the snapshot was taken)
// leaves those sessions in both tiers: STATS counts them as store_cold_twins,
// and TOPK counts each once. The gauge falls back to 0 once the stream has
// pushed them out of the hot window again.
TEST(LiveNodeRestore, ColdTwinsOfARestoredSnapshotAreCountedUntilEvicted) {
  const std::string dir = TempDir("ts_node_twins");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  constexpr int kRestored = 24;
  constexpr int kTwins = 16;  // The first 16 are in the cold segments too.
  CheckpointState state;
  for (int i = 0; i < kRestored; ++i) {
    Session s;
    s.id = "RESTORED-" + std::to_string(i);
    for (int j = 0; j < 3; ++j) {
      LogRecord r;
      r.time = static_cast<EventTime>(i) * kNanosPerMilli + j;
      r.session_id = s.id;
      r.txn_id = *TxnId::Parse("1-" + std::to_string(j + 1));
      r.service = 900 + static_cast<uint32_t>(j);
      r.host = 1;
      r.kind = EventKind::kAnnotation;
      r.payload = "p";
      s.records.push_back(std::move(r));
    }
    state.store_sessions.push_back(std::move(s));
  }
  state.store_inserted = kRestored;
  {
    ColdTierOptions cold_options;
    cold_options.dir = dir + "/cold";
    ColdTier cold(cold_options);
    ASSERT_TRUE(cold.Start());
    for (int i = 0; i < kTwins; ++i) {
      cold.Append(Session(state.store_sessions[i]));
    }
    ASSERT_TRUE(cold.FlushPending());
    CheckpointerOptions ckpt_options;
    ckpt_options.dir = dir + "/ckpt";
    Checkpointer ckpt(ckpt_options);
    ASSERT_TRUE(ckpt.Write(state));
  }

  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/1);
  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/2);
  options.store.max_bytes = 64u << 10;
  options.checkpoint.emplace();
  options.checkpoint->dir = dir + "/ckpt";
  options.cold.emplace();
  options.cold->dir = dir + "/cold";
  LiveNode node(std::move(options), nullptr, /*log=*/nullptr);
  ASSERT_TRUE(node.Start());
  ASSERT_EQ(node.store()->stats().sessions, static_cast<size_t>(kRestored));
  std::map<std::string, int64_t> stat = StatsOf(node);
  EXPECT_EQ(stat["store_cold_twins"], kTwins);
  QueryClientOptions client_options;
  client_options.port = node.query_port();
  QueryClient client(client_options);
  ASSERT_TRUE(client.Connect());
  QueryResponse top;
  ASSERT_TRUE(client.Execute("TOPK 3", &top));
  const std::vector<std::pair<uint32_t, uint64_t>> each_once = {
      {900, kRestored}, {901, kRestored}, {902, kRestored}};
  EXPECT_EQ(top.top, each_once);

  upstream.Serve(*archive, archive->size());
  node.Run();
  node.Shutdown();
  for (int i = 0; i < kRestored; ++i) {
    ASSERT_FALSE(node.store()->Contains("RESTORED-" + std::to_string(i), 0))
        << "the stream did not push the restored sessions out";
  }
  stat = StatsOf(node);
  EXPECT_EQ(stat["store_cold_twins"], 0);
  ASSERT_TRUE(client.Execute("TOPK 3", &top));
  EXPECT_EQ(top.top, each_once);  // Now all cold, still each once.
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// Restore arms the closer's expiry index: a fragment open at the checkpoint
// that gets no record after the restart closes on a watermark-only tick,
// while the stream is still live — not at Shutdown's end-of-stream flush.
TEST(LiveNodeRestore, RestoredFragmentClosesOnAWatermarkOnlyTick) {
  constexpr size_t kWorkers = 2;
  constexpr EventTime kMs = kNanosPerMilli;
  const std::string restored = "RESTORED";
  // Every record after the restart goes to the other shard, so the restored
  // fragment's shard sees only the watermark ticks Flush() sends it.
  std::vector<std::string> others;
  for (int i = 0; others.size() < 8; ++i) {
    std::string id = "other" + std::to_string(i);
    if (SipHash24(id) % kWorkers != SipHash24(restored) % kWorkers) {
      others.push_back(std::move(id));
    }
  }
  const auto line = [](const std::string& id, EventTime t) {
    LogRecord r;
    r.time = t;
    r.session_id = id;
    r.txn_id = *TxnId::Parse("1");
    r.service = 1;
    r.host = 1;
    r.kind = EventKind::kAnnotation;
    r.payload = "p";
    return ToWireFormat(r);
  };
  std::vector<std::string> archive = {line(restored, 1000 * kMs),
                                      line(others[0], 1001 * kMs)};
  const uint64_t cut = archive.size();
  for (int i = 1; i <= 20; ++i) {  // 50 ms apart: past the 200 ms window.
    archive.push_back(line(others[i % others.size()], (1000 + 50 * i) * kMs));
  }

  const std::string dir = TempDir("ts_node_restored_expiry");
  RunNode(archive, cut, dir);
  const CheckpointState snapshot = LatestSnapshot(dir);
  ASSERT_EQ(snapshot.resume_offset, cut);
  bool restored_open = false;
  for (const auto& fragment : snapshot.closers.open) {
    restored_open |= fragment.id == restored;
  }
  ASSERT_TRUE(restored_open);

  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), kWorkers);
  options.pipeline.inactivity_ns = 200 * kMs;
  options.checkpoint.emplace();
  options.checkpoint->dir = dir;
  options.checkpoint->interval_ms = 0;
  std::mutex mu;
  std::vector<Session> closes;
  LiveNode node(
      std::move(options),
      [&](const Session& s, size_t) {
        std::lock_guard<std::mutex> lock(mu);
        closes.push_back(s);
      },
      /*log=*/nullptr);
  ASSERT_TRUE(node.Start());
  ASSERT_EQ(node.records_received(), cut);
  upstream.Serve(archive, archive.size());
  node.Run();
  const auto closed_restored = [&]() -> std::optional<Session> {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& s : closes) {
      if (s.id == restored) {
        return s;
      }
    }
    return std::nullopt;
  };
  for (int i = 0; i < 500 && !closed_restored(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::optional<Session> s = closed_restored();
  ASSERT_TRUE(s.has_value()) << "restored fragment still open before Shutdown";
  EXPECT_EQ(s->fragment_index, 0u);
  ASSERT_EQ(s->records.size(), 1u);
  EXPECT_EQ(s->records[0].time, 1000 * kMs);
  node.Shutdown();
  // STATS serves the expiry index: empty after the final flush, and visited
  // at least for the restored fragment.
  EXPECT_EQ(Gauge(node, "live_expiry_candidates"), 0);
  EXPECT_GE(Gauge(node, "live_expiry_visited"), 1);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// Runs a checkpointing node to end of stream, then shuts it down while the
// disk fails the next `failing_renames` renames. Returns the node's log.
std::string ShutdownUnderRenameFaults(const std::string& dir,
                                      uint64_t failing_renames,
                                      int64_t* snapshot_failures) {
  const auto archive = MakeArchive(/*records_per_sec=*/1'000, /*seconds=*/1);
  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/2);
  options.checkpoint.emplace();
  options.checkpoint->dir = dir;
  options.checkpoint->interval_ms = 0;  // The final snapshot is the only one.
  CapturedLog log;
  FaultPlan plan;
  plan.events.push_back({FaultType::kRenameFail, 0, failing_renames});
  ScriptedDiskInjector disk(std::move(plan));
  {
    LiveNode node(std::move(options), nullptr, log.file());
    EXPECT_TRUE(node.Start());
    upstream.Serve(*archive, archive->size());
    node.Run();
    InstallFsFaultInjector(&disk);
    node.Shutdown();
    InstallFsFaultInjector(nullptr);
    *snapshot_failures = Gauge(node, "ckpt_snapshot_failures");
  }
  return log.text();
}

TEST(LiveNodeFinalCheckpoint, RetriedThroughAFiniteDiskFaultWindowAndLands) {
  const std::string dir = TempDir("ts_node_final_ok");
  int64_t failures = 0;
  const std::string log = ShutdownUnderRenameFaults(dir, 2, &failures);
  EXPECT_EQ(failures, 2);
  EXPECT_NE(log.find("final checkpoint at offset"), std::string::npos) << log;
  EXPECT_EQ(log.find("FAILED"), std::string::npos) << log;
  EXPECT_GT(LatestSnapshot(dir).resume_offset, 0u);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(LiveNodeFinalCheckpoint, OneThatOutlastsTheRetriesIsReportedFailed) {
  const std::string dir = TempDir("ts_node_final_failed");
  int64_t failures = 0;
  const std::string log = ShutdownUnderRenameFaults(dir, 1'000, &failures);
  EXPECT_EQ(failures, 6);  // The first write and its five retries.
  EXPECT_NE(log.find("final checkpoint FAILED (" + dir + " unwritable)"),
            std::string::npos)
      << log;
  CheckpointerOptions options;
  options.dir = dir;
  Checkpointer ckpt(options);
  CheckpointState state;
  EXPECT_FALSE(ckpt.RestoreLatest(&state).restored);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(LiveNodeFinalCheckpoint, AColdBarrierThatNeverDrainsIsReported) {
  const std::string dir = TempDir("ts_node_final_barrier");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2);
  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/2);
  options.pipeline.inactivity_ns = 200 * kNanosPerMilli;
  options.store.max_bytes = 16u << 10;  // Evicts while the stream flows.
  options.cold.emplace();
  options.cold->dir = dir + "/cold";
  // Every eviction stays queued until the final barrier, and a failing
  // spill is retried forever instead of shed.
  options.cold->segment_target_bytes = options.cold->max_pending_bytes;
  options.cold->spill_retry_limit = 0;
  options.cold->spill_backoff_ms = 1;
  options.checkpoint.emplace();
  options.checkpoint->dir = dir + "/ckpt";
  options.checkpoint->interval_ms = 0;
  CapturedLog log;
  FaultPlan plan;
  plan.events.push_back({FaultType::kEnospc, 0, 1'000'000});
  ScriptedDiskInjector disk(std::move(plan));
  {
    LiveNode node(std::move(options), nullptr, log.file());
    ASSERT_TRUE(node.Start());
    upstream.Serve(*archive, archive->size());
    node.Run();
    // Closes land on the shard workers; wait until some were evicted.
    for (int i = 0; i < 500 && node.cold()->stats().pending == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GT(node.cold()->stats().pending, 0u);
    InstallFsFaultInjector(&disk);
    node.Shutdown();
    InstallFsFaultInjector(nullptr);
  }
  const std::string text = log.text();
  EXPECT_NE(text.find("cold spill barrier did not drain before the final "
                      "checkpoint (" + dir + "/cold)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("final checkpoint FAILED"), std::string::npos) << text;
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// Fails every write under one directory; the rest of the disk is healthy.
class DirWriteFaults : public FsFaultInjector {
 public:
  explicit DirWriteFaults(std::string dir) : dir_(std::move(dir)) {}
  FsFaultAction OnOpen(const char* path, bool for_write) override {
    return for_write ? Maybe(path) : FsFaultAction{};
  }
  FsFaultAction OnWrite(const char* path, size_t) override {
    return Maybe(path);
  }

 private:
  FsFaultAction Maybe(const char* path) const {
    if (std::string_view(path).substr(0, dir_.size()) != dir_) {
      return {};
    }
    FsFaultAction action;
    action.kind = FsFaultAction::Kind::kFail;
    action.error = ENOSPC;
    return action;
  }
  const std::string dir_;
};

// The final snapshot obeys the durability rule of the periodic ones: with
// the checkpoint directory writable but the cold tier unable to make the
// preceding evictions durable, it is not published — a restore from it would
// skip replaying sessions that exist nowhere.
TEST(LiveNodeFinalCheckpoint, NotPublishedWhenOnlyTheColdBarrierFails) {
  const std::string dir = TempDir("ts_node_final_cold_only");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2);
  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/2);
  options.pipeline.inactivity_ns = 200 * kNanosPerMilli;
  options.store.max_bytes = 16u << 10;  // Evicts while the stream flows.
  options.cold.emplace();
  options.cold->dir = dir + "/cold";
  // Every eviction stays queued until the final barrier, and a failing
  // spill is retried (each 1 ms apart) instead of shed.
  options.cold->segment_target_bytes = options.cold->max_pending_bytes;
  options.cold->spill_retry_limit = 0;
  options.cold->spill_backoff_ms = 0;
  options.checkpoint.emplace();
  options.checkpoint->dir = dir + "/ckpt";
  options.checkpoint->interval_ms = 0;  // The final snapshot is the only one.
  CapturedLog log;
  DirWriteFaults disk(dir + "/cold");
  {
    LiveNode node(std::move(options), nullptr, log.file());
    ASSERT_TRUE(node.Start());
    upstream.Serve(*archive, archive->size());
    node.Run();
    for (int i = 0; i < 500 && node.cold()->stats().pending == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GT(node.cold()->stats().pending, 0u);
    InstallFsFaultInjector(&disk);
    node.Shutdown();
    InstallFsFaultInjector(nullptr);
    EXPECT_EQ(Gauge(node, "ckpt_snapshots"), 0);
    EXPECT_EQ(Gauge(node, "ckpt_snapshots_dropped"), 1);
  }
  const std::string text = log.text();
  EXPECT_NE(text.find("cold spill barrier did not drain before the final "
                      "checkpoint (" + dir + "/cold)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("final checkpoint FAILED"), std::string::npos) << text;
  EXPECT_EQ(text.find("final checkpoint at offset"), std::string::npos)
      << text;
  CheckpointerOptions ckpt_options;
  ckpt_options.dir = dir + "/ckpt";
  Checkpointer ckpt(ckpt_options);
  CheckpointState state;
  EXPECT_FALSE(ckpt.RestoreLatest(&state).restored);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// Fed by the caller (`ts_sessionize --in=F`) with no idle split, the node
// reconstructs exactly the offline job's sessions at every worker count: one
// per id, closed at Shutdown, record for record.
TEST(LiveNodeCallerFed, UnboundedWindowMatchesTheOfflineOracle) {
  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/3);
  std::vector<LogRecord> records;
  for (const auto& line : *archive) {
    records.push_back(*ParseWireFormat(line));
  }
  std::vector<std::string> expected;
  for (const auto& s : OfflineSessionizer::Sessionize(std::move(records))) {
    expected.push_back(Canonical(s));
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_GT(expected.size(), 10u);

  for (const size_t workers : {1, 4}) {
    LiveNodeOptions options;
    options.pipeline.workers = workers;
    options.pipeline.inactivity_ns = LiveCloser::kNoIdleSplit;
    std::mutex mu;
    std::vector<std::string> got;
    LiveNode node(
        std::move(options),
        [&](const Session& s, size_t) {
          std::lock_guard<std::mutex> lock(mu);
          got.push_back(Canonical(s));
        },
        /*log=*/nullptr);
    ASSERT_TRUE(node.Start());
    EXPECT_EQ(node.query_port(), 0);  // No listener without `query`.
    size_t fed = 0;
    for (const auto& line : *archive) {
      node.pipeline()->FeedLine(line);
      if (++fed % 512 == 0) {
        node.pipeline()->Flush();
      }
    }
    node.pipeline()->Flush();
    EXPECT_EQ(node.Step(), SocketIngestSource::Poll::kEndOfStream);
    node.Shutdown();
    EXPECT_EQ(node.ingest_records(), archive->size());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << workers << " worker(s)";
  }
}

// Event times come off the wire as any int64. Under a finite window, sessions
// keyed before 0 (and across it) split exactly where the offline job splits
// them: at gaps wider than the window, not at every record. The gaps are 1 ms
// or 5 s against a 1 s window, so the offline rule (split at a gap > window)
// and the live one (at a gap >= window) agree.
TEST(LiveNodeCallerFed, NegativeTimesUnderAWindowMatchTheOfflineOracle) {
  constexpr EventTime kMs = kNanosPerMilli;
  constexpr EventTime kSec = kNanosPerSecond;
  std::vector<LogRecord> records;
  for (int i = 0; i < 40; ++i) {
    // Starts from -100 s to just past 0; every third session resumes 5 s on.
    const EventTime start = -100 * kSec + static_cast<EventTime>(i) * 2600 * kMs;
    for (int burst = 0; burst < (i % 3 == 0 ? 2 : 1); ++burst) {
      for (int j = 0; j < 4; ++j) {
        LogRecord r;
        r.time = start + burst * 5 * kSec + j * kMs;
        r.session_id = "N" + std::to_string(i);
        r.txn_id = *TxnId::Parse("1-" + std::to_string(burst * 4 + j + 1));
        r.service = static_cast<uint32_t>(i % 5);
        r.host = r.service;
        r.kind = EventKind::kAnnotation;
        r.payload = "p" + std::to_string(j);
        records.push_back(std::move(r));
      }
    }
  }
  for (int j = 0; j < 4; ++j) {  // One session straddling 0, 1 ms apart.
    LogRecord r = records.front();
    r.time = (j - 2) * kMs;
    r.session_id = "Z";
    r.txn_id = *TxnId::Parse("1-" + std::to_string(j + 1));
    records.push_back(std::move(r));
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.time < b.time;
                   });
  ASSERT_LT(records.front().time, -99 * kSec);
  ASSERT_GT(records.back().time, 0);
  std::vector<std::string> lines;
  for (const auto& r : records) {
    lines.push_back(ToWireFormat(r));
  }
  OfflineOptions offline;
  offline.inactivity_split_ns = kSec;
  std::vector<std::string> expected;
  for (const auto& s : OfflineSessionizer::Sessionize(records, offline)) {
    expected.push_back(Canonical(s));
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(expected.size(), 41u + 14u);  // One split per resumed session.

  for (const size_t workers : {1, 4}) {
    LiveNodeOptions options;
    options.pipeline.workers = workers;
    options.pipeline.inactivity_ns = kSec;
    std::mutex mu;
    std::vector<std::string> got;
    LiveNode node(
        std::move(options),
        [&](const Session& s, size_t) {
          std::lock_guard<std::mutex> lock(mu);
          got.push_back(Canonical(s));
        },
        /*log=*/nullptr);
    ASSERT_TRUE(node.Start());
    size_t fed = 0;
    for (const auto& line : lines) {
      node.pipeline()->FeedLine(line);
      if (++fed % 16 == 0) {
        node.pipeline()->Flush();
      }
    }
    node.pipeline()->Flush();
    node.Shutdown();
    EXPECT_EQ(node.ingest_records(), lines.size());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << workers << " worker(s)";
  }
}

// What one shard's close callback saw. Written without a lock: the callback
// contract is that calls for one shard never overlap.
struct ShardCloses {
  std::vector<std::pair<std::string, uint32_t>> sessions;
  std::set<std::thread::id> threads;
};

// With no cold tier the store's victims go back to the shard that built
// them: every eviction is freed by the worker of ShardOf(id), and nothing is
// left queued after Shutdown.
TEST(LiveNodeRetire, EvictedSessionsAreFreedOnTheirOwnerShard) {
  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2);
  for (size_t workers : {2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    PrefixUpstream upstream;
    LiveNodeOptions options = TestNodeOptions(upstream.port(), workers);
    options.pipeline.inactivity_ns = 200 * kNanosPerMilli;
    options.store.max_bytes = 16u << 10;  // Evicts while the stream flows.
    std::vector<ShardCloses> closes(workers);
    LiveNode node(
        std::move(options),
        [&closes](const Session& s, size_t shard) {
          closes[shard].sessions.emplace_back(s.id, s.fragment_index);
          closes[shard].threads.insert(std::this_thread::get_id());
        },
        /*log=*/nullptr);
    ASSERT_TRUE(node.Start());
    upstream.Serve(*archive, archive->size());
    node.Run();
    node.Shutdown();

    const SessionStore::Stats stats = node.store()->stats();
    ASSERT_GT(stats.evicted, 0u);
    EXPECT_EQ(Gauge(node, "live_retired_sessions"),
              static_cast<int64_t>(stats.evicted));
    EXPECT_EQ(Gauge(node, "live_retire_pending"), 0);

    std::set<std::pair<std::string, uint32_t>> held;
    node.store()->ForEachSession(
        [&held](const Session& s) { held.emplace(s.id, s.fragment_index); });
    std::set<std::thread::id> all_threads;
    for (size_t k = 0; k < workers; ++k) {
      uint64_t evicted = 0;
      for (const auto& [id, fragment] : closes[k].sessions) {
        EXPECT_EQ(node.pipeline()->ShardOf(id), k) << id;
        evicted += held.count({id, fragment}) == 0 ? 1 : 0;
      }
      // The victims shard k built are exactly the ones its worker freed.
      EXPECT_EQ(node.pipeline()->shard(k).retired_sessions, evicted)
          << "shard " << k;
      // One shard, one worker thread, none shared with another shard.
      EXPECT_EQ(closes[k].threads.size(), 1u) << "shard " << k;
      all_threads.insert(closes[k].threads.begin(), closes[k].threads.end());
    }
    EXPECT_EQ(all_threads.size(), workers);
  }
}

// Kill() with sessions still queued frees them all (CI's LSan job checks
// that nothing leaks).
TEST(LiveNodeRetire, KillFreesQueuedVictims) {
  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/1);
  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/2);
  options.pipeline.inactivity_ns = 200 * kNanosPerMilli;
  options.store.max_bytes = 16u << 10;
  LiveNode node(std::move(options), nullptr, /*log=*/nullptr);
  ASSERT_TRUE(node.Start());
  upstream.Serve(*archive, archive->size());
  node.Run();
  // Past end of stream no Flush tick reaches the workers, so these stay
  // queued until the kill.
  constexpr int kQueued = 64;
  for (int i = 0; i < kQueued; ++i) {
    Session s;
    s.id = "queued" + std::to_string(i);
    s.records.resize(4);
    node.pipeline()->Retire(std::move(s));
  }
  node.Kill();
  EXPECT_EQ(Gauge(node, "live_retire_pending"), 0);
  EXPECT_EQ(Gauge(node, "live_retired_sessions"),
            static_cast<int64_t>(node.store()->stats().evicted + kQueued));
}

// The report a node's close callback builds, one partial per shard.
std::string ReportText(LiveNode& node, const ReportAccumulator& report) {
  return report.Format(node.ingest_records(), node.ingest_parse_failures(),
                       /*top=*/10);
}

// Restored sessions reach the callback during Start(), on the calling
// thread, under their owner shard; the report built across the restart is
// byte-identical to an uninterrupted run's.
TEST(LiveNodeRetire, RestoredSessionsAreReportedUnderTheirOwnerShard) {
  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2);
  const uint64_t total = archive->size();
  std::string uninterrupted;
  {
    PrefixUpstream upstream;
    LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/1);
    options.pipeline.inactivity_ns = 200 * kNanosPerMilli;
    ReportAccumulator report(1);
    LiveNode node(
        std::move(options),
        [&report](const Session& s, size_t shard) { report.Add(shard, s); },
        /*log=*/nullptr);
    ASSERT_TRUE(node.Start());
    upstream.Serve(*archive, total);
    node.Run();
    node.Shutdown();
    uninterrupted = ReportText(node, report);
  }

  const std::string dir = TempDir("ts_node_restore_report");
  RunNode(*archive, total / 2, dir);
  const size_t stored = LatestSnapshot(dir).store_sessions.size();
  ASSERT_GT(stored, 0u);

  constexpr size_t kWorkers = 2;
  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), kWorkers);
  options.pipeline.inactivity_ns = 200 * kNanosPerMilli;
  options.checkpoint.emplace();
  options.checkpoint->dir = dir;
  options.checkpoint->interval_ms = 0;
  ReportAccumulator report(kWorkers);
  bool starting = true;
  size_t during_start = 0;
  const std::thread::id main_thread = std::this_thread::get_id();
  LiveNode* self = nullptr;
  LiveNode node(
      std::move(options),
      [&](const Session& s, size_t shard) {
        if (starting) {
          ++during_start;
          EXPECT_EQ(std::this_thread::get_id(), main_thread);
          EXPECT_EQ(self->pipeline()->ShardOf(s.id), shard) << s.id;
        }
        report.Add(shard, s);
      },
      /*log=*/nullptr);
  self = &node;
  ASSERT_TRUE(node.Start());
  // Shard workers call back only once a batch runs, after Serve below.
  starting = false;
  EXPECT_EQ(during_start, stored);
  upstream.Serve(*archive, total);
  node.Run();
  node.Shutdown();
  EXPECT_EQ(ReportText(node, report), uninterrupted);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// A filtered subscriber attached from the start, through the node the tool
// runs: once the stream is over and the fan-out has settled, STATS balances.
// Every close was judged once against the one filter (sub_filter_evals ==
// live_sessions_closed), and every session serialized for the subscriber
// was delivered or dropped (sub_sessions_encoded == streamed + dropped).
TEST(LiveNodeSubscribe, FilteredSubscriberBalancesAtQuiescence) {
  const auto archive = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2);
  const auto first = ParseWireFormat(archive->front());
  ASSERT_TRUE(first.has_value());
  const std::string prefix = first->session_id.substr(0, 1);
  PrefixUpstream upstream;
  LiveNodeOptions options = TestNodeOptions(upstream.port(), /*workers=*/2);
  options.pipeline.inactivity_ns = 200 * kNanosPerMilli;
  std::mutex mu;
  uint64_t closed = 0;
  uint64_t taken = 0;
  LiveNode node(
      std::move(options),
      [&](const Session& s, size_t) {
        std::lock_guard<std::mutex> lock(mu);
        ++closed;
        taken += s.id.starts_with(prefix) ? 1 : 0;
      },
      /*log=*/nullptr);
  ASSERT_TRUE(node.Start());
  QueryClientOptions client_options;
  client_options.port = node.query_port();
  QueryClient subscriber(client_options);
  ASSERT_TRUE(subscriber.Connect());
  ASSERT_TRUE(subscriber.SubscribeFiltered("prefix=" + prefix));
  upstream.Serve(*archive, archive->size());
  node.Run();
  node.Shutdown();  // Its forced closes are inserted before it returns.
  ASSERT_GT(taken, 0u);
  ASSERT_LT(taken, closed);  // The filter really filters.

  uint64_t delivered = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (delivered + subscriber.total_dropped() < taken &&
         std::chrono::steady_clock::now() < deadline) {
    Session s;
    uint64_t dropped = 0;
    const auto event = subscriber.Next(&s, &dropped, /*timeout_ms=*/500);
    if (event == QueryClient::Event::kSession) {
      EXPECT_TRUE(s.id.starts_with(prefix)) << s.id;
      ++delivered;
    } else {
      ASSERT_NE(event, QueryClient::Event::kError);
      ASSERT_NE(event, QueryClient::Event::kClosed);
    }
  }
  EXPECT_EQ(delivered + subscriber.total_dropped(), taken);

  QueryClient stats_client(client_options);
  ASSERT_TRUE(stats_client.Connect());
  const QueryResponse response = stats_client.Stats();
  ASSERT_TRUE(response.ok);
  std::map<std::string, int64_t> stat(response.stats.begin(),
                                      response.stats.end());
  EXPECT_EQ(stat["live_sessions_closed"], static_cast<int64_t>(closed));
  EXPECT_EQ(stat["sub_filter_evals"], stat["live_sessions_closed"]);
  EXPECT_EQ(stat["sub_sessions_encoded"], static_cast<int64_t>(taken));
  EXPECT_EQ(stat["sub_sessions_encoded"],
            stat["server_sessions_streamed"] + stat["server_sessions_dropped"]);
  EXPECT_EQ(stat["server_sessions_streamed"], static_cast<int64_t>(delivered));
}

}  // namespace
}  // namespace ts
