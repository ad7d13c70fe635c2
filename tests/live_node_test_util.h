// Shared pieces of the suites that drive a LiveNode against a real
// LogServer over loopback TCP: the archive, the in-memory reference run, and
// the seeded kill/restart schedules of the crash, cold-tier and disk-fault
// suites.
#ifndef TESTS_LIVE_NODE_TEST_UTIL_H_
#define TESTS_LIVE_NODE_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_digest.h"
#include "src/common/rng.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fs_fault.h"
#include "src/fault/scripted_disk_injector.h"
#include "src/log/wire_format.h"
#include "src/net/log_server.h"
#include "src/node/live_node.h"
#include "src/store/tiered_digest.h"
#include "src/workload/generator.h"

namespace ts {

// The generator's trace (seed 99) as wire-format lines.
inline std::shared_ptr<std::vector<std::string>> MakeArchive(
    double records_per_sec, EventTime seconds, bool free_text = false) {
  GeneratorConfig config;
  config.seed = 99;
  config.duration_ns = seconds * kNanosPerSecond;
  config.target_records_per_sec = records_per_sec;
  config.free_text_payloads = free_text;
  TraceGenerator gen(config);
  auto lines = std::make_shared<std::vector<std::string>>();
  Epoch epoch = 0;
  std::vector<LogRecord> records;
  while (gen.NextEpoch(&epoch, &records)) {
    for (const auto& r : records) {
      lines->push_back(ToWireFormat(r));
    }
  }
  return lines;
}

// Runs `check(seed)` over the exploratory schedules derived from
// $TS_FAULT_SEED (skipping without it) and, on failure, appends the base
// seed to $TS_FAULT_ARTIFACT so the run can be attached to a bug. The
// nightly soak sets TS_FAULT_SCHEDULE_MULTIPLIER (e.g. 5) to sweep a
// proportionally larger region of the schedule space per seed; it is
// clamped so a typo'd value cannot wedge the lane past its ctest timeout.
inline void RunExploratorySeeds(uint64_t count, uint64_t stride,
                                const char* what,
                                const std::function<void(uint64_t)>& check) {
  const char* seed_text = std::getenv("TS_FAULT_SEED");
  if (seed_text == nullptr || *seed_text == '\0') {
    GTEST_SKIP() << "set TS_FAULT_SEED to run exploratory " << what;
  }
  const char* multiplier_text = std::getenv("TS_FAULT_SCHEDULE_MULTIPLIER");
  const uint64_t multiplier =
      multiplier_text == nullptr
          ? 1
          : std::clamp<uint64_t>(std::strtoull(multiplier_text, nullptr, 10),
                                 1, 20);
  const uint64_t base = std::strtoull(seed_text, nullptr, 10);
  for (uint64_t i = 0;
       i < count * multiplier && !::testing::Test::HasFailure(); ++i) {
    check(base + i * stride);
  }
  if (!::testing::Test::HasFailure()) {
    return;
  }
  if (const char* artifact = std::getenv("TS_FAULT_ARTIFACT")) {
    if (FILE* f = std::fopen(artifact, "a")) {
      std::fprintf(f, "# exploratory %s failure\nTS_FAULT_SEED=%llu\n", what,
                   static_cast<unsigned long long>(base));
      std::fclose(f);
    }
  }
}

struct RunResult {
  bool eos = false;
  uint64_t records_in = 0;
  uint64_t parse_failures = 0;
  uint64_t sessions = 0;
  uint64_t session_digest = 0;  // XOR of SessionDigest over every close.
  uint64_t store_digest = 0;
  uint64_t reconnects = 0;
  uint64_t templates = 0;        // Learned templates (mining lanes only).
  uint64_t template_digest = 0;  // FNV over the sorted (id, hits, text) dump.
};

// FNV-1a over the full template dictionary: any drift in template ids, hit
// counts, or learned text between two runs changes this value.
inline uint64_t TemplateDictionaryDigest(
    const std::vector<TemplateInfo>& dict) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  };
  for (const auto& t : dict) {
    mix(std::to_string(t.id) + " " + std::to_string(t.hits) + " " + t.text);
  }
  return h;
}

// Thread-safe digest of closed sessions: XOR of SessionDigest, count, ids.
struct CloseDigest {
  std::mutex mu;
  std::set<std::string> ids;
  uint64_t xor_digest = 0;
  uint64_t sessions = 0;

  void Add(const Session& s) {
    thread_local std::string scratch;
    const uint64_t d = SessionDigest(s, &scratch);
    std::lock_guard<std::mutex> lock(mu);
    xor_digest ^= d;
    ++sessions;
    ids.insert(s.id);
  }
};

// The determinism contract's reference point: the same lines fed straight
// into the pipeline (the copying FeedLine path), no sockets, no faults.
inline RunResult RunInMemory(const std::vector<std::string>& lines,
                             bool mine = false) {
  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  SessionStore store(store_options);
  CloseDigest closes;
  LivePipelineOptions options;
  options.workers = 2;
  options.mine_templates = mine;
  LivePipeline pipeline(options, [&](Session&& s) {
    closes.Add(s);
    store.Insert(std::move(s));
  });
  for (const auto& l : lines) {
    pipeline.FeedLine(l);
  }
  pipeline.Finish();

  RunResult result;
  result.eos = true;
  result.records_in = pipeline.records();
  result.parse_failures = pipeline.parse_failures();
  result.sessions = pipeline.sessions_closed();
  result.session_digest = closes.xor_digest;
  result.store_digest = ChainedStoreDigest(store, closes.ids);
  const auto dict = pipeline.TemplateSnapshot();
  result.templates = dict.size();
  result.template_digest = TemplateDictionaryDigest(dict);
  return result;
}

// A LogServer that serves archive[0, end) and then #EOS. It binds at
// construction, so a LiveNode can be pointed at port() before the prefix is
// chosen; Serve() fixes the prefix and starts serving. The crash schedules
// end an incarnation's stream at its seeded crash record this way and then
// Kill() the node: the crash lands on an exact record.
class PrefixUpstream {
 public:
  explicit PrefixUpstream(const LogServerOptions& options = {})
      : lines_(std::make_shared<std::vector<std::string>>()),
        server_(options, lines_) {
    EXPECT_TRUE(server_.Start());
  }
  ~PrefixUpstream() {
    server_.Stop();
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  PrefixUpstream(const PrefixUpstream&) = delete;
  PrefixUpstream& operator=(const PrefixUpstream&) = delete;

  uint16_t port() const { return server_.port(); }

  void Serve(const std::vector<std::string>& archive, uint64_t end) {
    lines_->assign(archive.begin(),
                   archive.begin() + static_cast<std::ptrdiff_t>(end));
    thread_ = std::thread([this] { server_.Run(); });
  }

 private:
  std::shared_ptr<std::vector<std::string>> lines_;
  LogServer server_;
  std::thread thread_;
};

// A node consuming 127.0.0.1:`port` with test-speed reconnect backoff and a
// store large enough never to evict, serving queries on an ephemeral port as
// `ts_sessionize --connect --serve=0` does.
inline LiveNodeOptions TestNodeOptions(uint16_t port, size_t workers) {
  LiveNodeOptions options;
  options.query.emplace();
  options.ingest.emplace();
  options.ingest->port = port;
  options.ingest->backoff_base_ms = 1;
  options.ingest->backoff_max_ms = 20;
  options.pipeline.workers = workers;
  options.store.max_bytes = 1ull << 30;
  return options;
}

// Reads one gauge the way STATS does (-1 if it is not registered).
inline int64_t Gauge(const LiveNode& node, const std::string& name) {
  for (const auto& [gauge, value] : node.metrics()->Snapshot()) {
    if (gauge == name) {
      return value;
    }
  }
  return -1;
}

// Steps `node` to the end of its stream, requesting a checkpoint whenever
// `every` more records have arrived since the last one; counts the requests
// in *requested. Returns true at a graceful end of stream, false on a
// transport failure.
inline bool StepWithCheckpointCadence(LiveNode* node, uint64_t every,
                                      uint64_t* requested) {
  uint64_t last = node->records_received();
  while (true) {
    const auto poll = node->Step();
    if (poll == SocketIngestSource::Poll::kEndOfStream) {
      return true;
    }
    if (poll == SocketIngestSource::Poll::kFailed) {
      return false;
    }
    if (node->records_received() - last >= every) {
      EXPECT_TRUE(node->RequestCheckpoint());
      ++*requested;
      last = node->records_received();
    }
  }
}

inline uint64_t TotalFired(const DiskFaultCountersSnapshot& c) {
  return c.enospc_failures + c.eio_failures + c.short_writes +
         c.fsync_failures + c.rename_failures + c.torn_writes;
}

// --- Kill/restart schedules ---
//
// Each schedule simulates kill -9 + restart of the sessionizer process: an
// "incarnation" is a fresh LiveNode on the same checkpoint (and cold)
// directory, which restores the newest valid snapshot and resumes the stream
// from its offset. Its upstream serves the archive only up to a seeded
// absolute record position, and at that end of stream the node is killed —
// no shutdown checkpoint, in-flight state simply lost, like SIGKILL.
// Checkpoints are requested on a seeded record cadence; the worker count is
// re-drawn per incarnation, so restores also cross shard layouts. 1-3 kills
// per schedule (a hard incarnation cap guards against a restore bug looping
// forever), then the last incarnation runs to EOS and shuts down.

struct CrashSchedule {
  uint64_t seed = 0;
  uint64_t salt = 0;  // Mixed into `seed` for the schedule's RNG.
  std::string dir;    // Scratch directory, wiped before and after.
  bool mine = false;  // Template mining in every incarnation.
  // A hot window far smaller than the archive's session volume, so the
  // schedule spends its life evicting into a cold tier that persists across
  // incarnations like the checkpoint directory.
  bool tiered = false;
  // Tiered runs only: the disk-fault plan attacking each incarnation's
  // write path. Installed after restore + segment discovery (a durable file
  // that fails a read is the corruption suite's territory) and removed
  // right after the kill, or before the final shutdown.
  std::function<FaultPlan(int incarnation)> disk_plan;
};

struct CrashRun {
  RunResult run;  // The final incarnation; store_digest covers hot only.
  int incarnations = 0;
  int crashes = 0;
  uint64_t snapshots_written = 0;
  uint64_t snapshot_attempts_failed = 0;  // Async writer attempts.
  uint64_t restores = 0;  // Incarnations that resumed from a snapshot.
  uint64_t restore_fallbacks = 0;
  uint64_t faults_fired = 0;  // Disk-fault events that actually bit.
  uint64_t replayed_duplicates = 0;
  // Tiered runs: |hot ∪ cold| (id, fragment) pairs and their digest.
  uint64_t tiered_sessions = 0;
  uint64_t tiered_digest = 0;
  uint64_t cold_sessions = 0;
  uint64_t cold_segments = 0;

  std::string Banner() const {
    return std::to_string(crashes) + " crash(es), " +
           std::to_string(incarnations) + " incarnation(s), " +
           std::to_string(snapshots_written) + " snapshot(s), " +
           std::to_string(snapshot_attempts_failed) +
           " failed snapshot attempt(s), " + std::to_string(faults_fired) +
           " disk fault(s) fired, " + std::to_string(restores) +
           " restore(s), " + std::to_string(restore_fallbacks) +
           " restore fallback(s), " + std::to_string(cold_segments) +
           " cold segment(s), " + std::to_string(replayed_duplicates) +
           " replayed duplicate(s)";
  }
};

inline CrashRun RunCrashSchedule(const std::vector<std::string>& archive,
                                 const CrashSchedule& schedule) {
  CrashRun out;
  Rng rng(schedule.seed ^ schedule.salt);
  const uint64_t total = archive.size();
  const std::string cleanup = "rm -rf '" + schedule.dir + "'";
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
  EXPECT_EQ(std::system(("mkdir -p '" + schedule.dir + "'").c_str()), 0);

  int crashes_left = 1 + static_cast<int>(rng.NextBelow(3));
  bool eos = false;
  for (int incarnation = 0; incarnation < 16 && !eos; ++incarnation) {
    ++out.incarnations;
    // Declared before the node: the injector must outlive every thread that
    // might consult it.
    std::unique_ptr<ScriptedDiskInjector> disk;
    if (schedule.disk_plan) {
      disk = std::make_unique<ScriptedDiskInjector>(
          schedule.disk_plan(incarnation));
    }
    PrefixUpstream upstream;
    CheckpointerOptions ckpt_options;
    ckpt_options.dir = schedule.dir + "/ckpt";
    ckpt_options.retain = 2 + static_cast<size_t>(rng.NextBelow(2));
    ckpt_options.interval_ms = 0;  // Record-count cadence below.
    LiveNodeOptions options =
        TestNodeOptions(upstream.port(), /*workers=*/1 + rng.NextBelow(4));
    // Small polls, so the seeded cadence lands several snapshots before a
    // crash instead of one whole-prefix poll racing to end of stream.
    options.ingest->max_records_per_poll = 64;
    options.pipeline.mine_templates = schedule.mine;
    options.checkpoint = ckpt_options;
    if (schedule.tiered) {
      options.store.max_bytes = 64u << 10;
      options.cold.emplace();
      options.cold->dir = schedule.dir + "/cold";
      options.cold->segment_target_bytes = 16u << 10;  // Many small ones.
      if (disk != nullptr) {
        // Never shed: every fault window is finite, so retrying converges,
        // and shedding (counted loss) would make the digest incomparable.
        options.cold->spill_retry_limit = 1'000'000;
        options.cold->spill_backoff_ms = 1;
      }
    }
    // Sees restored sessions and new closes; replayed duplicates are
    // counted by the node's dedupe guard instead.
    CloseDigest closes;
    LiveNode node(
        std::move(options),
        [&closes](const Session& s, size_t) { closes.Add(s); },
        /*log=*/nullptr);
    EXPECT_TRUE(node.Start());
    out.restores += static_cast<uint64_t>(Gauge(node, "ckpt_restores"));
    out.restore_fallbacks +=
        static_cast<uint64_t>(Gauge(node, "ckpt_fallbacks"));
    const uint64_t resume = node.records_received();
    EXPECT_LE(resume, total);
    if (disk != nullptr) {
      InstallFsFaultInjector(disk.get());
    }

    // Crash position (absolute record index) and checkpoint cadence for
    // this incarnation. Records [resume, crash_at) land; the kill comes
    // before record crash_at.
    const bool crash_this = crashes_left > 0 && resume < total;
    const uint64_t crash_at =
        crash_this ? resume + 1 + rng.NextBelow(total - resume) : total;
    const uint64_t ckpt_every = 100 + rng.NextBelow(900);
    upstream.Serve(archive, crash_at);
    uint64_t requested = 0;
    const bool stream_ok =
        StepWithCheckpointCadence(&node, ckpt_every, &requested);
    const bool dies = crash_at < total || !stream_ok;
    if (dies) {
      node.Kill();  // Pending spills die with the process; durable stays.
    }
    // The rest of the incarnation (final checkpoint, digest reads, the next
    // restore) runs on a healed disk: a dead process does no I/O.
    if (disk != nullptr) {
      InstallFsFaultInjector(nullptr);
      out.faults_fired += TotalFired(disk->counters());
    }
    if (!dies) {
      node.Shutdown();
    }
    out.snapshots_written +=
        static_cast<uint64_t>(Gauge(node, "ckpt_snapshots"));
    out.snapshot_attempts_failed +=
        static_cast<uint64_t>(Gauge(node, "ckpt_write_failures"));
    if (disk == nullptr) {
      // A healthy disk: a snapshot lands at every cadence point, and the
      // final one too.
      EXPECT_EQ(Gauge(node, "ckpt_snapshots"),
                static_cast<int64_t>(requested + (dies ? 0 : 1)));
      EXPECT_EQ(Gauge(node, "ckpt_write_failures"), 0);
      EXPECT_EQ(Gauge(node, "ckpt_snapshot_failures"), 0);
    }
    if (!stream_ok) {
      break;  // Transport failure: leaves out.run.eos false.
    }
    if (dies) {
      ++out.crashes;
      --crashes_left;
      continue;
    }
    eos = true;
    out.run.eos = true;
    out.run.records_in = node.ingest_records();
    out.run.parse_failures = node.ingest_parse_failures();
    out.run.sessions = closes.sessions;
    out.run.session_digest = closes.xor_digest;
    out.run.store_digest = ChainedStoreDigest(*node.store(), closes.ids);
    const auto dict = node.pipeline()->TemplateSnapshot();
    out.run.templates = dict.size();
    out.run.template_digest = TemplateDictionaryDigest(dict);
    out.replayed_duplicates = node.replayed_duplicates();
    if (schedule.tiered) {
      // A segment write already in flight at the heal instant may still
      // fail once; the retry runs on the healed disk and must converge.
      ColdTier& cold = *node.cold();
      bool flushed = false;
      for (int i = 0; i < 100 && !flushed; ++i) {
        flushed = cold.FlushPending();
      }
      EXPECT_TRUE(flushed);
      const ColdTier::Stats stats = cold.stats();
      out.cold_sessions = stats.sessions;
      out.cold_segments = stats.segments;
      EXPECT_EQ(stats.pending, 0u);
      // Failed writes are counted and retried; they never publish a damaged
      // segment, and never shed under a finite plan.
      EXPECT_EQ(stats.corrupt, 0u);
      EXPECT_EQ(stats.shed_sessions, 0u);
      if (disk == nullptr) {
        EXPECT_EQ(stats.write_failures, 0u);
      }
      std::set<std::string> ids;
      node.store()->ForEachSession([&](const Session& s) { ids.insert(s.id); });
      cold.ForEachId([&](const std::string& id) { ids.insert(id); });
      out.tiered_digest =
          TieredDigest(*node.store(), cold, ids, &out.tiered_sessions);
    }
  }
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
  return out;
}

}  // namespace ts

#endif  // TESTS_LIVE_NODE_TEST_UTIL_H_
