// Figure 5, live-path edition: ingest throughput of the *serving* pipeline
// (LivePipeline: tag/route -> shard parse -> LiveCloser -> SessionStore) at
// 1/2/4/8 shard workers, on the same simulated 42-server/1263-process arrival
// stream the offline fig5 bench replays. This is the bench the CI bench-smoke
// and perf-gate lanes track: it writes a machine-readable JSON row per worker
// count and fails (exit 1) unless the closed-session output and the store's
// query answers are byte-identical across every worker count AND equal to a
// kernel reference:
//
//   pipeline (measured): lines live in an ingest arena, FeedBlock routes
//     pre-scanned RecordViews, shard workers materialize lazily — the
//     SWAR/arena path the real tool runs (docs/INGEST.md);
//   kernel reference (checked, run once): no pipeline — every line through
//     ParseWireFormat, the reference parser, into one LiveCloser in arrival
//     order under the prefix-max event-time watermark, closing into an
//     unbounded store. That is the determinism contract itself
//     (src/core/live_closer.h); its throughput is not reported.
//
// The evaluation VM's 4 cores are shared with the feeding thread and other
// guests, so wall-clock throughput cannot show scaling; threads timeshare
// cores. As with every scaling bench in this repo (bench_common.h, DESIGN.md
// §3) we therefore report critical-path throughput: records / max over threads
// of attributed thread-CPU time — the throughput the run would achieve with one
// core per thread, which is what the paper's Fig. 5 measures on real multicore
// hosts. Both series are printed and emitted in the JSON ("records_per_s" =
// critical-path, "records_per_s_wall" = wall clock). Single-run CPU drifts
// ±20-40% on a timesharing core and the noise is one-sided (interference only
// slows a run), so every reported row is the BEST of kReps interleaved runs —
// the standard min-time-of-N estimator — with digests asserted equal across
// reps.
//
// After the worker sweep, one more shape repeats the widest practical worker
// count with ts_ckpt checkpointing enabled (AsyncCheckpointer, one snapshot
// requested mid-stream into a scratch directory — relative to the trace
// length that is still ~60x the tool's default 2-second cadence, so the
// measured overhead is a conservative upper bound on production). Its output
// must stay byte-identical — snapshot barriers may not perturb the
// deterministic closed-session stream — and the JSON row carries
// "ckpt_overhead" (relative critical-path throughput loss), which the
// regression gate bounds via the baseline's max_ckpt_overhead.
//
// Flags: --rate (records/s), --seconds (trace length), --max_workers,
//        --quick (small CI preset), --json=PATH (write BENCH JSON).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/analytics/session_digest.h"
#include "src/analytics/session_store.h"
#include "src/ckpt/async_checkpointer.h"
#include "src/ckpt/checkpointer.h"
#include "src/ckpt/live_checkpoint.h"
#include "src/common/arena.h"
#include "src/core/live_closer.h"
#include "src/core/live_pipeline.h"
#include "src/log/record_batch.h"
#include "src/log/wire_format.h"
#include "src/replay/replayer.h"

namespace {

using namespace ts;
using namespace ts::bench;

// Lines per LineBlock / Flush tick: the poll-loop cadence of the real tool.
constexpr size_t kBlockLines = 4096;

// Interleaved repetitions per reported row (min-time-of-N).
constexpr int kReps = 3;

// The arrival stream, materialized once: owned text for the kernel reference,
// and the same bytes in an ingest arena as views for the pipeline (what
// recv-into-arena would have produced).
struct ArrivalStream {
  std::vector<std::string> lines;
  ArenaRef arena;
  std::vector<std::string_view> views;

  void BuildViews() {
    arena = std::make_shared<Arena>(256 << 10);
    views.reserve(lines.size());
    for (const auto& l : lines) {
      views.push_back(arena->Copy(l));
    }
  }
};

constexpr EventTime kInactivityNs = 5 * kNanosPerSecond;

struct RunStats {
  size_t workers = 0;
  uint64_t records = 0;
  uint64_t sessions = 0;
  uint64_t parse_failures = 0;
  uint64_t backpressure_stalls = 0;
  double wall_s = 0;
  double critical_path_s = 0;
  double ingest_cpu_s = 0;
  double max_shard_cpu_s = 0;
  double p50_close_ms = 0;
  double p99_close_ms = 0;
  uint64_t session_digest = 0;  // XOR of per-session digests.
  uint64_t store_digest = 0;    // Digest of canonical store query answers.
  uint64_t ckpt_snapshots = 0;
  uint64_t ckpt_last_bytes = 0;
  uint64_t ckpt_skipped_busy = 0;

  double RecordsPerSecCp() const {
    return critical_path_s > 0 ? static_cast<double>(records) / critical_path_s
                               : 0;
  }
  double RecordsPerSecWall() const {
    return wall_s > 0 ? static_cast<double>(records) / wall_s : 0;
  }
};

// An unbounded store: the digests need every session.
std::shared_ptr<SessionStore> MakeStore() {
  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  return std::make_shared<SessionStore>(store_options);
}

RunStats RunOnce(const ArrivalStream& stream, size_t workers,
                 const char* ckpt_dir = nullptr) {
  RunStats stats;
  stats.workers = workers;
  std::unique_ptr<Checkpointer> ckpt;
  if (ckpt_dir != nullptr) {
    CheckpointerOptions ckpt_options;
    ckpt_options.dir = ckpt_dir;
    ckpt_options.interval_ms = 0;  // Record-count cadence in the feed loop.
    ckpt = std::make_unique<Checkpointer>(ckpt_options);
  }

  auto store = MakeStore();
  std::mutex digest_mu;
  uint64_t session_digest = 0;
  std::set<std::string> ids;

  LivePipelineOptions options;
  options.workers = workers;
  options.inactivity_ns = kInactivityNs;
  options.record_close_latency = true;
  LivePipeline pipeline(options, [&](Session&& s) {
    thread_local std::string scratch;
    const uint64_t d = SessionDigest(s, &scratch);
    {
      std::lock_guard<std::mutex> lock(digest_mu);
      session_digest ^= d;
      ids.insert(s.id);
    }
    store->Insert(std::move(s));
  });

  std::unique_ptr<AsyncCheckpointer> async_ckpt;
  if (ckpt != nullptr) {
    async_ckpt = std::make_unique<AsyncCheckpointer>(
        ckpt.get(), &pipeline, store.get(), AsyncCheckpointer::Options{});
  }

  // One snapshot at the midpoint of the stream (rounded to a poll boundary):
  // the open set is near its peak there, and a single snapshot per run keeps
  // the writer's memory traffic from swamping the measured threads' caches on
  // a one-core host while still being far more frequent, relative to the
  // trace, than the tool's steady-time cadence.
  const size_t ckpt_at =
      (stream.lines.size() / 2) & ~static_cast<size_t>(kBlockLines - 1);
  const int64_t ingest_cpu_start = ThreadCpuNanos();
  Stopwatch wall;
  for (size_t begin = 0; begin < stream.views.size(); begin += kBlockLines) {
    const size_t end = std::min(begin + kBlockLines, stream.views.size());
    LineBlock block;
    block.arena = stream.arena;
    block.lines.assign(stream.views.begin() + begin,
                       stream.views.begin() + end);
    pipeline.FeedBlock(std::move(block));
    pipeline.Flush();  // Poll-loop cadence of the real tool.
    if (async_ckpt != nullptr && end == ckpt_at) {
      async_ckpt->RequestCheckpoint(end);
    }
  }
  if (async_ckpt != nullptr) {
    stats.ckpt_skipped_busy = async_ckpt->snapshots_skipped_busy();
    async_ckpt.reset();  // Drain + join before Finish (barrier discipline).
  }
  pipeline.Finish();
  stats.wall_s = static_cast<double>(wall.ElapsedNanos()) / 1e9;
  stats.ingest_cpu_s =
      static_cast<double>(ThreadCpuNanos() - ingest_cpu_start) / 1e9;

  stats.records = pipeline.records();
  stats.sessions = pipeline.sessions_closed();
  stats.parse_failures = pipeline.parse_failures();
  stats.backpressure_stalls = pipeline.backpressure_stalls();
  for (size_t i = 0; i < pipeline.workers(); ++i) {
    stats.max_shard_cpu_s =
        std::max(stats.max_shard_cpu_s,
                 static_cast<double>(pipeline.shard(i).cpu_ns) / 1e9);
  }
  stats.critical_path_s = std::max(stats.ingest_cpu_s, stats.max_shard_cpu_s);
  stats.session_digest = session_digest;

  SampleSet latencies;
  for (double ms : pipeline.CloseLatenciesMs()) {
    latencies.Add(ms);
  }
  if (!latencies.empty()) {
    stats.p50_close_ms = latencies.Quantile(0.5);
    stats.p99_close_ms = latencies.Quantile(0.99);
  }

  // Store-query byte-equality: the bytes a ts_query client would receive
  // must not depend on worker count.
  stats.store_digest = ChainedStoreDigest(*store, ids);
  if (ckpt != nullptr) {
    stats.ckpt_snapshots = ckpt->snapshots_taken();
    stats.ckpt_last_bytes = ckpt->last_snapshot_bytes();
  }
  return stats;
}

// The kernel reference (see the top of this file): what every pipeline run
// must reproduce, whatever its worker count.
RunStats RunKernelReference(const ArrivalStream& stream) {
  RunStats stats;
  auto store = MakeStore();
  std::set<std::string> ids;
  std::string scratch;
  LiveCloser closer(kInactivityNs);
  std::vector<Session> closed;
  const auto sink = [&] {
    for (Session& s : closed) {
      stats.session_digest ^= SessionDigest(s, &scratch);
      ids.insert(s.id);
      ++stats.sessions;
      store->Insert(std::move(s));
    }
    closed.clear();
  };
  EventTime watermark = LiveCloser::kNoWatermark;
  for (const auto& line : stream.lines) {
    auto record = ParseWireFormat(line);
    if (!record.has_value()) {
      ++stats.parse_failures;
      continue;
    }
    watermark = std::max(watermark, record->time);
    closer.ObserveWatermark(watermark);
    closer.Feed(std::move(*record), &closed);
    ++stats.records;
    sink();
  }
  closer.FlushAll(&closed);
  sink();
  stats.store_digest = ChainedStoreDigest(*store, ids);
  return stats;
}

double Speedup(const std::vector<RunStats>& rows, size_t workers) {
  double base = 0, at = 0;
  for (const auto& r : rows) {
    if (r.workers == 1) {
      base = r.RecordsPerSecCp();
    }
    if (r.workers == workers) {
      at = r.RecordsPerSecCp();
    }
  }
  return base > 0 ? at / base : 0;
}

bool SameOutput(const RunStats& a, const RunStats& b) {
  return a.session_digest == b.session_digest &&
         a.store_digest == b.store_digest && a.sessions == b.sessions &&
         a.records == b.records;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = [&] {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        return true;
      }
    }
    return false;
  }();
  const double rate = FlagDouble(argc, argv, "--rate", quick ? 15'000 : 40'000);
  const int64_t seconds = FlagInt(argc, argv, "--seconds", quick ? 6 : 12);
  const int64_t max_workers = FlagInt(argc, argv, "--max_workers", 8);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  std::printf("=== Fig 5 (live path): sharded serving-pipeline ingest scaling ===\n");
  std::printf("trace: %llds at %.0f records/s, 1263 streams / 42 servers\n\n",
              static_cast<long long>(seconds), rate);

  // Materialize the arrival stream once, in arrival order, exactly as a
  // single log-server connection would deliver it.
  ArrivalStream stream;
  {
    ReplayerConfig replay_config;
    replay_config.num_workers = 1;
    replay_config.as_text = true;
    replay_config.seed = 7;
    GeneratorConfig gen;
    gen.seed = 42;
    gen.duration_ns = seconds * kNanosPerSecond;
    gen.target_records_per_sec = rate;
    Replayer replayer(replay_config, gen);
    std::vector<Arrival> arrivals;
    for (Epoch e = 0;; ++e) {
      if (replayer.ArrivalsFor(0, e, &arrivals) ==
          ArrivalSource::Fetch::kEndOfStream) {
        break;
      }
      for (auto& a : arrivals) {
        stream.lines.push_back(std::move(a.line));
      }
    }
  }
  stream.BuildViews();
  std::printf("arrival stream: %zu records\n\n", stream.lines.size());

  const RunStats reference = RunKernelReference(stream);
  std::printf("kernel reference: %llu sessions, digest=%016llx "
              "store=%016llx\n\n",
              static_cast<unsigned long long>(reference.sessions),
              static_cast<unsigned long long>(reference.session_digest),
              static_cast<unsigned long long>(reference.store_digest));

  bool identical = true;
  std::vector<RunStats> rows;
  for (size_t w = 1; w <= static_cast<size_t>(max_workers); w *= 2) {
    RunStats best;
    for (int rep = 0; rep < kReps; ++rep) {
      RunStats run = RunOnce(stream, w);
      if (rep == 0) {
        best = run;
      } else if (!SameOutput(run, best)) {
        identical = false;
        std::printf("MISMATCH at workers=%zu: output varies across reps\n", w);
      } else if (run.RecordsPerSecCp() > best.RecordsPerSecCp()) {
        best = run;
      }
    }
    rows.push_back(best);
    const RunStats& r = rows.back();
    std::printf(
        "workers=%zu: %10.0f rec/s critical-path (%8.0f wall, best of %d), "
        "%llu sessions, close p50=%.1fms p99=%.1fms, stalls=%llu\n"
        "  digest=%016llx store=%016llx %s\n",
        r.workers, r.RecordsPerSecCp(), r.RecordsPerSecWall(), kReps,
        static_cast<unsigned long long>(r.sessions), r.p50_close_ms,
        r.p99_close_ms, static_cast<unsigned long long>(r.backpressure_stalls),
        static_cast<unsigned long long>(r.session_digest),
        static_cast<unsigned long long>(r.store_digest),
        SameOutput(r, reference) ? "== kernel reference" : "MISMATCH");
  }

  // Checkpoint-enabled runs at the widest measured worker count: identical
  // output required, throughput loss bounded by the regression gate. Both
  // variants run interleaved several times and the overhead compares the
  // BEST run of each (min-time-of-N, as above).
  const size_t ckpt_workers = rows.back().workers;
  char ckpt_template[] = "/tmp/ts_fig5_ckpt_XXXXXX";
  const char* ckpt_root = ::mkdtemp(ckpt_template);
  if (ckpt_root == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string ckpt_dir = std::string(ckpt_root) + "/snap";
  const std::string ckpt_cleanup = "rm -rf '" + ckpt_dir + "'";
  constexpr int kCkptPairs = 7;
  double plain_tput = 0;
  RunStats ckpt_row;
  for (int rep = 0; rep < kCkptPairs; ++rep) {
    const RunStats plain = RunOnce(stream, ckpt_workers);
    plain_tput = std::max(plain_tput, plain.RecordsPerSecCp());
    (void)std::system(ckpt_cleanup.c_str());
    const RunStats with_ckpt = RunOnce(stream, ckpt_workers, ckpt_dir.c_str());
    (void)std::system(ckpt_cleanup.c_str());
    if (rep == 0 ||
        with_ckpt.RecordsPerSecCp() > ckpt_row.RecordsPerSecCp()) {
      ckpt_row = with_ckpt;
    }
    std::printf("  ckpt pair %d: plain %.0f vs ckpt %.0f rec/s\n", rep + 1,
                plain.RecordsPerSecCp(), with_ckpt.RecordsPerSecCp());
  }
  (void)std::system(("rm -rf '" + std::string(ckpt_root) + "'").c_str());
  const double ckpt_overhead =
      plain_tput > 0
          ? std::max(0.0, 1.0 - ckpt_row.RecordsPerSecCp() / plain_tput)
          : 0.0;
  std::printf(
      "workers=%zu +ckpt: %7.0f rec/s critical-path (%.1f%% overhead), "
      "%llu snapshot(s) (%llu ticks skipped busy), last %llu bytes\n"
      "  (ckpt run: ingest %.3fs, max shard %.3fs)\n"
      "  digest=%016llx store=%016llx %s\n",
      ckpt_workers, ckpt_row.RecordsPerSecCp(), 100.0 * ckpt_overhead,
      static_cast<unsigned long long>(ckpt_row.ckpt_snapshots),
      static_cast<unsigned long long>(ckpt_row.ckpt_skipped_busy),
      static_cast<unsigned long long>(ckpt_row.ckpt_last_bytes),
      ckpt_row.ingest_cpu_s, ckpt_row.max_shard_cpu_s,
      static_cast<unsigned long long>(ckpt_row.session_digest),
      static_cast<unsigned long long>(ckpt_row.store_digest),
      SameOutput(ckpt_row, reference) ? "== kernel reference" : "MISMATCH");

  if (!SameOutput(ckpt_row, reference)) {
    identical = false;
    std::printf("MISMATCH in checkpoint-enabled run: snapshot barriers "
                "perturbed the output\n");
  }
  if (ckpt_row.ckpt_snapshots == 0) {
    identical = false;
    std::printf("MISMATCH: checkpoint-enabled run wrote no snapshots — "
                "overhead measurement is vacuous\n");
  }
  for (const auto& r : rows) {
    if (!SameOutput(r, reference)) {
      identical = false;
      std::printf("MISMATCH at workers=%zu: sessions=%llu digest=%016llx "
                  "store=%016llx (kernel reference %llu/%016llx/%016llx)\n",
                  r.workers, static_cast<unsigned long long>(r.sessions),
                  static_cast<unsigned long long>(r.session_digest),
                  static_cast<unsigned long long>(r.store_digest),
                  static_cast<unsigned long long>(reference.sessions),
                  static_cast<unsigned long long>(reference.session_digest),
                  static_cast<unsigned long long>(reference.store_digest));
    }
  }
  std::printf("\nresults across worker counts + kernel reference: %s\n",
              identical ? "byte-identical" : "MISMATCH");
  std::printf("speedup vs 1 worker (critical-path): 2w=%.2fx 4w=%.2fx\n",
              Speedup(rows, 2), Speedup(rows, 4));

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"live_scaling\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"rate\": %.0f,\n  \"seconds\": %lld,\n", rate,
                 static_cast<long long>(seconds));
    std::fprintf(f, "  \"identical\": %s,\n", identical ? "true" : "false");
    std::fprintf(f, "  \"speedup_4w\": %.3f,\n", Speedup(rows, 4));
    std::fprintf(f, "  \"ckpt_workers\": %zu,\n", ckpt_workers);
    std::fprintf(f, "  \"ckpt_records_per_s\": %.0f,\n",
                 ckpt_row.RecordsPerSecCp());
    std::fprintf(f, "  \"ckpt_overhead\": %.4f,\n", ckpt_overhead);
    std::fprintf(f, "  \"ckpt_snapshots\": %llu,\n",
                 static_cast<unsigned long long>(ckpt_row.ckpt_snapshots));
    std::fprintf(f, "  \"ckpt_skipped_busy\": %llu,\n",
                 static_cast<unsigned long long>(ckpt_row.ckpt_skipped_busy));
    std::fprintf(f, "  \"ckpt_last_bytes\": %llu,\n",
                 static_cast<unsigned long long>(ckpt_row.ckpt_last_bytes));
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const RunStats& r = rows[i];
      std::fprintf(
          f,
          "    {\"workers\": %zu, \"records_per_s\": %.0f, "
          "\"records_per_s_wall\": %.0f, \"p50_close_ms\": %.3f, "
          "\"p99_close_ms\": %.3f, \"sessions\": %llu, "
          "\"backpressure_stalls\": %llu}%s\n",
          r.workers, r.RecordsPerSecCp(), r.RecordsPerSecWall(),
          r.p50_close_ms, r.p99_close_ms,
          static_cast<unsigned long long>(r.sessions),
          static_cast<unsigned long long>(r.backpressure_stalls),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return identical ? 0 : 1;
}
