// Figure 6: comparison of TS against a state-of-the-art general-purpose
// streaming engine on the reduced trace (the paper replayed 37 of 1263
// streams — one log server — because Flink could not keep up with the full
// rate and ran out of memory).
//
// Both systems run identical sessionization semantics. The baseline is this
// repo's ts_baseline: a faithful Flink-architecture engine (heap rows,
// per-record virtual dispatch, merging session windows, watermarks, bounded
// backpressuring queues). Per-epoch latency is measured identically for both:
// first record of the epoch fed -> punctuation/watermark for the epoch fully
// processed.
//
// Also reproduced: the full-rate capacity gap (sustained per-core throughput -
// on this single-core container, wall-clock drain time of the whole pipeline -
// decides who can keep up with the full log rate) and the sessionization-state
// comparison (TS ~203MB RSS vs Flink >7.5GB heap in the paper). Note the
// paper's 71x latency factor includes JVM/GC overheads; this native-C++
// baseline isolates the architectural gap (per-record heap rows, exchange
// serialization, per-key merging windows vs TS's batched, worker-local state).
#include <cstdio>
#include <mutex>

#include "bench/bench_common.h"
#include "src/baseline/session_window_job.h"
#include "src/log/wire_format.h"

namespace {

using namespace ts;
using namespace ts::bench;

// Runs the baseline epoch-gated over the replayer's arrival stream; returns
// per-epoch latencies plus stats.
struct BaselineRun {
  SampleSet latency_ms;
  BaselineJobStats stats;
  uint64_t peak_rss = 0;
};

BaselineRun RunBaseline(size_t parallelism, const GeneratorConfig& gen,
                        EventTime gap_ns) {
  ReplayerConfig replay;
  replay.num_servers = 1;
  replay.num_processes = 37;  // The paper's reduced setup.
  replay.num_workers = 1;
  replay.as_text = true;
  Replayer replayer(replay, gen);

  BaselineJobConfig config;
  config.parallelism = parallelism;
  config.session_gap_ns = gap_ns;
  BaselineSessionJob job(config, nullptr);
  job.Start();

  BaselineRun run;
  std::vector<Arrival> arrivals;
  for (Epoch e = 0;; ++e) {
    if (replayer.ArrivalsFor(0, e, &arrivals) == Replayer::Fetch::kEndOfStream) {
      break;
    }
    const int64_t start = SteadyNowNanos();
    bool any = false;
    for (const auto& a : arrivals) {
      job.FeedLine(a.line);
      any = true;
    }
    const EventTime watermark =
        static_cast<EventTime>(e + 1) * kNanosPerSecond - 2 * kNanosPerSecond;
    job.BroadcastWatermark(watermark);
    const int64_t done = job.AwaitWatermark(watermark);
    job.PollStateBytes();
    if (any) {
      run.latency_ms.Add(static_cast<double>(done - start) / 1e6);
    }
  }
  job.FinishAndJoin();
  run.stats = job.stats();
  run.peak_rss = PeakRssBytes();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const double rate = FlagDouble(argc, argv, "--rate", 10'000);
  const int64_t seconds = FlagInt(argc, argv, "--seconds", 12);
  const double full_rate = FlagDouble(argc, argv, "--full_rate", 250'000);

  GeneratorConfig gen;
  gen.seed = 42;
  gen.duration_ns = seconds * kNanosPerSecond;
  gen.target_records_per_sec = rate;

  std::printf("=== Figure 6: TS vs generic stream engine (reduced rate) ===\n");
  std::printf("Reduced trace: 37 streams, %.0f records/s for %llds (paper: "
              "6.9 MB/s, 37 of 1263 streams)\n\n",
              rate, static_cast<long long>(seconds));

  // --- (a) Baseline engine, varying parallelism --------------------------
  std::printf("--- Baseline (Flink-like architecture): per-epoch latency ---\n");
  PrintBoxHeader("parallelism");
  double baseline_best_median = 1e18;
  size_t baseline_peak_state = 0;
  for (size_t p : {1u, 2u, 4u}) {
    auto run = RunBaseline(p, gen, 5 * kNanosPerSecond);
    PrintBoxRow("baseline p=" + std::to_string(p), run.latency_ms);
    if (!run.latency_ms.empty()) {
      baseline_best_median = std::min(baseline_best_median, run.latency_ms.Median());
    }
    baseline_peak_state = std::max(baseline_peak_state, run.stats.peak_state_bytes);
  }

  // --- (b) TS, varying workers -------------------------------------------
  std::printf("\n--- TS: per-epoch latency (same input, same semantics) ---\n");
  PrintBoxHeader("workers");
  double ts_best_median = 1e18;
  size_t ts_peak_state = 0;
  for (size_t w : {1u, 2u, 4u}) {
    PipelineOptions options;
    options.workers = w;
    options.gen = gen;
    options.num_servers = 1;
    options.num_processes = 37;
    options.inactivity_epochs = 5;
    auto result = RunPipeline(options);
    SampleSet wall = result.WallLatenciesMs();
    SampleSet critical = result.CriticalPathMs();
    PrintBoxRow("TS w=" + std::to_string(w) + " wall", wall);
    PrintBoxRow("TS w=" + std::to_string(w) + " critical", critical);
    if (!wall.empty()) {
      ts_best_median = std::min(ts_best_median, wall.Median());
    }
    ts_peak_state =
        std::max(ts_peak_state,
                 result.peak_session_state_bytes + result.peak_reorder_bytes);
  }

  std::printf("\n--- Headline: per-epoch latency ---\n");
  std::printf("  best median epoch latency:  baseline %.1f ms vs TS %.1f ms\n",
              baseline_best_median, ts_best_median);
  std::printf("  (paper: Flink 2.1 s vs TS 26 ms, 71x; our baseline is native "
              "C++ without JVM/GC\n   overhead, so the absolute gap here "
              "isolates the architectural component only)\n");
  std::printf("  peak sessionization state:  baseline %s vs TS %s\n",
              FormatBytes(static_cast<double>(baseline_peak_state)).c_str(),
              FormatBytes(static_cast<double>(ts_peak_state)).c_str());
  std::printf("  (paper: Flink heap >7.5 GB vs TS RSS 203 MB)\n");

  // --- (c) Full log rate: sustained per-core throughput -------------------
  // Threads share the evaluation VM's cores with each other and with the
  // producer, so wall-clock drain time measures the total per-record
  // processing cost of the whole pipeline — the quantity that decides who can keep up with the full rate.
  std::printf("\n--- Full log rate: sustained per-core throughput ---\n");
  GeneratorConfig full = gen;
  full.target_records_per_sec = full_rate;
  full.duration_ns = std::min<EventTime>(full.duration_ns, 6 * kNanosPerSecond);

  double baseline_rate = 0;
  {
    ReplayerConfig replay;
    replay.num_servers = 42;
    replay.num_processes = 1263;
    replay.num_workers = 1;
    replay.as_text = true;
    Replayer replayer(replay, full);
    // Pre-drain arrivals so generation cost is excluded for both systems.
    std::vector<std::string> lines;
    std::vector<Arrival> arrivals;
    for (Epoch e = 0;; ++e) {
      if (replayer.ArrivalsFor(0, e, &arrivals) == Replayer::Fetch::kEndOfStream) {
        break;
      }
      for (auto& a : arrivals) {
        lines.push_back(std::move(a.line));
      }
    }
    BaselineJobConfig config;
    config.parallelism = 2;
    config.session_gap_ns = 5 * kNanosPerSecond;
    BaselineSessionJob job(config, nullptr);
    job.Start();
    const int64_t start = SteadyNowNanos();
    for (const auto& line : lines) {
      job.FeedLine(line);
    }
    job.FinishAndJoin();
    const double secs = static_cast<double>(SteadyNowNanos() - start) / 1e9;
    baseline_rate = static_cast<double>(lines.size()) / secs;
    std::printf("  baseline: %zu records drained in %.2f s -> %.0f records/s "
                "per core\n",
                lines.size(), secs, baseline_rate);
  }

  double ts_rate = 0;
  {
    // The TS pipeline generates + serializes its trace lazily inside the run
    // (the baseline's was pre-drained above), so time that part alone and
    // subtract it for a like-for-like engine cost.
    Stopwatch gen_watch;
    uint64_t generated = 0;
    {
      TraceGenerator g(full);
      Epoch e;
      std::vector<LogRecord> batch;
      std::string line;
      while (g.NextEpoch(&e, &batch)) {
        for (const auto& r : batch) {
          line.clear();
          AppendWireFormat(r, &line);
          generated += line.size() > 0 ? 1 : 0;
        }
      }
    }
    const double gen_secs = gen_watch.ElapsedMillis() / 1e3;

    PipelineOptions options;
    options.workers = 1;
    options.gen = full;
    options.num_servers = 42;
    options.num_processes = 1263;
    options.inactivity_epochs = 5;
    Stopwatch watch;
    auto result = RunPipeline(options);
    const double secs = std::max(0.01, watch.ElapsedMillis() / 1e3 - gen_secs);
    ts_rate = static_cast<double>(result.records_fed) / secs;
    std::printf("  TS:       %llu records drained in %.2f s (after deducting "
                "%.2f s of trace\n            generation) -> %.0f records/s "
                "per core\n",
                static_cast<unsigned long long>(result.records_fed), secs,
                gen_secs, ts_rate);
  }

  std::printf("\n  offered full rate: %.0f records/s (scaled; paper: 1.3M/s)\n",
              full_rate);
  std::printf("  baseline %s keep up; TS %s keep up. Per-core throughput "
              "ratio: %.1fx in favour of TS.\n",
              baseline_rate >= full_rate ? "CAN" : "CANNOT",
              ts_rate >= full_rate ? "CAN" : "CANNOT", ts_rate / baseline_rate);
  std::printf("  When the source outpaces the engine, bounded queues back-"
              "pressure it and unbounded\n  buffering grows until memory is "
              "exhausted — the paper's Flink failure at full rate.\n");
  return 0;
}
