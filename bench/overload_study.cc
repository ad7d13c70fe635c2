// Overload study: close latency vs offered load around measured capacity.
//
// Methodology (docs/LOADGEN.md):
//
//  1. Calibrate capacity. Run the open-loop generator at a rate far beyond
//     what one core can sustain. The generator never slows its schedule, so
//     records pile into its local backlog and the *wire acceptance rate* —
//     report.achieved_rate, records flushed per second of pacing wall time —
//     degenerates to the consumer's drain rate: the system's capacity with
//     both processes sharing this machine, which is exactly how the lanes run.
//
//  2. Lanes at 0.8x / 0.95x / 1.1x capacity. The two subcritical lanes run
//     with shedding off and must reconcile with nothing shed. The 1.1x lane
//     runs with --shed-policy=oldest-open and must (a) keep the watermark
//     advancing, (b) finish in bounded time (the open-loop schedule is never
//     allowed to stall on the consumer), and (c) reconcile exactly:
//       received == parsed + shed_lines
//       parsed   == emitted + shed_records          (open == 0 after Finish)
//
// All latency percentiles are coordinated-omission-safe: close latency is
// measured from the session's *intended* last-record send time on the fixed
// schedule, not from when the socket finally accepted the bytes.
//
// Output: one human table row per lane; --json=PATH writes BENCH JSON for
// scripts/check_bench_regression.py (rows keyed by "lane"; the baseline caps
// p99_close_ms per lane via max_p99_close_ms). The JSON's "identical" field
// carries the correctness verdict — reconciliation + watermark + transport —
// so the existing gate fails the build when overload accounting breaks.
//
// Flags: --quick (short lanes, CI), --seconds=S, --calib-seconds=S,
//        --workers=N, --json=PATH.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/latency_recorder.h"
#include "src/common/time_util.h"
#include "src/loadgen/load_generator.h"
#include "src/node/live_node.h"

namespace ts {
namespace {

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Flag(int argc, char** argv, const char* name, double fallback) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::atof(argv[i] + len + 1);
    }
  }
  return fallback;
}

const char* FlagStr(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return true;
    }
  }
  return false;
}

struct StudyConfig {
  bool quick = false;
  size_t workers = 2;
  double lane_seconds = 5.0;
  double calib_seconds = 3.0;
  int64_t inactivity_ns = kNanosPerSecond;
};

struct LaneResult {
  std::string lane;
  double factor = 0;
  bool shed = false;
  double goal_rate = 0;
  double achieved_rate = 0;
  double p50_close_ms = 0;
  double p99_close_ms = 0;
  double p999_close_ms = 0;
  double p99_lateness_ms = 0;
  uint64_t closes_observed = 0;
  uint64_t closes_missing = 0;
  uint64_t shed_records = 0;
  uint64_t shed_lines = 0;
  uint64_t stall_us = 0;
  double elapsed_s = 0;
  bool reconciled = false;
  bool watermark_ok = false;
  bool transport_ok = false;
  bool Ok() const { return reconciled && watermark_ok && transport_ok; }
};

double QuantMs(const LatencyRecorder& r, double q) {
  return r.count() == 0 ? 0.0 : static_cast<double>(r.ValueAtQuantile(q)) / 1e6;
}

// The consumer: the shipped live node, fed by the generator over loopback
// TCP. Per-poll batches stay small so a slow pipeline backpressures the
// socket.
LiveNodeOptions ConsumerOptions(const StudyConfig& config,
                                uint16_t upstream_port) {
  LiveNodeOptions options;
  options.ingest.emplace();
  options.ingest->port = upstream_port;
  options.ingest->max_records_per_poll = 4096;
  options.pipeline.workers = config.workers;
  options.pipeline.inactivity_ns = config.inactivity_ns;
  return options;
}

// One capacity probe: offer `rate` under exactly the lane conditions —
// subscriber attached, same inactivity window — and return the achieved wire
// rate (records flushed per second of pacing wall time).
double ProbeRate(const StudyConfig& config, double rate, bool* ok) {
  LoadGenOptions lopts;
  lopts.rate_per_s = rate;
  lopts.duration_s = config.calib_seconds;
  lopts.inactivity_ns = config.inactivity_ns;
  lopts.quiet = true;
  lopts.synth.concurrent_sessions = 512;
  lopts.synth.records_per_session = 20;
  LoadGenerator gen(lopts);
  if (!gen.Listen()) {
    *ok = false;
    return 0;
  }
  LiveNode node(ConsumerOptions(config, gen.port()), nullptr, /*log=*/nullptr);
  if (!node.Start()) {
    *ok = false;
    return 0;
  }
  std::thread consumer([&node] {
    node.Run();
    node.Shutdown();
  });
  gen.SetSubscriber("127.0.0.1", node.query_port());
  const LoadGenReport report = gen.Run();
  consumer.join();
  if (!report.ok || report.achieved_rate <= 0) {
    std::fprintf(stderr, "calibration probe failed: %s\n",
                 report.error.c_str());
    *ok = false;
    return 0;
  }
  *ok = true;
  return report.achieved_rate;
}

// Capacity = the highest sustainable offered rate, found by raising the goal
// until the wire falls behind the schedule. Probing (rather than one
// saturating blast) keeps the generator's own CPU share comparable to how the
// lanes run, so "1.1x capacity" really is supercritical on this machine.
double CalibrateCapacity(const StudyConfig& config) {
  double rate = 60'000;
  double capacity = 0;
  for (int probe = 0; probe < 8; ++probe) {
    bool ok = false;
    const double achieved = ProbeRate(config, rate, &ok);
    if (!ok) {
      return 0;
    }
    capacity = achieved;
    std::printf("  probe %d: offered %.0f r/s, achieved %.0f r/s%s\n",
                probe, rate, achieved,
                achieved < 0.97 * rate ? " (wire-limited)" : "");
    if (achieved < 0.97 * rate) {
      break;  // Unattainable: the wire rate is the drain rate.
    }
    rate *= 1.7;
  }
  return capacity;
}

LaneResult RunLane(const StudyConfig& config, double capacity, double factor,
                   bool shed) {
  LaneResult r;
  char name[32];
  std::snprintf(name, sizeof(name), "%.2fx", factor);
  r.lane = name;
  r.factor = factor;
  r.shed = shed;
  r.goal_rate = capacity * factor;

  LoadGenOptions lopts;
  lopts.rate_per_s = r.goal_rate;
  lopts.duration_s = config.lane_seconds;
  lopts.inactivity_ns = config.inactivity_ns;
  lopts.synth.seed = 11;
  lopts.synth.concurrent_sessions = 512;
  lopts.synth.records_per_session = 20;
  LoadGenerator gen(lopts);
  if (!gen.Listen()) {
    return r;
  }
  LiveNodeOptions nopts = ConsumerOptions(config, gen.port());
  if (shed) {
    nopts.pipeline.shed_policy = ShedPolicy::kOldestOpen;
    nopts.pipeline.shed_open_bytes = 8ull << 20;
    nopts.pipeline.shed_stall_limit_ms = 20;
  }
  LiveNode node(std::move(nopts), nullptr, /*log=*/nullptr);
  if (!node.Start()) {
    return r;
  }
  std::thread consumer([&node] {
    node.Run();
    node.Shutdown();
  });
  gen.SetSubscriber("127.0.0.1", node.query_port());

  const int64_t start = SteadyNowNanos();
  const LoadGenReport report = gen.Run();
  consumer.join();
  r.elapsed_s = static_cast<double>(SteadyNowNanos() - start) / 1e9;
  const auto acct = node.accounting();

  r.achieved_rate = report.achieved_rate;
  r.p50_close_ms = QuantMs(report.close_latency, 0.50);
  r.p99_close_ms = QuantMs(report.close_latency, 0.99);
  r.p999_close_ms = QuantMs(report.close_latency, 0.999);
  r.p99_lateness_ms = QuantMs(report.send_lateness, 0.99);
  r.closes_observed = report.closes_observed;
  r.closes_missing = report.closes_missing;
  r.shed_records = acct.shed_records;
  r.shed_lines = acct.shed_lines;
  r.stall_us = static_cast<uint64_t>(
      node.pipeline()->backpressure_stall_ns() / 1000);
  r.transport_ok = report.ok && !node.transport_failed() &&
                   acct.parse_failures == 0;
  r.reconciled = acct.Reconciles() &&
                 (shed || (acct.shed_records == 0 && acct.shed_lines == 0));
  r.watermark_ok = node.pipeline()->ingest_watermark() > 0;
  // An overloaded lane must still finish promptly: schedule + inactivity
  // drain + backlog flush, with margin for shared-core scheduling jitter.
  if (shed && r.elapsed_s > 8 * config.lane_seconds + 30) {
    r.transport_ok = false;
  }
  return r;
}

int Run(int argc, char** argv) {
  StudyConfig config;
  config.quick = HasFlag(argc, argv, "--quick");
  if (config.quick) {
    config.lane_seconds = 2.0;
    config.calib_seconds = 1.5;
    config.inactivity_ns = 500 * kNanosPerMilli;
  }
  config.workers = static_cast<size_t>(Flag(argc, argv, "--workers", 2));
  config.lane_seconds =
      Flag(argc, argv, "--seconds", config.lane_seconds);
  config.calib_seconds =
      Flag(argc, argv, "--calib-seconds", config.calib_seconds);

  std::printf("calibrating capacity (%.1fs probes, rising offered rate)...\n",
              config.calib_seconds);
  const double capacity = CalibrateCapacity(config);
  if (capacity <= 0) {
    std::fprintf(stderr, "overload_study: calibration produced no capacity\n");
    return 1;
  }
  std::printf("measured capacity: %.0f records/s\n\n", capacity);

  std::vector<LaneResult> lanes;
  lanes.push_back(RunLane(config, capacity, 0.80, /*shed=*/false));
  lanes.push_back(RunLane(config, capacity, 0.95, /*shed=*/false));
  lanes.push_back(RunLane(config, capacity, 1.10, /*shed=*/true));

  std::printf("%-7s %12s %12s %10s %10s %10s %10s %10s %10s %6s\n", "lane",
              "goal r/s", "achieved", "p50close", "p99close", "p999close",
              "p99late", "shed_rec", "stall_us", "ok");
  bool all_ok = true;
  for (const auto& lane : lanes) {
    all_ok = all_ok && lane.Ok();
    std::printf(
        "%-7s %12.0f %12.0f %8.1fms %8.1fms %8.1fms %8.1fms %10" PRIu64
        " %10" PRIu64 " %6s\n",
        lane.lane.c_str(), lane.goal_rate, lane.achieved_rate,
        lane.p50_close_ms, lane.p99_close_ms, lane.p999_close_ms,
        lane.p99_lateness_ms, lane.shed_records, lane.stall_us,
        lane.Ok() ? "ok" : "FAIL");
  }

  if (const char* json_path = FlagStr(argc, argv, "--json")) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"overload_study\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", config.quick ? "true" : "false");
    std::fprintf(f, "  \"capacity_rec_s\": %.0f,\n", capacity);
    std::fprintf(f, "  \"identical\": %s,\n", all_ok ? "true" : "false");
    std::fprintf(f,
                 "  \"identity_check\": \"overload lanes must reconcile "
                 "(records_in == stored + shed), keep the watermark advancing, "
                 "and finish with a clean transport\",\n");
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < lanes.size(); ++i) {
      const auto& lane = lanes[i];
      std::fprintf(
          f,
          "    {\"lane\": \"%s\", \"shed\": %s, \"goal_rate\": %.0f, "
          "\"achieved_rate\": %.0f, \"p50_close_ms\": %.3f, "
          "\"p99_close_ms\": %.3f, \"p999_close_ms\": %.3f, "
          "\"p99_lateness_ms\": %.3f, \"closes_observed\": %" PRIu64 ", "
          "\"closes_missing\": %" PRIu64 ", \"shed_records\": %" PRIu64 ", "
          "\"shed_lines\": %" PRIu64 ", \"stall_us\": %" PRIu64 ", "
          "\"reconciled\": %s}%s\n",
          lane.lane.c_str(), lane.shed ? "true" : "false", lane.goal_rate,
          lane.achieved_rate, lane.p50_close_ms, lane.p99_close_ms,
          lane.p999_close_ms, lane.p99_lateness_ms, lane.closes_observed,
          lane.closes_missing, lane.shed_records, lane.shed_lines,
          lane.stall_us, lane.Ok() ? "true" : "false",
          i + 1 < lanes.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  if (!all_ok) {
    std::fprintf(stderr, "overload_study: FAIL (see lane table)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ts

int main(int argc, char** argv) { return ts::Run(argc, argv); }
