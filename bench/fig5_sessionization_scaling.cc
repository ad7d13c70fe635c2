// Figure 5: "Latency per epoch (1 sec) of log data for sessionization on our
// system using x workers", full log rate, 1263 input streams from 42 simulated
// log servers, configurations (1,1)..(1,16),(2,16),(3,16),(4,16).
//
// Up to 16 workers share the evaluation VM's 4 cores, so the scaling series
// reports per-epoch critical-path latency (max over workers of attributed
// thread-CPU time) next to raw wall clock; see bench_common.h and DESIGN.md
// §3. "Hosts" beyond one are modelled as additional workers (the engine's
// exchange and progress planes are identical in structure; a real deployment
// adds network transfer cost, which the paper found small next to compute
// until >16 workers).
//
// Every configuration sessionizes the same trace, so the session count must
// not depend on the worker count: the bench exits 1 if it does.
//
// Flags: --rate (records/s), --seconds (trace length), --max_workers,
// --max_hosts.
#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ts;
  using namespace ts::bench;
  const double rate = FlagDouble(argc, argv, "--rate", 30'000);
  const int64_t seconds = FlagInt(argc, argv, "--seconds", 12);
  const int64_t max_workers = FlagInt(argc, argv, "--max_workers", 16);
  const int64_t max_hosts = FlagInt(argc, argv, "--max_hosts", 2);

  std::printf("=== Figure 5: per-epoch sessionization latency vs workers ===\n");
  std::printf("Full simulated log pipeline: 1263 streams / 42 servers; trace %llds "
              "at %.0f records/s\n(paper: 1 hour at 1.3M records/s on 4x16-core "
              "hosts)\n\n",
              static_cast<long long>(seconds), rate);

  struct Config {
    int hosts;
    int workers;
  };
  std::vector<Config> configs;
  for (int w = 1; w <= max_workers; w *= 2) {
    configs.push_back({1, w});
  }
  // Multi-host rows (modelled as worker groups; raise --max_hosts to 4 for the
  // paper's full sweep — 48/64 threads are slow on a single-core container).
  for (int h = 2; h <= max_hosts; ++h) {
    configs.push_back({h, static_cast<int>(max_workers)});
  }

  PrintBoxHeader("(hosts,workers)");
  struct Row {
    std::string label;
    double median_cp;
    double progress_deltas_per_epoch;
    double wall_median;
    uint64_t sessions;
  };
  std::vector<Row> rows;
  for (const auto& c : configs) {
    PipelineOptions options;
    options.workers = static_cast<size_t>(c.hosts * c.workers);
    options.gen.seed = 42;
    options.gen.duration_ns = seconds * kNanosPerSecond;
    options.gen.target_records_per_sec = rate;
    options.inactivity_epochs = 5;

    auto result = RunPipeline(options);
    SampleSet critical = result.CriticalPathMs();
    SampleSet wall = result.WallLatenciesMs();
    char label[32];
    std::snprintf(label, sizeof(label), "(%d,%d)", c.hosts, c.workers);
    PrintBoxRow(std::string(label) + " critical", critical);
    rows.push_back(Row{label, critical.empty() ? 0 : critical.Median(),
                       static_cast<double>(result.run.progress_deltas) /
                           static_cast<double>(std::max<size_t>(1, result.epochs.size())),
                       wall.empty() ? 0 : wall.Median(), result.sessions});
  }

  std::printf("\n--- Summary: median critical-path latency and coordination ---\n");
  std::printf("%-16s %14s %14s %16s %10s\n", "(hosts,workers)", "critical ms",
              "wall ms", "progress/epoch", "sessions");
  for (const auto& r : rows) {
    std::printf("%-16s %14.2f %14.2f %16.0f %10llu\n", r.label.c_str(), r.median_cp,
                r.wall_median, r.progress_deltas_per_epoch,
                static_cast<unsigned long long>(r.sessions));
  }
  std::printf(
      "\nPaper shape: latency drops with added workers until parallelism is\n"
      "exhausted (~8-16); beyond that, per-epoch coordination (progress traffic,\n"
      "which grows with workers above) and load imbalance erase further gains.\n");
  for (const auto& r : rows) {
    if (r.sessions != rows.front().sessions) {
      std::fprintf(stderr, "FAIL: %s emitted %llu sessions, %s emitted %llu\n",
                   r.label.c_str(), static_cast<unsigned long long>(r.sessions),
                   rows.front().label.c_str(),
                   static_cast<unsigned long long>(rows.front().sessions));
      return 1;
    }
  }
  return 0;
}
