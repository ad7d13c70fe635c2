// Shared harness for the table/figure benchmarks: runs the full TS pipeline
// (replayer -> ingest -> sessionize [-> analytics]) and measures what the
// paper measures.
//
// Latency per epoch follows §5.1: "the interval between (i) the first time an
// epoch is observed, and (ii) the time a punctuation is delivered by the
// system, confirming that the epoch is over" — here, first Give() of a record
// of the epoch to the probe's frontier passing the epoch.
//
// The evaluation VM has 4 cores shared with the load generator, so m worker
// threads can timeshare cores and wall-clock latency cannot show scaling. Alongside wall
// clock we therefore record each worker's per-epoch thread-CPU time and report
// the critical path max_w cpu_w(e) — the epoch latency the run would achieve
// with one core per worker (workers only synchronize through asynchronous
// progress exchange). See DESIGN.md §3 (substitutions).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/mem_probe.h"
#include "src/common/siphash.h"
#include "src/common/stats.h"
#include "src/common/thread_timer.h"
#include "src/dataflow/collectors.h"
#include "src/dataflow/ingest_driver.h"
#include "src/dataflow/session_stats.h"
#include "src/dataflow/sessionize.h"
#include "src/dataflow/topk.h"
#include "src/dataflow/tree_ops.h"
#include "src/timely/timely.h"

namespace ts {
namespace bench {

inline int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Which analytics stages to attach downstream of sessionization.
struct AnalyticsSelection {
  bool trace_trees = false;
  bool signature_topk = false;  // §5.2 online trace-tree clustering.
  bool pair_topk = false;       // §5.2 communication-pattern mining.
  size_t k = 10;
};

struct PipelineOptions {
  size_t workers = 2;
  GeneratorConfig gen;
  size_t num_servers = 42;
  size_t num_processes = 1263;
  bool as_text = true;
  double straggler_prob = 0.0;
  EventTime straggler_max_ns = 500 * kNanosPerSecond;
  EventTime slack_ns = 2 * kNanosPerSecond;
  size_t gate_lookahead = 2;
  Epoch inactivity_epochs = 5;
  EventTime epoch_width_ns = kDefaultEpochWidthNs;  // §4.1 granularity ablation.
  AnalyticsSelection analytics;
  uint64_t replay_seed = 7;
};

struct EpochStats {
  int64_t first_give_ns = std::numeric_limits<int64_t>::max();
  int64_t done_ns = 0;
  int64_t cpu_max_ns = 0;    // Max over workers of attributed CPU.
  int64_t cpu_total_ns = 0;  // Sum over workers.
  int64_t input_cpu_ns = 0;  // Ingest-driver CPU (subset of cpu_total).
  uint64_t records = 0;

  double WallLatencyMs() const {
    if (done_ns == 0 || first_give_ns == std::numeric_limits<int64_t>::max()) {
      return 0;
    }
    return static_cast<double>(done_ns - first_give_ns) / 1e6;
  }
  double CriticalPathMs() const { return static_cast<double>(cpu_max_ns) / 1e6; }
};

struct PipelineResult {
  std::map<Epoch, EpochStats> epochs;
  uint64_t records_fed = 0;
  uint64_t reorder_dropped = 0;
  uint64_t sessions = 0;
  uint64_t trees = 0;
  int64_t input_cpu_ns = 0;
  size_t peak_reorder_bytes = 0;
  size_t peak_session_state_bytes = 0;
  size_t peak_rss_bytes = 0;
  RunResult run;

  // Per-epoch sample sets over epochs that actually carried data.
  SampleSet WallLatenciesMs() const {
    SampleSet s;
    for (const auto& [e, stats] : epochs) {
      if (stats.records > 0 && stats.done_ns != 0) {
        s.Add(stats.WallLatencyMs());
      }
    }
    return s;
  }
  SampleSet CriticalPathMs() const {
    SampleSet s;
    for (const auto& [e, stats] : epochs) {
      if (stats.records > 0) {
        s.Add(stats.CriticalPathMs());
      }
    }
    return s;
  }
};

// Runs the pipeline to completion and aggregates per-epoch measurements.
inline PipelineResult RunPipeline(const PipelineOptions& options) {
  ReplayerConfig replay_config;
  replay_config.num_servers = options.num_servers;
  replay_config.num_processes = options.num_processes;
  replay_config.num_workers = options.workers;
  replay_config.as_text = options.as_text;
  replay_config.straggler_prob = options.straggler_prob;
  replay_config.straggler_max_ns = options.straggler_max_ns;
  replay_config.seed = options.replay_seed;
  auto replayer = std::make_shared<Replayer>(replay_config, options.gen);

  PipelineResult result;
  std::mutex registry_mu;
  struct WorkerMeasure {
    std::map<Epoch, int64_t> done_ns;
    std::map<Epoch, int64_t> cpu_ns;
    Epoch completed_cursor = 0;
    int64_t last_cpu = 0;
    int64_t final_done_ns = 0;
  };
  std::vector<std::shared_ptr<IngestDriver>> drivers;
  std::vector<std::shared_ptr<WorkerMeasure>> measures;
  std::vector<std::shared_ptr<SessionizeMetrics>> worker_metrics;
  std::atomic<uint64_t> sessions{0};
  std::atomic<uint64_t> trees{0};

  Computation::Options copts;
  copts.workers = options.workers;
  result.run = Computation::Run(copts, [&](Scope& scope) {
    auto [input, stream] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess_options;
    sess_options.inactivity_epochs = options.inactivity_epochs;
    auto [session_stream, metrics] = Sessionize(scope, stream, sess_options);
    auto counted = scope.Inspect<Session>(
        session_stream, "count_sessions",
        [&sessions](Epoch, const Session&) {
          sessions.fetch_add(1, std::memory_order_relaxed);
        });

    // Optional analytics stages; the probe is attached after the last stage so
    // epoch latency includes them (as in Figure 9).
    ProbeHandle probe;
    if (options.analytics.trace_trees) {
      auto tree_stream = ConstructTraceTrees(scope, counted);
      auto tree_counted = scope.Inspect<TraceTree>(
          tree_stream, "count_trees", [&trees](Epoch, const TraceTree&) {
            trees.fetch_add(1, std::memory_order_relaxed);
          });
      std::vector<Stream<Unit>> tails;
      if (options.analytics.signature_topk) {
        auto sigs = scope.Map<TraceTree, std::string>(
            tree_counted, "signature",
            [](TraceTree t) { return t.SignatureKey(); });
        auto topk = TopKPerEpoch<std::string, std::string>(
            scope, sigs, options.analytics.k,
            [](const std::string& s) { return s; },
            [](const std::string& s) { return SipHash24(s); }, "sig_topk");
        tails.push_back(scope.Map<TopKResult<std::string>, Unit>(
            topk, "sig_done", [](TopKResult<std::string>) { return Unit{}; }));
      }
      if (options.analytics.pair_topk) {
        auto pairs = scope.FlatMap<TraceTree, uint64_t>(
            tree_counted, "service_pairs",
            [](TraceTree t, std::vector<uint64_t>& out) {
              for (const auto& [a, b] : t.ServiceCallPairs()) {
                out.push_back((static_cast<uint64_t>(a) << 32) | b);
              }
            });
        auto topk = TopKPerEpoch<uint64_t, uint64_t>(
            scope, pairs, options.analytics.k,
            [](const uint64_t& p) { return p; },
            [](const uint64_t& p) { return SipHash24(p); }, "pair_topk");
        tails.push_back(scope.Map<TopKResult<uint64_t>, Unit>(
            topk, "pair_done", [](TopKResult<uint64_t>) { return Unit{}; }));
      }
      if (tails.empty()) {
        probe = scope.Probe(tree_counted, "probe");
      } else if (tails.size() == 1) {
        probe = scope.Probe(tails[0], "probe");
      } else {
        probe = scope.Probe(scope.Concat(tails, "tails"), "probe");
      }
    } else {
      probe = scope.Probe(counted, "probe");
    }

    IngestDriver::Options ingest_options;
    ingest_options.slack_ns = options.slack_ns;
    ingest_options.gate_lookahead_epochs = options.gate_lookahead;
    ingest_options.epoch_width_ns = options.epoch_width_ns;
    auto driver = std::make_shared<IngestDriver>(
        replayer.get(), scope.worker_index(), input, ingest_options);
    driver->SetGate(probe);

    auto measure = std::make_shared<WorkerMeasure>();
    measure->last_cpu = ThreadCpuNanos();
    {
      std::lock_guard<std::mutex> lock(registry_mu);
      drivers.push_back(driver);
      measures.push_back(measure);
      worker_metrics.push_back(metrics);
    }

    scope.AddDriver([driver]() { return driver->Step(); });

    scope.AddStepCallback([measure, probe]() {
      // Attribute CPU consumed since the last step to the epoch currently
      // being completed (the min of the probe frontier).
      const int64_t now_cpu = ThreadCpuNanos();
      const Frontier f = probe.frontier();
      const Epoch active = f.done() ? measure->completed_cursor : f.min();
      measure->cpu_ns[active] += now_cpu - measure->last_cpu;
      measure->last_cpu = now_cpu;
      // Record completion wall time for every newly complete epoch.
      while (!probe.frontier().done() && probe.Beyond(measure->completed_cursor)) {
        measure->done_ns[measure->completed_cursor] = SteadyNowNanos();
        ++measure->completed_cursor;
      }
      if (probe.frontier().done()) {
        // Stream complete: stamp everything up to the last fed epoch lazily at
        // merge time (done below with the final timestamp).
        measure->final_done_ns = SteadyNowNanos();
      }
    });
  });

  // Merge per-worker measurements (the computation has joined).
  for (size_t w = 0; w < drivers.size(); ++w) {
    const auto& driver = drivers[w];
    const auto& measure = measures[w];
    result.reorder_dropped += driver->reorder_stats().discarded_late;
    result.input_cpu_ns += driver->total_input_cpu_ns();
    result.peak_reorder_bytes =
        std::max(result.peak_reorder_bytes, driver->peak_reorder_bytes());
    result.peak_session_state_bytes = std::max(
        result.peak_session_state_bytes, worker_metrics[w]->peak_state_bytes);
    for (const auto& [e, ingest] : driver->epochs()) {
      EpochStats& s = result.epochs[e];
      if (ingest.first_give_steady_ns >= 0) {
        s.first_give_ns = std::min(s.first_give_ns, ingest.first_give_steady_ns);
      }
      s.records += ingest.records;
      s.input_cpu_ns += ingest.input_cpu_ns;
      result.records_fed += ingest.records;
    }
    for (const auto& [e, ns] : measure->done_ns) {
      result.epochs[e].done_ns = std::max(result.epochs[e].done_ns, ns);
    }
    for (const auto& [e, cpu] : measure->cpu_ns) {
      EpochStats& s = result.epochs[e];
      s.cpu_max_ns = std::max(s.cpu_max_ns, cpu);
      s.cpu_total_ns += cpu;
    }
    // Epochs that completed only at stream end (no individual completion
    // observation): stamp with the final completion time.
    if (measure->final_done_ns > 0) {
      for (auto& [e, s] : result.epochs) {
        if (s.done_ns == 0 && s.records > 0) {
          s.done_ns = std::max(s.done_ns, measure->final_done_ns);
        }
      }
    }
  }

  result.sessions = sessions.load();
  result.trees = trees.load();
  result.peak_rss_bytes = PeakRssBytes();
  return result;
}

// Minimal command-line flag helpers so every bench runs with sensible
// defaults under `for b in build/bench/*; do $b; done` but remains tunable.
inline double FlagDouble(int argc, char** argv, const std::string& name,
                         double fallback) {
  const std::string prefix = name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::stod(arg.substr(prefix.size()));
    }
  }
  return fallback;
}

inline int64_t FlagInt(int argc, char** argv, const std::string& name,
                       int64_t fallback) {
  return static_cast<int64_t>(FlagDouble(argc, argv, name,
                                         static_cast<double>(fallback)));
}

// Prints one box-plot row (the paper's figures are box-and-whisker plots).
inline void PrintBoxHeader(const char* label) {
  std::printf("%-22s %10s %10s %10s %10s %10s %8s %6s\n", label, "p25", "median",
              "p75", "whisk_lo", "whisk_hi", "mean", "n");
}

inline void PrintBoxRow(const std::string& label, SampleSet& samples) {
  if (samples.empty()) {
    std::printf("%-22s %10s\n", label.c_str(), "(no data)");
    return;
  }
  BoxSummary box = Summarize(samples);
  std::printf("%-22s %10.2f %10.2f %10.2f %10.2f %10.2f %8.2f %6zu\n",
              label.c_str(), box.q1, box.median, box.q3, box.whisker_lo,
              box.whisker_hi, box.mean, box.count);
}

}  // namespace bench
}  // namespace ts

#endif  // BENCH_BENCH_COMMON_H_
