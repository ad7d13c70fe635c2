// Incident diagnosis: runs the pipeline against a degraded logging
// infrastructure — record loss, clock skew, and straggling log servers — and
// produces the data-quality report an operator would use (§2.3: incomplete
// logs, clock desynchronization, reordered logs).
//
// Shows how reconstruction degrades gracefully: sessions still close, trees
// are still built, and the damage (inferred spans, implied-missing siblings,
// causality anomalies, dropped stragglers) is quantified rather than silently
// wrong.
#include <atomic>
#include <cstdio>
#include <memory>

#include "src/dataflow/ingest_driver.h"
#include "src/dataflow/sessionize.h"
#include "src/dataflow/tree_ops.h"
#include "src/timely/timely.h"

int main(int argc, char** argv) {
  using namespace ts;
  const double loss = argc > 1 ? std::atof(argv[1]) : 0.05;

  GeneratorConfig gen;
  gen.seed = 99;
  gen.duration_ns = 8 * kNanosPerSecond;
  gen.target_records_per_sec = 15'000;
  gen.record_loss_rate = loss;                    // Lost log records (§2.3).
  gen.clock_skew_sigma_ns = 2 * kNanosPerMilli;   // Desynchronized producers.

  ReplayerConfig replay;
  replay.num_servers = 42;
  replay.num_processes = 1263;
  replay.num_workers = 2;
  replay.as_text = true;
  replay.straggler_prob = 5e-4;                   // Overloaded log servers.
  replay.straggler_max_ns = 60 * kNanosPerSecond;
  auto replayer = std::make_shared<Replayer>(replay, gen);

  std::printf("Incident drill: %.0f%% record loss, 2ms clock skew, straggling "
              "log servers\n\n",
              100 * loss);

  std::atomic<uint64_t> trees{0};
  std::atomic<uint64_t> damaged_trees{0};
  std::atomic<uint64_t> inferred_spans{0};
  std::atomic<uint64_t> implied_missing{0};
  std::atomic<uint64_t> causality_anomalies{0};
  std::atomic<uint64_t> sessions{0};
  std::atomic<uint64_t> dropped{0};

  Computation::Options options;
  options.workers = 2;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, records] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess;
    sess.inactivity_epochs = 5;
    auto [session_stream, metrics] = Sessionize(scope, records, sess);
    auto counted = scope.Inspect<Session>(session_stream, "count",
                                          [&sessions](Epoch, const Session&) {
                                            sessions.fetch_add(1);
                                          });
    auto tree_stream = ConstructTraceTrees(scope, counted);
    auto analyzed = scope.Inspect<TraceTree>(
        tree_stream, "analyze", [&](Epoch, const TraceTree& t) {
          trees.fetch_add(1);
          bool damaged = false;
          if (t.num_inferred() > 0) {
            inferred_spans.fetch_add(t.num_inferred());
            damaged = true;
          }
          const size_t missing = t.ImpliedMissingChildren();
          if (missing > 0) {
            implied_missing.fetch_add(missing);
            damaged = true;
          }
          // Causality check: a child span observed to start before its parent
          // (clock skew, §2.3 "messages may appear to be received before they
          // were originally sent").
          for (const auto& n : t.nodes()) {
            if (n.parent >= 0 && !n.inferred && !t.nodes()[n.parent].inferred &&
                n.start < t.nodes()[n.parent].start) {
              causality_anomalies.fetch_add(1);
              damaged = true;
              break;
            }
          }
          if (damaged) {
            damaged_trees.fetch_add(1);
          }
        });
    auto probe = scope.Probe(analyzed, "probe");

    IngestDriver::Options ingest;
    ingest.slack_ns = 2 * kNanosPerSecond;  // Stragglers beyond this are cut.
    auto driver = std::make_shared<IngestDriver>(replayer.get(),
                                                 scope.worker_index(), input, ingest);
    driver->SetGate(probe);
    scope.AddDriver([driver, &dropped]() {
      const DriverStatus status = driver->Step();
      if (status == DriverStatus::kFinished) {
        dropped.fetch_add(driver->reorder_stats().discarded_late);
      }
      return status;
    });
  });

  std::printf("=== Data-quality report ===\n");
  std::printf("  sessions reconstructed:        %llu\n",
              static_cast<unsigned long long>(sessions.load()));
  std::printf("  trace trees:                   %llu\n",
              static_cast<unsigned long long>(trees.load()));
  std::printf("  trees with detectable damage:  %llu (%.1f%%)\n",
              static_cast<unsigned long long>(damaged_trees.load()),
              100.0 * static_cast<double>(damaged_trees.load()) /
                  static_cast<double>(std::max<uint64_t>(1, trees.load())));
  std::printf("  spans inferred from children:  %llu\n",
              static_cast<unsigned long long>(inferred_spans.load()));
  std::printf("  siblings implied but missing:  %llu\n",
              static_cast<unsigned long long>(implied_missing.load()));
  std::printf("  causality anomalies (skew):    %llu\n",
              static_cast<unsigned long long>(causality_anomalies.load()));
  std::printf("  straggler records discarded:   %llu (re-order slack 2s)\n",
              static_cast<unsigned long long>(dropped.load()));
  std::printf("\nReconstruction continues under degradation; the damage is "
              "quantified per tree\nso downstream analyses can filter or "
              "reweight (paper §2.3, §5.2).\n");
  return 0;
}
