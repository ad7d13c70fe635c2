// Live monitoring: the §5.2 dashboard — per-epoch top-10 trace-tree
// signatures (structure clustering) and top-10 communicating service pairs,
// computed online on top of sessionization over the simulated log pipeline.
//
// This is the "show_each_epoch()" composition from the paper's §4.3 listing.
#include <cstdio>
#include <memory>
#include <mutex>

#include "src/common/siphash.h"
#include "src/dataflow/ingest_driver.h"
#include "src/dataflow/sessionize.h"
#include "src/dataflow/topk.h"
#include "src/dataflow/tree_ops.h"
#include "src/timely/timely.h"

int main(int argc, char** argv) {
  using namespace ts;
  const double rate = argc > 1 ? std::atof(argv[1]) : 20'000;
  const int seconds = argc > 2 ? std::atoi(argv[2]) : 10;

  GeneratorConfig gen;
  gen.seed = 42;
  gen.duration_ns = static_cast<EventTime>(seconds) * kNanosPerSecond;
  gen.target_records_per_sec = rate;

  ReplayerConfig replay;
  replay.num_servers = 42;
  replay.num_processes = 1263;
  replay.num_workers = 2;
  replay.as_text = true;
  auto replayer = std::make_shared<Replayer>(replay, gen);

  std::printf("Live monitoring: %d s of logs at %.0f records/s, 2 workers\n\n",
              seconds, rate);

  std::mutex print_mu;
  Computation::Options options;
  options.workers = 2;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, records] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess;
    sess.inactivity_epochs = 5;
    auto [sessions, metrics] = Sessionize(scope, records, sess);
    auto trees = ConstructTraceTrees(scope, sessions);

    // Task 1: classify trace trees by structure (top-10 signatures).
    auto signatures = scope.Map<TraceTree, std::string>(
        trees, "signature", [](TraceTree t) { return t.SignatureKey(); });
    auto sig_topk = TopKPerEpoch<std::string, std::string>(
        scope, signatures, 10, [](const std::string& s) { return s; },
        [](const std::string& s) { return SipHash24(s); }, "sig");

    // Task 2: identify pairs of communicating services (top-10 pairs).
    auto pairs = scope.FlatMap<TraceTree, uint64_t>(
        trees, "pairs", [](TraceTree t, std::vector<uint64_t>& out) {
          for (const auto& [a, b] : t.ServiceCallPairs()) {
            out.push_back((static_cast<uint64_t>(a) << 32) | b);
          }
        });
    auto pair_topk = TopKPerEpoch<uint64_t, uint64_t>(
        scope, pairs, 10, [](const uint64_t& p) { return p; },
        [](const uint64_t& p) { return SipHash24(p); }, "pair");

    scope.Sink<TopKResult<std::string>>(
        sig_topk, "show_sigs",
        [&print_mu](Epoch, std::vector<TopKResult<std::string>>& results) {
          std::lock_guard<std::mutex> lock(print_mu);
          for (const auto& r : results) {
            std::printf("[epoch %llu] top tree structures: ",
                        static_cast<unsigned long long>(r.epoch));
            for (size_t i = 0; i < std::min<size_t>(5, r.entries.size()); ++i) {
              std::printf("%s(x%llu) ", r.entries[i].first.c_str(),
                          static_cast<unsigned long long>(r.entries[i].second));
            }
            std::printf("...\n");
          }
        });
    scope.Sink<TopKResult<uint64_t>>(
        pair_topk, "show_pairs",
        [&print_mu](Epoch, std::vector<TopKResult<uint64_t>>& results) {
          std::lock_guard<std::mutex> lock(print_mu);
          for (const auto& r : results) {
            std::printf("[epoch %llu] hot service pairs:   ",
                        static_cast<unsigned long long>(r.epoch));
            for (size_t i = 0; i < std::min<size_t>(5, r.entries.size()); ++i) {
              const uint32_t parent = static_cast<uint32_t>(r.entries[i].first >> 32);
              const uint32_t child = static_cast<uint32_t>(r.entries[i].first);
              std::printf("svc%u->svc%u(x%llu) ", parent, child,
                          static_cast<unsigned long long>(r.entries[i].second));
            }
            std::printf("...\n");
          }
        });

    auto probe = scope.Probe(
        scope.Map<TopKResult<uint64_t>, Unit>(pair_topk, "tail",
                                              [](TopKResult<uint64_t>) {
                                                return Unit{};
                                              }),
        "probe");
    IngestDriver::Options ingest;
    ingest.slack_ns = 2 * kNanosPerSecond;
    auto driver = std::make_shared<IngestDriver>(replayer.get(),
                                                 scope.worker_index(), input, ingest);
    driver->SetGate(probe);
    scope.AddDriver([driver] { return driver->Step(); });
  });

  std::printf("\nDashboards updated once per epoch, in real time (paper Fig. 9).\n");
  return 0;
}
