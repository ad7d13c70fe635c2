// Resource attribution: "relate all pieces of work done in individual
// components back to their originating request or tenant" (§2.1).
//
// Attributes per-span busy time and invocation counts to services using the
// reconstructed trace trees, online, and prints the per-service account at the
// end — the foundation for chargeback, capacity planning, and placement
// decisions (e.g. the replica-placement use the paper suggests for hot
// communicating pairs).
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/dataflow/ingest_driver.h"
#include "src/dataflow/sessionize.h"
#include "src/dataflow/tree_ops.h"
#include "src/timely/timely.h"

namespace {

struct ServiceAccount {
  uint64_t invocations = 0;
  int64_t busy_ns = 0;       // Sum of span wall time attributed to the service.
  uint64_t records = 0;      // Log records emitted (logging overhead proxy).
  uint64_t as_root = 0;      // Times the service fronted a request.
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ts;
  const double rate = argc > 1 ? std::atof(argv[1]) : 20'000;

  GeneratorConfig gen;
  gen.seed = 7;
  gen.duration_ns = 8 * kNanosPerSecond;
  gen.target_records_per_sec = rate;

  ReplayerConfig replay;
  replay.num_servers = 42;
  replay.num_processes = 1263;
  replay.num_workers = 2;
  auto replayer = std::make_shared<Replayer>(replay, gen);

  std::mutex mu;
  std::map<uint32_t, ServiceAccount> accounts;

  Computation::Options options;
  options.workers = 2;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, records] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess;
    sess.inactivity_epochs = 5;
    auto [sessions, metrics] = Sessionize(scope, records, sess);
    auto trees = ConstructTraceTrees(scope, sessions);

    scope.Sink<TraceTree>(trees, "attribute", [&](Epoch, std::vector<TraceTree>& out) {
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& tree : out) {
        for (const auto& node : tree.nodes()) {
          if (node.inferred) {
            continue;
          }
          ServiceAccount& account = accounts[node.service];
          ++account.invocations;
          account.busy_ns += node.end - node.start;
          account.records += node.num_records;
          if (node.parent == -1) {
            ++account.as_root;
          }
        }
      }
    });

    auto probe = scope.Probe(
        scope.Map<TraceTree, Unit>(trees, "tail", [](TraceTree) { return Unit{}; }),
        "probe");
    IngestDriver::Options ingest;
    ingest.slack_ns = 2 * kNanosPerSecond;
    auto driver = std::make_shared<IngestDriver>(replayer.get(),
                                                 scope.worker_index(), input, ingest);
    driver->SetGate(probe);
    scope.AddDriver([driver] { return driver->Step(); });
  });

  // Rank by attributed busy time.
  std::vector<std::pair<uint32_t, ServiceAccount>> ranked(accounts.begin(),
                                                          accounts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.busy_ns > b.second.busy_ns;
  });

  std::printf("=== Per-service resource attribution (top 15 by busy time) ===\n");
  std::printf("%-10s %12s %14s %12s %10s\n", "service", "invocations",
              "busy time", "log records", "as root");
  int64_t total_busy = 0;
  for (const auto& [svc, account] : ranked) {
    total_busy += account.busy_ns;
  }
  for (size_t i = 0; i < std::min<size_t>(15, ranked.size()); ++i) {
    const auto& [svc, account] = ranked[i];
    std::printf("svc-%-6u %12llu %14s %12llu %10llu\n", svc,
                static_cast<unsigned long long>(account.invocations),
                FormatNanos(static_cast<double>(account.busy_ns)).c_str(),
                static_cast<unsigned long long>(account.records),
                static_cast<unsigned long long>(account.as_root));
  }
  std::printf("\n%zu services active; total attributed busy time %s.\n",
              ranked.size(), FormatNanos(static_cast<double>(total_busy)).c_str());
  std::printf("Attribution follows the hierarchical transaction IDs, so work "
              "is charged to the\nrequest that caused it even across "
              "service boundaries (§2.1).\n");
  return 0;
}
