// Session query: streams sessionization output into the bounded SessionStore
// (the substrate behind Figure 2's "UI: Query interface") and then answers the
// kinds of interactive questions an operator asks during diagnosis:
//
//   * "show me this session"            -> GetById / GetAllFragments
//   * "recent sessions touching svc X"  -> QueryByService
//   * "what ran between t1 and t2"      -> QueryByTimeRange
//   * "why was this request slow"       -> critical path over its trace trees
//
// Each query then runs a second time over the ts_query wire protocol — the
// same store served by a QueryServer on loopback, queried through
// QueryClient — and the example checks the wire answer is byte-equivalent
// to the in-process one. This is the embedded version of the three-process
// pipeline (ts_log_server | ts_sessionize --serve | ts_query).
#include <cstdio>
#include <memory>
#include <thread>

#include "src/analytics/critical_path.h"
#include "src/analytics/session_store.h"
#include "src/core/trace_tree.h"
#include "src/dataflow/ingest_driver.h"
#include "src/dataflow/sessionize.h"
#include "src/dataflow/store_sessions.h"
#include "src/query/query_client.h"
#include "src/query/query_protocol.h"
#include "src/query/query_server.h"
#include "src/timely/timely.h"

namespace {

// True iff the sessions a wire query returned re-encode to the same bytes as
// the sessions the in-process call returned.
bool WireMatches(const std::vector<ts::Session>& local,
                 const ts::QueryResponse& response) {
  if (!response.ok || response.sessions.size() != local.size()) {
    return false;
  }
  for (size_t i = 0; i < local.size(); ++i) {
    if (ts::EncodeSessionBlock(local[i]) !=
        ts::EncodeSessionBlock(response.sessions[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ts;
  const double rate = argc > 1 ? std::atof(argv[1]) : 15'000;

  GeneratorConfig gen;
  gen.seed = 21;
  gen.duration_ns = 6 * kNanosPerSecond;
  gen.target_records_per_sec = rate;

  ReplayerConfig replay;
  replay.num_servers = 42;
  replay.num_processes = 1263;
  replay.num_workers = 2;
  auto replayer = std::make_shared<Replayer>(replay, gen);

  SessionStore::Options store_options;
  store_options.max_bytes = 128ull << 20;
  auto store = std::make_shared<SessionStore>(store_options);

  // Ingest + sessionize + store. The store fills while the stream runs; in a
  // deployment, queries run concurrently (the store is thread-safe).
  Computation::Options options;
  options.workers = 2;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, records] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess;
    sess.inactivity_epochs = 5;
    auto [sessions, metrics] = Sessionize(scope, records, sess);
    StoreSessions(scope, sessions, store);
    auto probe = scope.Probe(
        scope.Map<Session, Unit>(sessions, "tail", [](Session) { return Unit{}; }),
        "probe");
    IngestDriver::Options ingest;
    ingest.slack_ns = 2 * kNanosPerSecond;
    auto driver = std::make_shared<IngestDriver>(replayer.get(),
                                                 scope.worker_index(), input, ingest);
    driver->SetGate(probe);
    scope.AddDriver([driver] { return driver->Step(); });
  });

  const auto stats = store.get()->stats();
  std::printf("Store: %zu sessions, %.1f MiB (inserted %llu, evicted %llu)\n\n",
              stats.sessions, static_cast<double>(stats.bytes) / (1 << 20),
              static_cast<unsigned long long>(stats.inserted),
              static_cast<unsigned long long>(stats.evicted));

  // Serve the same store over loopback TCP and query it through the wire
  // client as well — every answer below is checked against the in-process
  // call byte-for-byte.
  QueryServerOptions server_options;
  QueryServer server(server_options, store);
  if (!server.Start()) {
    std::fprintf(stderr, "cannot start query server\n");
    return 1;
  }
  std::thread server_thread([&server] { server.Run(); });
  QueryClientOptions client_options;
  client_options.port = server.port();
  QueryClient client(client_options);
  if (!client.Connect()) {
    std::fprintf(stderr, "cannot connect to query server\n");
    return 1;
  }
  std::printf("Query server on 127.0.0.1:%u, wire client connected\n\n",
              server.port());

  // Query 1: time range — the second second of the trace.
  auto in_window =
      store->QueryByTimeRange(1 * kNanosPerSecond, 2 * kNanosPerSecond, 5);
  std::printf("Q1: sessions active in [1s, 2s): %zu shown\n", in_window.size());
  for (const auto& s : in_window) {
    std::printf("    %s  %zu records  [%0.2fs..%0.2fs]\n", s.id.c_str(),
                s.records.size(), static_cast<double>(s.MinTime()) / 1e9,
                static_cast<double>(s.MaxTime()) / 1e9);
  }
  if (in_window.empty()) {
    std::printf("    (none)\n");
  }
  std::printf("    wire RANGE matches in-process: %s\n",
              WireMatches(in_window,
                          client.ByRange(1 * kNanosPerSecond,
                                         2 * kNanosPerSecond, 5))
                  ? "yes"
                  : "NO");

  // Query 2: drill into the largest of those sessions.
  const Session* biggest = nullptr;
  for (const auto& s : in_window) {
    if (biggest == nullptr || s.records.size() > biggest->records.size()) {
      biggest = &s;
    }
  }
  if (biggest != nullptr) {
    auto fetched = store->GetById(biggest->id, biggest->fragment_index);
    std::printf("\nQ2: GetById(%s) -> %s\n", biggest->id.c_str(),
                fetched ? "hit" : "miss");
    if (fetched) {
      std::printf("    wire GET matches in-process: %s\n",
                  WireMatches({*fetched},
                              client.Get(biggest->id, biggest->fragment_index))
                      ? "yes"
                      : "NO");
      auto trees = TraceTree::FromSession(*fetched);
      std::printf("    %zu trace tree(s)\n", trees.size());
      // Query 4 rolled in: why slow? Critical path of the slowest tree.
      const TraceTree* slowest = nullptr;
      for (const auto& t : trees) {
        if (slowest == nullptr || t.Duration() > slowest->Duration()) {
          slowest = &t;
        }
      }
      if (slowest != nullptr && slowest->total_records() >= 2) {
        auto path = ComputeCriticalPath(*slowest);
        std::printf("    slowest tree: %0.2f ms; critical path (%zu spans):\n",
                    static_cast<double>(path.total_ns) / 1e6, path.steps.size());
        for (const auto& step : path.steps) {
          std::printf("      svc-%-6u exclusive %0.2f ms (%.0f%%)\n", step.service,
                      static_cast<double>(step.exclusive_ns) / 1e6,
                      100.0 * static_cast<double>(step.exclusive_ns) /
                          static_cast<double>(std::max<EventTime>(1, path.total_ns)));
        }
      }
    }
    // Query 3: other recent sessions touching the same entry service.
    if (!biggest->records.empty()) {
      const uint32_t svc = biggest->records.front().service;
      auto peers = store->QueryByService(svc, 3);
      std::printf("\nQ3: recent sessions touching svc-%u: %zu\n", svc, peers.size());
      for (const auto& p : peers) {
        std::printf("    %s (%zu records)\n", p.id.c_str(), p.records.size());
      }
      std::printf("    wire SERVICE matches in-process: %s\n",
                  WireMatches(peers, client.ByService(svc, 3)) ? "yes" : "NO");
    }
  }

  // The server also exports store + serving gauges over the wire.
  auto wire_stats = client.Stats();
  std::printf("\nWire STATS: %zu gauges (store_sessions, store_bytes, ...)\n",
              wire_stats.stats.size());

  server.Stop();
  server_thread.join();
  return 0;
}
