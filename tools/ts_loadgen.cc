// ts_loadgen: open-loop skewed load generator for the TS1 ingest path.
//
// Acts as the TS1 *server* (the role ts_log_server plays), so the consumer is
// pointed at it unchanged:
//
//   ts_loadgen --rate=200000 --seconds=10 --subscribe-port-file=q.port
//   ts_sessionize --connect=127.0.0.1:<port> --serve=0 --inactivity_s=1
//                 --workers=2 [--shed-policy=oldest-open]
//
// Prints its bound port first, alone on a stdout line (ts_log_server
// convention), then generates synthetic sessions at the goal records/s on an
// open-loop Poisson or uniform schedule, subscribes to the consumer's query
// port, and reports coordinated-omission-safe close-latency percentiles
// measured from each session's *intended* last-record send time. See
// docs/LOADGEN.md for the methodology.
//
// Flags:
//   --listen=PORT       TS1 listen port (default 0 = ephemeral)
//   --rate=N            goal records/s (default 50000)
//   --seconds=S         main schedule duration (default 5)
//   --arrival=poisson|uniform   inter-arrival process (default poisson)
//   --sessions=N        concurrent session slots (default 256)
//   --records-per-session=N     records before a session retires (default 20)
//   --session-skew=Z    Zipf skew over session slots (default 1.1)
//   --services=N --service-skew=Z --hosts=N --payload=B --seed=N
//   --hot-fraction=F --shards=N --hot-shard=K
//                       pin fraction F of new sessions to SipHash partition K
//                       of N (match the consumer's --workers to target one
//                       shard worker)
//   --inactivity_s=S    consumer's inactivity window (default 1; must match —
//                       sizes the drain tail and the reaction offset)
//   --subscribe=H:P     consumer query port for close timestamps
//   --subscribe-port-file=PATH  poll PATH for the port instead (the e2e smoke
//                       writes it once the consumer prints it)
//   --subscribe-wait=S  how long to wait for the port/file (default 20)
//   --quick             run the in-process self-check and exit (other flags
//                       ignored); used by CI
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>

#include "src/common/status.h"
#include "src/common/time_util.h"
#include "src/loadgen/load_generator.h"
#include "src/net/net_util.h"
#include "src/node/live_node.h"

namespace ts {
namespace {

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

void PrintReport(const LoadGenReport& report) {
  std::printf(
      "loadgen sent=%" PRIu64 " goal_rate=%.0f achieved_rate=%.0f wall=%.2fs"
      " backlog_peak=%zu retired=%" PRIu64 " observed=%" PRIu64
      " missing=%" PRIu64 " dropped=%" PRIu64 " unmatched=%" PRIu64
      " hot=%" PRIu64 "\n",
      report.records_sent, report.goal_rate, report.achieved_rate,
      report.wall_s, report.peak_backlog_bytes, report.sessions_retired,
      report.closes_observed, report.closes_missing,
      report.subscriber_dropped, report.closes_unmatched,
      report.hot_sessions);
  std::printf("lateness %s\n", report.send_lateness.Summary().c_str());
  if (report.close_latency.count() > 0) {
    std::printf("close    %s\n", report.close_latency.Summary().c_str());
    std::printf("reaction %s\n", report.close_reaction.Summary().c_str());
  }
  std::fflush(stdout);
}

void PrintAccounting(const LiveNode::Accounting& a) {
  std::printf("accounting received=%" PRIu64 " parsed=%" PRIu64
              " failures=%" PRIu64 " blanks=%" PRIu64 " emitted=%" PRIu64
              " open=%" PRIu64 " shed_records=%" PRIu64
              " shed_fragments=%" PRIu64 " shed_lines=%" PRIu64 "\n",
              a.received, a.parsed, a.parse_failures, a.blank_lines,
              a.records_emitted, a.open_records, a.shed_records,
              a.shed_fragments, a.shed_lines);
}

// The consumer side of the self-check: the shipped live node, fed by the
// generator over loopback TCP. Per-poll batches stay small so a slow
// pipeline backpressures the socket.
LiveNodeOptions ConsumerOptions(uint16_t upstream_port,
                                EventTime inactivity_ns) {
  LiveNodeOptions options;
  options.ingest.emplace();
  options.ingest->port = upstream_port;
  options.ingest->max_records_per_poll = 4096;
  options.pipeline.inactivity_ns = inactivity_ns;
  options.query.emplace();  // Ephemeral port, for the close subscriber.
  return options;
}

// In-process self-check: generator + full consumer stack over loopback TCP.
// Phase 1 proves the measurement path (every retired session's close is
// observed or accounted as a subscriber drop; accounting reconciles to the
// record). Phase 2 overdrives a deliberately tiny one-worker pipeline with
// shedding enabled and proves the ingest side kept pacing (bounded stall)
// while `records_in == stored + shed` still reconciles exactly.
int RunQuickSelfCheck() {
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) {
      ++failures;
    }
  };

  {
    std::printf("-- phase 1: measurement path (no shedding) --\n");
    LoadGenOptions lopts;
    lopts.rate_per_s = 8000;
    lopts.duration_s = 2.0;
    lopts.inactivity_ns = 300 * kNanosPerMilli;
    lopts.synth.concurrent_sessions = 64;
    lopts.synth.records_per_session = 10;
    LoadGenerator gen(lopts);
    TS_CHECK(gen.Listen());

    LiveNodeOptions nopts = ConsumerOptions(gen.port(), lopts.inactivity_ns);
    nopts.pipeline.workers = 2;
    LiveNode node(std::move(nopts), nullptr, /*log=*/nullptr);
    TS_CHECK(node.Start());
    std::thread consumer([&node] {
      node.Run();
      node.Shutdown();
    });
    gen.SetSubscriber("127.0.0.1", node.query_port());
    const LoadGenReport report = gen.Run();
    consumer.join();
    const auto acct = node.accounting();
    PrintReport(report);
    PrintAccounting(acct);
    check(report.ok, "transport clean");
    check(report.records_sent > 8000, "schedule ran");
    check(report.closes_observed + report.closes_missing ==
              report.sessions_retired,
          "every retired session observed or accounted missing");
    check(report.closes_missing <= report.subscriber_dropped,
          "missing closes all explained by subscriber drops");
    check(report.close_latency.count() == report.closes_observed,
          "one latency sample per observed close");
    check(acct.parse_failures == 0 && acct.blank_lines == 0,
          "all generated lines parse");
    check(acct.shed_records == 0 && acct.shed_lines == 0,
          "nothing shed with policy off");
    check(acct.Reconciles(), "records_in == stored + shed reconciles");
  }

  {
    std::printf("-- phase 2: overload with --shed-policy=oldest-open --\n");
    LoadGenOptions lopts;
    lopts.rate_per_s = 600'000;  // Far past a 1-worker tiny-queue pipeline.
    lopts.duration_s = 1.5;
    lopts.inactivity_ns = 500 * kNanosPerMilli;
    lopts.synth.seed = 7;
    lopts.synth.concurrent_sessions = 512;
    lopts.synth.records_per_session = 40;
    LoadGenerator gen(lopts);
    TS_CHECK(gen.Listen());

    LiveNodeOptions nopts = ConsumerOptions(gen.port(), lopts.inactivity_ns);
    nopts.ingest->max_records_per_poll = 512;
    nopts.pipeline.workers = 1;
    nopts.pipeline.queue_capacity = 2;
    nopts.pipeline.shed_policy = ShedPolicy::kOldestOpen;
    nopts.pipeline.shed_open_bytes = 256 << 10;
    nopts.pipeline.shed_stall_limit_ms = 5;
    LiveNode node(std::move(nopts), nullptr, /*log=*/nullptr);
    TS_CHECK(node.Start());
    std::thread consumer([&node] {
      node.Run();
      node.Shutdown();
    });
    gen.SetSubscriber("127.0.0.1", node.query_port());
    const int64_t start = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count();
    const LoadGenReport report = gen.Run();
    consumer.join();
    const int64_t elapsed_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count() -
        start;
    const auto acct = node.accounting();
    PrintReport(report);
    PrintAccounting(acct);
    std::printf("stall_us=%lld elapsed=%.1fs\n",
                static_cast<long long>(
                    node.pipeline()->backpressure_stall_ns() / 1000),
                elapsed_ns / 1e9);
    check(report.ok, "transport clean under overload");
    check(acct.Reconciles(),
          "records_in == stored + shed reconciles under overload");
    // Bounded producer window: the whole run (schedule + drain + flush) must
    // finish in a small multiple of the nominal duration, not hang on a
    // stalled pipeline. Generous bound — CI machines share cores.
    check(elapsed_ns < 30 * kNanosPerSecond, "producer stall bounded");
    check(node.pipeline()->ingest_watermark() > 0, "watermark advanced");
  }

  std::printf("self-check: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

uint16_t WaitSubscribePort(int argc, char** argv) {
  if (const char* spec = FlagStr(argc, argv, "--subscribe")) {
    std::string host;
    uint16_t port = 0;
    if (ParseHostPort(spec, &host, &port)) {
      return port;
    }
    std::fprintf(stderr, "bad --subscribe=%s\n", spec);
    return 0;
  }
  const char* path = FlagStr(argc, argv, "--subscribe-port-file");
  if (path == nullptr) {
    return 0;
  }
  const double wait_s = Flag(argc, argv, "--subscribe-wait", 20);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            static_cast<int64_t>(wait_s * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    if (FILE* f = std::fopen(path, "r")) {
      long port = 0;
      const int got = std::fscanf(f, "%ld", &port);
      std::fclose(f);
      if (got == 1 && port > 0 && port <= 65535) {
        return static_cast<uint16_t>(port);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "timed out waiting for %s\n", path);
  return 0;
}

int Main(int argc, char** argv) {
  if (HasFlag(argc, argv, "--quick")) {
    return RunQuickSelfCheck();
  }

  LoadGenOptions options;
  options.port = static_cast<uint16_t>(Flag(argc, argv, "--listen", 0));
  options.rate_per_s = Flag(argc, argv, "--rate", 50'000);
  options.duration_s = Flag(argc, argv, "--seconds", 5);
  options.inactivity_ns = static_cast<int64_t>(
      Flag(argc, argv, "--inactivity_s", 1.0) * kNanosPerSecond);
  if (const char* arrival = FlagStr(argc, argv, "--arrival")) {
    if (std::strcmp(arrival, "uniform") == 0) {
      options.arrival = ArrivalProcess::kUniform;
    } else if (std::strcmp(arrival, "poisson") != 0) {
      std::fprintf(stderr, "unknown --arrival=%s (poisson|uniform)\n", arrival);
      return 2;
    }
  }
  options.synth.seed = static_cast<uint64_t>(Flag(argc, argv, "--seed", 1));
  options.synth.concurrent_sessions =
      static_cast<size_t>(Flag(argc, argv, "--sessions", 256));
  options.synth.records_per_session =
      static_cast<size_t>(Flag(argc, argv, "--records-per-session", 20));
  options.synth.session_skew = Flag(argc, argv, "--session-skew", 1.1);
  options.synth.num_services =
      static_cast<uint32_t>(Flag(argc, argv, "--services", 64));
  options.synth.service_skew = Flag(argc, argv, "--service-skew", 1.1);
  options.synth.num_hosts =
      static_cast<uint32_t>(Flag(argc, argv, "--hosts", 16));
  options.synth.payload_bytes =
      static_cast<size_t>(Flag(argc, argv, "--payload", 48));
  options.synth.hot_session_fraction =
      Flag(argc, argv, "--hot-fraction", 0.0);
  options.synth.shards = static_cast<size_t>(Flag(argc, argv, "--shards", 1));
  options.synth.hot_shard =
      static_cast<size_t>(Flag(argc, argv, "--hot-shard", 0));

  LoadGenerator gen(options);
  if (!gen.Listen()) {
    std::fprintf(stderr, "ts_loadgen: failed to listen\n");
    return 1;
  }
  // Bound port first, alone on a stdout line (ts_log_server convention), so
  // scripts can capture it before pointing the consumer here.
  std::printf("%u\n", gen.port());
  std::fflush(stdout);

  const uint16_t sub_port = WaitSubscribePort(argc, argv);
  if (sub_port != 0) {
    gen.SetSubscriber("127.0.0.1", sub_port);
  } else if (FlagStr(argc, argv, "--subscribe-port-file") != nullptr) {
    return 1;  // A port file was promised but never delivered a port.
  }

  const LoadGenReport report = gen.Run();
  PrintReport(report);
  if (!report.ok) {
    std::fprintf(stderr, "ts_loadgen: %s\n", report.error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ts

int main(int argc, char** argv) { return ts::Main(argc, argv); }
