// ts_sessionize: reads wire-format log records from a file, stdin, or a live
// ts_log_server TCP stream, reconstructs sessions and trace trees, and prints
// a summary report. Every input runs the same live kernel inside one LiveNode:
// sessions close as the event-time watermark passes their inactivity window,
// sharded across --workers threads. With --serve it additionally answers the
// ts_query wire protocol from the node's SessionStore, turning the tool into
// the middle process of the paper's Figure 2 pipeline:
//
//   ts_log_server --addr=:9000 | ts_sessionize --connect=:9000 --serve=9100
//                              | ts_query --connect=:9100
//
// Usage:
//   ts_sessionize [--in=path | --connect=host:port] [--stream=0 --streams=1]
//                 [--inactivity_s=0] [--top=10] [--trees]
//                 [--serve=[HOST:]PORT] [--store_mb=256] [--workers=N]
//
//   --in=path         read an archive (default: stdin); the tool feeds the
//                     node's pipeline itself, flushing every 16k lines
//   --connect=H:P     consume a live log-server stream instead of a file
//                     (reconnects with backoff and resumes if the server
//                     drops mid-stream). The stream is never buffered
//                     whole: closed sessions are held in a store bounded by
//                     --store_mb, and records wait only in still-open
//                     fragments (at --inactivity_s=0, until end of stream).
//   --stream/--streams  which partition of the server's archive to consume
//   --inactivity_s=N  the kernel's inactivity window on every input: a
//                     session fragment closes once the watermark is N seconds
//                     past its last record. 0 (default) means no idle split:
//                     each session closes whole at end of input. The one
//                     exception is a served live stream (--connect --serve),
//                     whose sessions must close while it flows: there 0 means
//                     a 5 s window.
//   --top=K           print the K most frequent tree signatures and
//                     communicating service pairs
//   --trees           dump every trace tree (verbose), one line per tree in
//                     the order sessions close
//   --serve=[HOST:]PORT  run a ts_query QueryServer on HOST (default
//                     127.0.0.1) attached to the node's SessionStore.
//                     Subscribers live-tail sessions as they close, and the
//                     process keeps serving after end of input until
//                     SIGINT/SIGTERM. PORT 0 binds an ephemeral port.
//   --store_mb=N      SessionStore eviction budget (default 256 MiB)
//   --cold-dir=D      (with --serve) tiered store: sessions evicted from the
//                     hot window spill to cold segment files under D (the
//                     ts_ckpt snapshot frame format + a footer index) and
//                     GET/FRAGMENTS/SERVICE/RANGE/TOPK transparently fall
//                     back to them — history is bounded by disk, not
//                     --store_mb. Existing segments are re-discovered on
//                     startup. See docs/STORE.md.
//   --cold_segment_mb=N  cold segment target size (default 4 MiB)
//   --workers=N       shard the hot path across N worker threads,
//                     hash-partitioned by SipHash(session id) — the paper's
//                     Exchange PACT (default: hardware threads). The report
//                     and the closed sessions are byte-identical for every N.
//                     At most 1024.
//   --shed-policy=oldest-open
//                     opt-in overload shedding: a shard queue blocked longer
//                     than --shed_stall_ms drops its oldest queued batch, and
//                     per-shard open-fragment state above --shed_open_mb
//                     sheds oldest-idle fragments first. Every drop is
//                     counted exactly (live_shed_* in STATS; records ==
//                     emitted + open + shed reconciles); the watermark keeps
//                     advancing instead of stalling the producer. See
//                     docs/LOADGEN.md.
//   --mine-templates  mine log templates from the free-text payload of each
//                     record on ingest: payloads are rewritten to
//                     "#<template_id> <var>..." before sessionization
//                     (shrinking store bytes/session), and with --serve the
//                     query server answers the TEMPLATES verb with the mined
//                     dictionary. Checkpoints include the miner state.
//   --checkpoint-dir=D  (with --connect) durable crash recovery: on startup
//                     restore the newest valid snapshot in D and resume the
//                     server-side stream from its offset; while running,
//                     write barrier-aligned snapshots periodically and on
//                     graceful shutdown. See docs/RECOVERY.md.
//   --ckpt_interval_s=N  seconds between periodic snapshots (default 2)
//   --ckpt_retain=K   snapshots kept on disk (default 3)
//   --disk-fault-plan=FILE  fault testing: install a ScriptedDiskInjector
//                     driving the file-I/O hooks of ts_ckpt and the cold
//                     tier from a ts_fault plan file (ENOSPC windows, EIO,
//                     short/torn writes, fsync/rename failures). Also read
//                     from $TS_DISK_FAULT_PLAN when the flag is absent —
//                     that's how e2e_smoke.sh --diskfault attacks an
//                     unmodified pipeline. fault_disk_* gauges appear in
//                     STATS. See docs/FAULT_TESTING.md.
#include <csignal>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "src/analytics/report_accumulator.h"
#include "src/ckpt/snapshot_io.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fs_fault.h"
#include "src/fault/scripted_disk_injector.h"
#include "src/net/net_util.h"
#include "src/node/live_node.h"

namespace {

const char* FlagStr(int argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
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

// Upper bounds on the numeric flags. A MiB count stays clear of overflow in
// its `<< 20`, a duration stays far inside int64 nanoseconds, and --workers
// cannot ask for an absurd number of shard threads.
constexpr double kMaxMiB = 1 << 20;   // 1 TiB.
constexpr double kMaxSeconds = 1e6;   // ~11.6 days.
constexpr double kMaxCount = 1e6;
constexpr double kMaxWorkers = 1024;

// Reads a numeric flag. Every numeric flag is a size, count or duration, so
// a malformed, negative, non-finite or above-`max` value is rejected with
// exit code 2 rather than aborting on an exception or overflowing a cast.
double Flag(int argc, char** argv, const char* name, double fallback,
            double max) {
  const char* text = FlagStr(argc, argv, name);
  if (text == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value) || value < 0 || value > max) {
    std::fprintf(stderr, "bad %s=%s (want a number in [0, %.0f])\n", name,
                 text, max);
    std::exit(2);
  }
  return value;
}

// Reads --serve=[HOST:]PORT. PORT is decimal digits, at most 65535 (0 asks
// for an ephemeral port); an empty HOST keeps the default. A bad port exits
// 2, as a bad numeric flag does.
ts::QueryServerOptions ServeOptions(const char* spec) {
  ts::QueryServerOptions query;
  const char* text = spec;
  if (const char* colon = std::strrchr(spec, ':')) {
    if (colon != spec) {
      query.host.assign(spec, colon);
    }
    text = colon + 1;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || value > 65535) {
    std::fprintf(stderr, "bad --serve=%s (want [HOST:]PORT, PORT in [0, "
                 "65535])\n", spec);
    std::exit(2);
  }
  query.port = static_cast<uint16_t>(value);
  return query;
}

// Bound on the records one poll may deliver, so a stalled shard queue
// back-pressures the server via TCP instead of ballooning a block. A file is
// fed in blocks of the same size, each followed by a watermark Flush.
constexpr size_t kMaxRecordsPerPoll = 16 << 10;
// A served live stream's inactivity window when --inactivity_s is 0: its
// sessions must close while the stream flows.
constexpr ts::EventTime kDefaultLiveInactivityNs = 5 * ts::kNanosPerSecond;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace ts;

  // Graceful shutdown on every path: SIGINT/SIGTERM stop ingest, write a
  // final checkpoint when one is configured, and still print the report and
  // transport stats before exiting.
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  // Every numeric flag is read before anything starts, so a malformed,
  // negative or out-of-range value exits 2 with nothing to unwind.
  const EventTime inactivity_ns = static_cast<EventTime>(
      Flag(argc, argv, "--inactivity_s", 0, kMaxSeconds) * kNanosPerSecond);
  const size_t top =
      static_cast<size_t>(Flag(argc, argv, "--top", 10, kMaxCount));
  const char* serve_spec = FlagStr(argc, argv, "--serve");
  const char* connect_spec = FlagStr(argc, argv, "--connect");
  const char* cold_dir = FlagStr(argc, argv, "--cold-dir");
  const char* ckpt_dir = FlagStr(argc, argv, "--checkpoint-dir");

  LiveNodeOptions node_options;
  node_options.store.max_bytes =
      static_cast<size_t>(Flag(argc, argv, "--store_mb", 256, kMaxMiB)) << 20;
  ColdTierOptions cold_options;
  cold_options.segment_target_bytes =
      static_cast<size_t>(Flag(argc, argv, "--cold_segment_mb", 4, kMaxMiB))
      << 20;
  CheckpointerOptions ckpt_options;
  ckpt_options.retain =
      static_cast<size_t>(Flag(argc, argv, "--ckpt_retain", 3, kMaxCount));
  ckpt_options.interval_ms = static_cast<int64_t>(
      Flag(argc, argv, "--ckpt_interval_s", 2.0, kMaxSeconds) * 1000);
  SocketIngestOptions ingest;
  ingest.stream =
      static_cast<size_t>(Flag(argc, argv, "--stream", 0, kMaxCount));
  ingest.num_streams =
      static_cast<size_t>(Flag(argc, argv, "--streams", 1, kMaxCount));
  ingest.max_records_per_poll = kMaxRecordsPerPoll;
  // Parse + sessionize sharded across --workers threads, hash-partitioned by
  // session id; sessions close as the watermark passes their window.
  LivePipelineOptions& pipe_options = node_options.pipeline;
  const unsigned hw = std::thread::hardware_concurrency();
  pipe_options.workers = static_cast<size_t>(
      Flag(argc, argv, "--workers", hw > 0 ? hw : 1, kMaxWorkers));
  if (inactivity_ns > 0) {
    pipe_options.inactivity_ns = inactivity_ns;
  } else if (connect_spec != nullptr && serve_spec != nullptr) {
    pipe_options.inactivity_ns = kDefaultLiveInactivityNs;
  } else {
    pipe_options.inactivity_ns = LiveCloser::kNoIdleSplit;
  }
  pipe_options.mine_templates = HasFlag(argc, argv, "--mine-templates");
  if (const char* policy = FlagStr(argc, argv, "--shed-policy")) {
    if (std::string_view(policy) == "oldest-open") {
      pipe_options.shed_policy = ShedPolicy::kOldestOpen;
      pipe_options.shed_open_bytes =
          static_cast<size_t>(Flag(argc, argv, "--shed_open_mb", 32, kMaxMiB))
          << 20;
      pipe_options.shed_stall_limit_ms =
          static_cast<int64_t>(Flag(argc, argv, "--shed_stall_ms", 100,
                                    kMaxSeconds * 1000));
    } else if (std::string_view(policy) != "none") {
      std::fprintf(stderr, "unknown --shed-policy=%s (none|oldest-open)\n",
                   policy);
      return 2;
    }
  }
  if (connect_spec != nullptr &&
      !ParseHostPort(connect_spec, &ingest.host, &ingest.port)) {
    std::fprintf(stderr, "bad --connect spec %s (want host:port)\n",
                 connect_spec);
    return 1;
  }
  if (serve_spec != nullptr) {
    node_options.query = ServeOptions(serve_spec);
  }

  // Declared before the node so it is destroyed last: the process-global
  // hook may be consulted until the cold tier's spill thread and the
  // checkpoint writer have joined.
  std::unique_ptr<ScriptedDiskInjector> disk_faults;
  {
    const char* plan_path = FlagStr(argc, argv, "--disk-fault-plan");
    if (plan_path == nullptr) {
      plan_path = std::getenv("TS_DISK_FAULT_PLAN");
    }
    if (plan_path != nullptr && plan_path[0] != '\0') {
      std::string text;
      FaultPlan plan;
      std::string error;
      if (!ReadFile(plan_path, &text)) {
        std::fprintf(stderr, "cannot read disk fault plan %s\n", plan_path);
        return 2;
      }
      if (!FaultPlan::Parse(text, &plan, &error)) {
        std::fprintf(stderr, "bad disk fault plan %s: %s\n", plan_path,
                     error.c_str());
        return 2;
      }
      const size_t n_events = plan.events.size();
      disk_faults = std::make_unique<ScriptedDiskInjector>(std::move(plan));
      InstallFsFaultInjector(disk_faults.get());
      std::fprintf(stderr, "disk fault injection: %s (%zu event(s))\n",
                   plan_path, n_events);
    }
  }
  if (cold_dir != nullptr) {
    if (serve_spec != nullptr) {
      cold_options.dir = cold_dir;
      node_options.cold = cold_options;
    } else {
      std::fprintf(stderr, "--cold-dir needs --serve; ignoring\n");
    }
  }
  if (ckpt_dir != nullptr && connect_spec == nullptr) {
    std::fprintf(stderr, "--checkpoint-dir needs --connect; ignoring\n");
  }
  FILE* in = stdin;
  if (connect_spec != nullptr) {
    node_options.ingest = ingest;
    if (ckpt_dir != nullptr) {
      ckpt_options.dir = ckpt_dir;
      node_options.checkpoint = ckpt_options;
    }
  } else if (const char* path = FlagStr(argc, argv, "--in")) {
    in = std::fopen(path, "r");
    if (in == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
  }

  // Outlives the node: each shard worker reports the sessions it closes into
  // its own partial, lock-free.
  ReportAccumulator report(pipe_options.workers,
                           HasFlag(argc, argv, "--trees") ? stdout : nullptr);
  // The node stands up the store, the query server (--serve) and, with
  // --connect, restores the checkpoint before ingesting.
  LiveNode node(
      std::move(node_options),
      [&report](const Session& s, size_t shard) { report.Add(shard, s); });
  if (disk_faults != nullptr) {
    disk_faults->RegisterMetrics(node.metrics());
  }
  if (!node.Start()) {
    return 1;
  }

  if (connect_spec != nullptr) {
    node.Run([] { return g_stop != 0; });
    node.Shutdown();
    std::fprintf(stderr, "transport: %s\n",
                 node.transport_stats().Snapshot().Format().c_str());
    if (node.transport_failed()) {
      std::fprintf(stderr,
                   "transport failed before end of stream (%llu records in)\n",
                   static_cast<unsigned long long>(node.records_received()));
      return 1;
    }
  } else {
    LivePipeline* pipeline = node.pipeline();
    char* line = nullptr;
    size_t capacity = 0;
    size_t unflushed = 0;
    ssize_t len;
    while (g_stop == 0 && (len = getline(&line, &capacity, in)) >= 0) {
      while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
        --len;
      }
      pipeline->FeedLine(std::string_view(line, static_cast<size_t>(len)));
      if (++unflushed == kMaxRecordsPerPoll) {
        pipeline->Flush();
        unflushed = 0;
      }
    }
    free(line);
    if (in != stdin) {
      std::fclose(in);
    }
    node.Shutdown();
  }

  std::fputs(report
                 .Format(node.ingest_records(), node.ingest_parse_failures(),
                         top)
                 .c_str(),
             stdout);

  if (serve_spec != nullptr) {
    std::fflush(stdout);
    std::fprintf(stderr, "serving %zu sessions on port %u (SIGINT to exit)\n",
                 node.store()->stats().sessions, node.query_port());
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  return 0;
}
