// pb_trace: the benchmark's traced run. Wires the live path in-process the
// way `ts_sessionize --connect --serve --workers=2 --inactivity_s=1` does
// (SocketIngestSource -> LivePipeline -> report + SessionStore [-> ColdTier]
// -> QueryServer), feeds it the workload's inputs over loopback TCP from a
// feed thread, and times the calls into each layer's public functions.
// Nothing in src/ is instrumented: every span is recorded here, around a call.
//
//   pb_trace --workload=W --seed=N --seconds=S --dir=D --spans=FILE
//
// The inputs come from MakeWorkload, as in pb_gen. Spans (name, start, end,
// parent, thread, request id) are kept in memory and written to FILE as JSON
// at the end. A stage table of self times on the driver thread goes to
// stderr; its rows plus "other" add up to the traced wall time. Tracing
// overhead is measured first: the same plain ingest once with spans off and
// once with them on. The last stdout line is a JSON object of per-layer
// metrics, each [value, unit], plus "correct".
#include <sys/resource.h>
#include <sys/socket.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/common.h"
#include "src/analytics/dependency_graph.h"
#include "src/analytics/session_store.h"
#include "src/ckpt/checkpointer.h"
#include "src/ckpt/live_checkpoint.h"
#include "src/common/metrics_registry.h"
#include "src/core/live_closer.h"
#include "src/core/live_pipeline.h"
#include "src/core/trace_tree.h"
#include "src/log/record_view.h"
#include "src/net/socket_ingest.h"
#include "src/query/query_server.h"
#include "src/store/cold_tier.h"

namespace pb {
namespace {

// --- spans --------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int64_t parent;  // Index of the enclosing span on the same thread, or -1.
  uint32_t thread;
  uint64_t request;
};

class Tracer {
 public:
  int64_t Begin(const char* name, uint64_t request) {
    Local& local = local_;
    if (local.thread == 0) {
      local.thread = next_thread_.fetch_add(1) + 1;
    }
    const int64_t parent = local.open.empty() ? -1 : local.open.back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, NowNs(), 0, parent, local.thread, request});
    local.open.push_back(static_cast<int64_t>(spans_.size() - 1));
    return local.open.back();
  }
  void End(int64_t index) {
    const int64_t now = NowNs();
    local_.open.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].end = now;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
  }
  std::vector<Span> spans() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  struct Local {
    uint32_t thread = 0;
    std::vector<int64_t> open;
  };
  static thread_local Local local_;
  std::atomic<uint32_t> next_thread_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};
thread_local Tracer::Local Tracer::local_;

Tracer g_tracer;
std::atomic<bool> g_tracing{true};  // Off: Scoped records no span.

class Scoped {
 public:
  explicit Scoped(const char* name, uint64_t request = 0)
      : index_(g_tracing.load(std::memory_order_relaxed)
                   ? g_tracer.Begin(name, request)
                   : -1),
        start_(NowNs()) {}
  ~Scoped() {
    if (index_ >= 0) {
      g_tracer.End(index_);
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int64_t elapsed() const { return NowNs() - start_; }

 private:
  int64_t index_;
  int64_t start_;
};

// --- metrics --------------------------------------------------------------------

class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    values_[name] = {value, unit};
  }
  void Print(bool correct) const {
    std::printf("{\"correct\":%s", correct ? "true" : "false");
    for (const auto& [name, v] : values_) {
      std::printf(",\"%s\":[%.9g,\"%s\"]", name.c_str(), v.first, v.second);
    }
    std::printf("}\n");
  }

 private:
  std::map<std::string, std::pair<double, const char*>> values_;
};

// --- inputs -------------------------------------------------------------------

// Every line of a paced schedule, drain tail included, for the in-memory log
// and closer replays.
std::string ScheduleBytes(const PacedOptions& options) {
  PacedSchedule schedule(options);
  ScheduledLine line;
  std::string out;
  while (schedule.Next(&line)) {
    out += line.line;
    out += '\n';
  }
  return out;
}

std::vector<std::string_view> SplitLines(const std::string& bytes) {
  std::vector<std::string_view> lines;
  size_t begin = 0;
  for (size_t nl = bytes.find('\n'); nl != std::string::npos;
       nl = bytes.find('\n', begin)) {
    lines.emplace_back(bytes.data() + begin, nl - begin);
    begin = nl + 1;
  }
  return lines;
}

// --- the traced live path ---------------------------------------------------------

struct Live {
  std::shared_ptr<ts::SessionStore> store;
  std::shared_ptr<ts::ColdTier> cold;
  std::unique_ptr<ts::QueryServer> server;
  std::thread server_thread;
  std::unique_ptr<ts::LivePipeline> pipeline;

  // Sink figures (worker threads).
  std::mutex report_mu;
  std::map<std::string, uint64_t> signatures;
  ts::DependencyGraph deps;
  std::mutex fig_mu;
  std::vector<double> insert_us;
  std::vector<double> append_us;
  double report_ns = 0;
  double report_wait_ns = 0;
  uint64_t sessions = 0;
  std::unordered_map<std::string, int64_t> inserted_at;  // For fan-out.
  bool track_inserts = false;
  uint64_t restored_open = 0;  // Open records a restore brought back.

  // Ingest figures (driver thread).
  uint64_t received = 0;
  uint64_t polls = 0;
  double poll_ns = 0;
  double feed_ns = 0;
  int64_t first_byte = 0;
  int64_t finished = 0;
  std::vector<double> queue_depth;

  ~Live() { StopServer(); }

  void Start(size_t store_mb, const std::string& cold_dir) {
    ts::SessionStore::Options so;
    so.max_bytes = store_mb << 20;
    store = std::make_shared<ts::SessionStore>(so);
    server = std::make_unique<ts::QueryServer>(ts::QueryServerOptions{}, store,
                                               std::make_shared<ts::MetricsRegistry>());
    if (!cold_dir.empty()) {
      ts::ColdTierOptions co;
      co.dir = cold_dir;
      co.segment_target_bytes = kColdSegmentMb << 20;
      cold = std::make_shared<ts::ColdTier>(co);
      cold->Start();
      store->SetEvictionSink(
          [this](ts::Session&& s) {
            Scoped span("store.cold_append");
            cold->Append(std::move(s));
            Note(&append_us, span.elapsed());
          },
          [this] {
            Scoped span("store.cold_wait_for_space");
            cold->WaitForSpace();
            Note(&append_us, span.elapsed());
          });
      server->SetColdTier(cold);
    }
    server->Start();
    server_thread = std::thread([this] { server->Run(); });
    ts::LivePipelineOptions po;
    po.workers = kWorkers;
    po.inactivity_ns = kWindowNs;
    pipeline = std::make_unique<ts::LivePipeline>(
        po, [this](ts::Session&& s) { Sink(std::move(s)); });
  }

  void Note(std::vector<double>* v, int64_t ns) {
    std::lock_guard<std::mutex> lock(fig_mu);
    v->push_back(static_cast<double>(ns) / 1e3);
  }

  // What ts_sessionize's sink does: the report under one mutex, then insert.
  // Spans of one session share its id's hash as request id. With tracing
  // off it does only that, untimed.
  void Sink(ts::Session&& s) {
    if (!g_tracing.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lock(report_mu);
        for (const auto& tree : ts::TraceTree::FromSession(s)) {
          ++signatures[tree.SignatureKey()];
          deps.AddTree(tree);
        }
      }
      store->Insert(std::move(s));
      return;
    }
    const uint64_t request = std::hash<std::string>{}(s.id);
    {
      Scoped span("analytics.report", request);
      const int64_t t0 = NowNs();
      std::lock_guard<std::mutex> lock(report_mu);
      const int64_t t1 = NowNs();
      for (const auto& tree : ts::TraceTree::FromSession(s)) {
        ++signatures[tree.SignatureKey()];
        deps.AddTree(tree);
      }
      report_wait_ns += static_cast<double>(t1 - t0);
      report_ns += static_cast<double>(NowNs() - t1);
      ++sessions;
    }
    std::string id = track_inserts ? s.id : std::string();
    Scoped span("analytics.store_insert", request);
    store->Insert(std::move(s));
    const int64_t done = NowNs();
    std::lock_guard<std::mutex> lock(fig_mu);
    insert_us.push_back(static_cast<double>(span.elapsed()) / 1e3);
    if (track_inserts) {
      inserted_at[id] = done;
    }
  }

  // The tool's poll loop: PollBlock -> FeedBlock -> Flush, then Finish. The
  // spans of one poll iteration share its sequence number as request id.
  bool Ingest(uint16_t port, uint64_t resume_offset) {
    ts::SocketIngestOptions so;
    so.port = port;
    so.max_records_per_poll = 16 << 10;
    so.resume_offset = resume_offset;
    ts::SocketIngestSource source(so);
    ts::LineBlock block;
    bool ok = false;
    for (uint64_t request = 1;; ++request) {
      ts::SocketIngestSource::Poll poll;
      {
        Scoped span("net.poll", request);
        poll = source.PollBlock(&block, 200);
        poll_ns += static_cast<double>(span.elapsed());
      }
      if (!block.lines.empty()) {
        if (first_byte == 0) {
          first_byte = NowNs();
        }
        received += block.lines.size();
        ++polls;
      }
      {
        Scoped span("core.feed", request);
        pipeline->FeedBlock(std::move(block));
        feed_ns += static_cast<double>(span.elapsed());
      }
      if (poll == ts::SocketIngestSource::Poll::kEndOfStream) {
        ok = true;
        break;
      }
      if (poll == ts::SocketIngestSource::Poll::kFailed) {
        break;
      }
      {
        Scoped span("core.flush", request);
        pipeline->Flush();
        feed_ns += static_cast<double>(span.elapsed());
      }
      for (size_t i = 0; i < pipeline->workers(); ++i) {
        queue_depth.push_back(
            static_cast<double>(pipeline->shard(i).queue_depth));
      }
    }
    return ok;
  }

  void Finish() {
    Scoped span("core.finish");
    pipeline->Finish();
    finished = NowNs();
  }

  bool Reconciles() const {
    return received == pipeline->records() + pipeline->parse_failures() +
                           pipeline->blank_lines() + pipeline->shed_lines() &&
           pipeline->records() + restored_open == pipeline->records_emitted() +
                                      pipeline->open_records() +
                                      pipeline->shed_records();
  }

  void StopServer() {
    if (server_thread.joinable()) {
      server->Stop();
      server_thread.join();
    }
  }
};

using SendFn = std::function<bool(int fd)>;

// A feed thread playing the generator's TS1 role.
class Feed {
 public:
  explicit Feed(SendFn send) {
    listen_ = ts::FdGuard(ts::ListenTcp("127.0.0.1", 0, &port_));
    thread_ = std::thread([this, send = std::move(send)] {
      ts::FdGuard conn;
      uint64_t offset = 0;
      ok_ = AcceptTs1(listen_.get(), 30'000, &conn, &offset) &&
            send(conn.get()) && SendEos(conn.get());
      // Hold the connection until the consumer has read the #EOS.
      char buf[64];
      while (ok_ && ::recv(conn.get(), buf, sizeof(buf), 0) > 0) {
      }
    });
  }
  ~Feed() { Join(); }
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;
  uint16_t port() const { return port_; }
  bool Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
    return ok_;
  }

 private:
  ts::FdGuard listen_;
  uint16_t port_ = 0;
  std::thread thread_;
  bool ok_ = false;
};

// --- layer replays ------------------------------------------------------------

void LogLayer(const std::vector<std::string_view>& lines, Metrics* m) {
  Scoped phase("phase.log_replay");
  std::vector<ts::RecordView> views(lines.size());
  int64_t scan_ns = 0;
  {
    Scoped span("log.scan");
    for (size_t i = 0; i < lines.size(); ++i) {
      views[i] = ts::ScanRecord(lines[i]);
    }
    scan_ns = span.elapsed();
  }
  Scoped span("log.materialize");
  ts::InternerPair interners;
  ts::LogRecord record;
  uint64_t ok = 0;
  for (const auto& v : views) {
    ok += ts::MaterializeRecord(v, &interners, &record) ? 1 : 0;
  }
  const double n = static_cast<double>(std::max<size_t>(1, lines.size()));
  m->Set("log.scan_ns_per_record", static_cast<double>(scan_ns) / n, "ns");
  m->Set("log.materialize_ns_per_record",
         static_cast<double>(span.elapsed()) / n, "ns");
}

// Single-threaded LiveCloser over the same inputs in 512-record batches, the
// watermark being the prefix max of event time, as one shard would see them.
void CloserLayer(const std::vector<std::string_view>& lines, Metrics* m) {
  Scoped phase("phase.closer_replay");
  ts::LiveCloser closer(kWindowNs);
  ts::InternerPair interners;
  std::vector<ts::Session> closed;
  std::vector<ts::LogRecord> batch;
  std::vector<double> open;
  double feed_ns = 0;
  double expire_ns = 0;
  double scanned = 0;
  uint64_t emitted = 0;
  int64_t watermark = 0;
  for (size_t i = 0; i < lines.size(); i += 512) {
    batch.clear();
    for (size_t j = i; j < std::min(lines.size(), i + 512); ++j) {
      ts::LogRecord r;
      if (ts::MaterializeRecord(ts::ScanRecord(lines[j]), &interners, &r)) {
        batch.push_back(std::move(r));
      }
    }
    {
      Scoped span("core.closer_feed");
      for (auto& r : batch) {
        watermark = std::max(watermark, r.time);
        closer.ObserveWatermark(watermark);
        closer.Feed(std::move(r), &closed);
      }
      feed_ns += static_cast<double>(span.elapsed());
    }
    open.push_back(static_cast<double>(closer.open_sessions()));
    scanned += static_cast<double>(closer.open_sessions());
    {
      Scoped span("core.expire");
      closer.CloseExpired(&closed);
      expire_ns += static_cast<double>(span.elapsed());
    }
    emitted += closed.size();
    closed.clear();
  }
  const double n = static_cast<double>(std::max<size_t>(1, lines.size()));
  m->Set("core.closer_feed_ns_per_record", feed_ns / n, "ns");
  m->Set("core.expire_s_per_mrec", expire_ns / 1e9 / (n / 1e6), "s/Mrec");
  m->Set("core.expire_scanned_per_closed",
         scanned / static_cast<double>(std::max<uint64_t>(1, emitted)), "ratio");
  m->Set("core.open_sessions_p50", Percentile(&open, 0.5), "count");
}

void IngestMetrics(Live* live, double wall_s, Metrics* m) {
  const double krec = static_cast<double>(std::max<uint64_t>(1, live->received)) / 1e3;
  m->Set("net.poll_us_per_krec", live->poll_ns / 1e3 / krec, "us/krec");
  m->Set("net.lines_per_poll",
         static_cast<double>(live->received) /
             static_cast<double>(std::max<uint64_t>(1, live->polls)),
         "count");
  m->Set("core.feed_us_per_krec", live->feed_ns / 1e3 / krec, "us/krec");
  m->Set("core.stall_share",
         static_cast<double>(live->pipeline->backpressure_stall_ns()) / 1e9 / wall_s,
         "share");
  m->Set("core.queue_depth_p99", Percentile(&live->queue_depth, 0.99), "count");
  std::lock_guard<std::mutex> lock(live->fig_mu);
  m->Set("analytics.store_insert_us_p50", Percentile(&live->insert_us, 0.50), "us");
  m->Set("analytics.store_insert_us_p99", Percentile(&live->insert_us, 0.99), "us");
  const auto st = live->store->stats();
  m->Set("analytics.evictions_per_ksession",
         static_cast<double>(st.evicted) * 1e3 /
             static_cast<double>(std::max<uint64_t>(1, st.inserted)),
         "count");
  const double sessions = static_cast<double>(std::max<uint64_t>(1, live->sessions));
  m->Set("analytics.report_us_per_session", live->report_ns / 1e3 / sessions, "us");
  m->Set("analytics.report_lock_wait_share",
         live->report_wait_ns /
             std::max(1.0, live->report_wait_ns + live->report_ns),
         "share");
  m->Set("store.cold_append_us_p99", Percentile(&live->append_us, 0.99), "us");
}

void QueryMetrics(const MixResult& mix, Metrics* m) {
  auto verb = [&mix](const char* v, double q) {
    auto it = mix.ms.find(v);
    std::vector<double> ms = it == mix.ms.end() ? std::vector<double>{} : it->second;
    return Percentile(&ms, q);
  };
  m->Set("query.get_ms_p50", verb("GET", 0.50), "ms");
  m->Set("query.get_ms_p99", verb("GET", 0.99), "ms");
  m->Set("query.fragments_ms_p50", verb("FRAGMENTS", 0.50), "ms");
  m->Set("query.service_ms_p50", verb("SERVICE", 0.50), "ms");
  m->Set("query.range_ms_p50", verb("RANGE", 0.50), "ms");
  m->Set("query.topk_ms_p50", verb("TOPK", 0.50), "ms");
}

// Time ColdTier::Get directly on a sample of known ids.
void ColdMetrics(Live* live, Delivered* known, Metrics* m) {
  if (live->cold == nullptr) {  // No cold tier on this workload.
    m->Set("store.spill_bytes_per_session", 0, "B");
    m->Set("store.cold_read_ms_p50", 0, "ms");
    m->Set("store.cold_hit_ratio", 0, "ratio");
    return;
  }
  std::vector<std::pair<std::string, uint32_t>> sample;
  {
    std::lock_guard<std::mutex> lock(known->mu);
    for (size_t i = 0; i < known->ids.size(); i += 16) {
      sample.emplace_back(known->ids[i], known->blocks[known->ids[i]].begin()->first);
    }
  }
  std::vector<double> ms;
  for (const auto& [id, fragment] : sample) {
    Scoped span("store.cold_get");
    live->cold->Get(id, fragment);
    ms.push_back(static_cast<double>(span.elapsed()) / 1e6);
  }
  const auto cs = live->cold->stats();
  m->Set("store.spill_bytes_per_session",
         static_cast<double>(cs.bytes) /
             static_cast<double>(std::max<uint64_t>(1, cs.sessions)),
         "B");
  m->Set("store.cold_read_ms_p50", Percentile(&ms, 0.5), "ms");
  m->Set("store.cold_hit_ratio",
         static_cast<double>(cs.hits) /
             static_cast<double>(std::max<uint64_t>(1, cs.hits + cs.misses)),
         "ratio");
}

// --- workloads ----------------------------------------------------------------

// Ingest one stream through a fresh traced live path; optionally subscribe
// with `filter` (fan-out timing) and run the query mix beside it.
struct IngestResult {
  MixResult mix;
  std::vector<double> fanout_ms;
  uint64_t dropped = 0;
  bool ok = false;
};

IngestResult RunIngest(Live* live, SendFn send,
                       uint64_t resume_offset,
                       const std::optional<std::string>& filter, Delivered* ask,
                       double mix_seconds, uint64_t seed) {
  IngestResult r;
  Subscriber sub;
  std::mutex fan_mu;
  const bool subscribe = filter.has_value();
  if (subscribe) {
    live->track_inserts = true;
    sub.Start(live->server->port(), *filter,
              [&](const ts::Session& s, int64_t now) {
                std::lock_guard<std::mutex> lock(live->fig_mu);
                auto it = live->inserted_at.find(s.id);
                if (it != live->inserted_at.end()) {
                  std::lock_guard<std::mutex> fl(fan_mu);
                  r.fanout_ms.push_back(static_cast<double>(now - it->second) / 1e6);
                  live->inserted_at.erase(it);
                }
              });
  }
  std::atomic<bool> stop_mix{false};
  std::thread mix_thread;
  std::unique_ptr<ts::QueryClient> client;
  if (ask != nullptr && mix_seconds > 0) {
    ts::QueryClientOptions qo;
    qo.port = live->server->port();
    client = std::make_unique<ts::QueryClient>(qo);
    client->Connect();
    mix_thread = std::thread([&] {
      Scoped phase("phase.query_mix");
      r.mix = RunMix(client.get(), ask, mix_seconds, seed, true, &stop_mix);
    });
  }
  Feed feed(std::move(send));
  bool ingested = false;
  {
    Scoped phase("phase.ingest");
    ingested = live->Ingest(feed.port(), resume_offset);
    live->Finish();
  }
  r.ok = feed.Join() && ingested;
  stop_mix = true;
  if (mix_thread.joinable()) {
    mix_thread.join();
  }
  if (subscribe) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    sub.Stop();
    r.dropped = sub.dropped();
  }
  return r;
}

// The query mix after ingest, on up to 2000 of the store's own sessions
// (paper_replay, paced_close).
MixResult PostIngestMix(Live* live, Delivered* known, const Workload& w) {
  live->store->ForEachSession([known](const ts::Session& s) {
    if (known->ids.size() < 2000) {
      Remember(s, known);
    }
  });
  ts::QueryClientOptions qo;
  qo.port = live->server->port();
  ts::QueryClient client(qo);
  client.Connect();
  Scoped phase("phase.query_mix");
  return RunMix(&client, known, w.post_mix_s, w.seed, false);
}

SendFn SendSchedule(const PacedOptions& options) {
  return [options](int fd) {
    return SendScheduled(fd, PacedLines(options), [](const ScheduledLine&) {}).ok;
  };
}

// Process CPU seconds per record of one plain ingest of `send` (no
// subscriber, no query mix, no cold tier), with spans on or off.
double IngestCpuPerRecord(const SendFn& send, bool traced, bool* ok) {
  g_tracing = traced;
  rusage before{};
  rusage after{};
  Live live;
  live.Start(256, "");
  getrusage(RUSAGE_SELF, &before);
  Feed feed(send);
  const bool ingested = live.Ingest(feed.port(), 0);
  live.Finish();
  getrusage(RUSAGE_SELF, &after);
  *ok &= feed.Join() && ingested && live.Reconciles();
  live.StopServer();
  g_tracing = true;
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  const double cpu = seconds(after.ru_utime) + seconds(after.ru_stime) -
                     seconds(before.ru_utime) - seconds(before.ru_stime);
  return cpu / static_cast<double>(std::max<uint64_t>(1, live.received));
}

// Untraced over traced records per CPU second, for the workload's measured
// stream (paced ones cut to at most 3 s), after one warm-up pass. Runs
// before the workload's own spans are recorded.
void TracingOverhead(const Workload& w, const SendFn& main_feed, Metrics* m,
                     bool* ok) {
  SendFn send = main_feed;
  if (w.name != "paper_replay") {
    PacedOptions cut = w.paced;
    cut.seconds = std::min(3.0, cut.seconds);
    send = SendSchedule(cut);
  }
  // The first pass pays for faulting in the heap; it is not counted.
  IngestCpuPerRecord(send, false, ok);
  const double untraced = IngestCpuPerRecord(send, false, ok);
  const double traced = IngestCpuPerRecord(send, true, ok);
  g_tracer.Clear();  // The stage table covers the workload's run only.
  m->Set("trace.overhead_ratio", traced / std::max(1e-12, untraced), "ratio");
}

bool Run(const Workload& w, const std::string& dir, Metrics* m) {
  bool correct = true;
  PaperTrace trace;
  if (w.name == "paper_replay") {
    trace = BuildPaperTrace(w.seed, /*with_reference=*/false);
  }
  const SendFn main_feed =
      w.name == "paper_replay"
          ? SendFn([&trace](int fd) {
              return SendAll(fd, trace.bytes.data(), trace.bytes.size());
            })
          : SendSchedule(w.paced);
  TracingOverhead(w, main_feed, m, &correct);

  Scoped root("run");
  Delivered known;
  std::vector<std::string_view> lines;
  std::string synth_bytes;
  IngestResult ing;
  Live live;
  double ckpt_restore_s = 0;
  double snapshot_bytes = 0;
  double next_fragment = 0;

  if (!w.tiered) {
    // paper_replay saturates ingest; paced_close subscribes to its probes
    // as pb_gen does.
    const bool paced = w.name == "paced_close";
    live.Start(w.store_mb, "");
    ing = RunIngest(&live, main_feed, 0,
                    paced ? std::optional(ProbeFilter(w.paced.id_tag))
                          : std::nullopt,
                    nullptr, 0, w.seed);
    ing.mix = PostIngestMix(&live, &known, w);
    if (paced) {
      synth_bytes = ScheduleBytes(w.paced);
    }
    lines = SplitLines(paced ? synth_bytes : trace.bytes);
  } else {
    // Preload into a tiered store, checkpoint it, restore it into a fresh
    // live path (timed), then paced writes beside the query mix.
    const std::string cold_dir = dir + "/trace-cold";
    const std::string ckpt_dir = dir + "/trace-ckpt";
    std::filesystem::create_directories(cold_dir);
    uint64_t offset = 0;
    {
      Live pre;
      pre.Start(w.store_mb, cold_dir);
      {
        Scoped phase("phase.preload");
        Subscriber sub;
        sub.Start(pre.server->port(), ProbeFilter(w.preload.id_tag),
                  [&known](const ts::Session& s, int64_t) { Remember(s, &known); });
        Feed feed(SendSchedule(w.preload));
        correct &= pre.Ingest(feed.port(), 0);
        pre.pipeline->Flush();
        ts::Checkpointer ckpt({ckpt_dir, 3, 0});
        ts::CheckpointState state = ts::CaptureLiveCheckpoint(
            pre.pipeline.get(), *pre.store, pre.received, 0);
        pre.cold->FlushPending();
        correct &= ckpt.Write(state);
        snapshot_bytes = static_cast<double>(ckpt.last_snapshot_bytes());
        next_fragment = static_cast<double>(state.closers.next_fragment.size());
        offset = pre.received;
        pre.Finish();
        correct &= feed.Join() && pre.Reconciles();
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        sub.Stop();
      }
      pre.StopServer();
      pre.cold->FlushPending();
    }
    {
      Scoped span("ckpt.restore");
      live.Start(w.store_mb, cold_dir);
      ts::Checkpointer ckpt({ckpt_dir, 3, 0});
      ts::CheckpointState state;
      correct &= ckpt.RestoreLatest(&state).restored;
      for (const auto& fragment : state.closers.open) {
        live.restored_open += fragment.records.size();
      }
      ts::RestoreLiveCheckpoint(std::move(state), live.pipeline.get(),
                                live.store.get());
      ckpt_restore_s = static_cast<double>(span.elapsed()) / 1e9;
    }
    ing = RunIngest(&live, main_feed, offset, std::string(), &known, w.seconds,
                    w.seed);
    synth_bytes = ScheduleBytes(w.paced);
    lines = SplitLines(synth_bytes);
  }
  correct &= ing.ok && ing.mix.mismatches == 0 && ing.mix.errors == 0 &&
             live.Reconciles();
  const double wall_s =
      static_cast<double>(live.finished - live.first_byte) / 1e9;
  IngestMetrics(&live, wall_s, m);
  QueryMetrics(ing.mix, m);
  std::vector<double> fan = ing.fanout_ms;
  m->Set("query.fanout_ms_p99", Percentile(&fan, 0.99), "ms");
  m->Set("query.subscriber_dropped", static_cast<double>(ing.dropped), "count");
  ColdMetrics(&live, &known, m);
  m->Set("ckpt.restore_s", ckpt_restore_s, "s");
  m->Set("ckpt.snapshot_bytes", snapshot_bytes, "B");
  m->Set("ckpt.next_fragment_entries", next_fragment, "count");
  live.StopServer();
  LogLayer(lines, m);
  CloserLayer(lines, m);
  return correct;
}

// --- output ---------------------------------------------------------------------

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%" PRId64
                 ",\"thread\":%u,\"request\":%" PRIu64 "}%s\n",
                 i, s.name, s.start, s.end, s.parent, s.thread, s.request,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

// Self time = a span's duration minus the part its same-thread children
// cover. Driver-thread rows plus "other" (the root's own self time) add up to
// the traced wall time; other threads are listed as busy time beside it.
void PrintStageTable(const std::vector<Span>& spans,
                     const std::string& workload) {
  uint32_t driver = 0;  // The thread of the "run" root span.
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "run") == 0) {
      driver = s.thread;
    }
  }
  std::vector<double> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[s.parent] += static_cast<double>(s.end - s.start);
    }
  }
  std::map<std::string, double> self;
  std::map<std::string, double> busy;
  double wall = 0;
  double other = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end - s.start);
    if (s.thread == driver && s.parent < 0) {
      wall += dur;
      other += dur - child[i];
    } else if (s.thread == driver) {
      self[s.name] += dur - child[i];
    } else if (s.parent < 0) {
      busy[s.name] += dur;
    }
  }
  std::fprintf(stderr, "\n== stage table (self time on the driver thread), %s\n",
               workload.c_str());
  double total = 0;
  for (const auto& [name, ns] : self) {
    std::fprintf(stderr, "   %-28s %10.3f s %6.1f%%\n", name.c_str(), ns / 1e9,
                 100 * ns / wall);
    total += ns;
  }
  std::fprintf(stderr, "   %-28s %10.3f s %6.1f%%\n", "other", other / 1e9,
               100 * other / wall);
  std::fprintf(stderr, "   %-28s %10.3f s (rows sum %.3f s)\n", "traced wall",
               wall / 1e9, (total + other) / 1e9);
  std::fprintf(stderr, "   busy time on other threads (not part of the sum):\n");
  for (const auto& [name, ns] : busy) {
    std::fprintf(stderr, "   %-28s %10.3f s\n", name.c_str(), ns / 1e9);
  }
}

const char* Arg(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  const char* workload = Arg(argc, argv, "--workload");
  const char* seed = Arg(argc, argv, "--seed");
  const char* seconds = Arg(argc, argv, "--seconds");
  const char* dir = Arg(argc, argv, "--dir");
  const char* spans = Arg(argc, argv, "--spans");
  Workload w;
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      dir == nullptr || spans == nullptr ||
      !MakeWorkload(workload, std::strtoull(seed, nullptr, 10),
                    std::atof(seconds), &w)) {
    std::fprintf(stderr,
                 "usage: pb_trace --workload=W --seed=N --seconds=S --dir=D "
                 "--spans=FILE\n");
    return 2;
  }
  Metrics metrics;
  const bool correct = Run(w, dir, &metrics);
  const auto all = g_tracer.spans();
  PrintStageTable(all, w.name);
  WriteSpans(all, spans);
  metrics.Print(correct);
  return 0;
}
