#include "perfbench/common.h"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <set>

#include "src/analytics/dependency_graph.h"
#include "src/common/rng.h"
#include "src/core/trace_tree.h"
#include "src/log/wire_format.h"
#include "src/offline/offline_sessionizer.h"
#include "src/query/query_protocol.h"
#include "src/workload/generator.h"

namespace pb {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  return (*v)[std::min(v->size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool Supported(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

void AddRounds(const std::vector<double>& samples, std::vector<double>* p50,
               std::vector<double>* p99) {
  for (size_t i = 0; i + kRoundSamples <= samples.size(); i += kRoundSamples) {
    std::vector<double> round(samples.begin() + static_cast<long>(i),
                              samples.begin() + static_cast<long>(i + kRoundSamples));
    p50->push_back(Percentile(&round, 0.50));
    p99->push_back(Percentile(&round, 0.99));
  }
}

// --- workloads ----------------------------------------------------------------

int64_t DrainEndNs(const PacedOptions& o) {
  // The drain tail runs every quarter window from a quarter past the end of
  // the schedule to a window and a half past it.
  return static_cast<int64_t>(o.seconds * 1e9) + kWindowNs + kWindowNs / 2;
}

bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  Workload* w) {
  w->name = name;
  w->seed = seed;
  w->seconds = seconds;
  w->sut_args = {"--serve=0", "--workers=" + std::to_string(kWorkers),
                 "--inactivity_s=" + std::to_string(kWindowNs / 1'000'000'000),
                 "--top=" + std::to_string(kReportTop)};
  // ts_loadgen's model: Zipf 1.1 slots, 20 records per session. The history
  // and the measured phase draw from different seeds.
  w->paced.synth.seed = seed * 2 + 1;
  w->paced.seconds = seconds;
  if (name == "paper_replay") {
    w->post_mix_s = 3;
    return true;
  }
  if (name == "paced_close") {
    w->paced.synth.concurrent_sessions = kPacedSessions;
    w->paced.rate_per_s = kPacedRate;
    w->post_mix_s = 5;
    return true;
  }
  if (name != "tiered_reads") {
    return false;
  }
  w->tiered = true;
  w->store_mb = kTieredStoreMb;
  w->sut_args.push_back("--store_mb=" + std::to_string(kTieredStoreMb));
  w->sut_args.push_back("--cold_segment_mb=" + std::to_string(kColdSegmentMb));
  w->sut_args.push_back("--ckpt_interval_s=2");
  w->preload.synth.seed = seed * 2;
  w->preload.synth.concurrent_sessions = kPreloadSessions;
  w->preload.rate_per_s = kPreloadRate;
  w->preload.seconds = kPreloadRecords / kPreloadRate;
  w->preload.id_tag = 'p';
  w->paced.synth.concurrent_sessions = kTieredSessions;
  w->paced.rate_per_s = kTieredRate;
  w->paced.id_tag = 'm';
  // Event time resumes two windows after the history's drain tail.
  w->paced.event_offset_ns = DrainEndNs(w->preload) + 2 * kWindowNs;
  return true;
}

// --- paper_replay input ------------------------------------------------------

namespace {

// The text ts_sessionize's end-of-run report prints for these sessions.
std::string ReportFor(const std::vector<ts::Session>& sessions,
                      uint64_t records) {
  uint64_t trees = 0;
  uint64_t spans = 0;
  uint64_t inferred = 0;
  std::map<std::string, uint64_t> signatures;
  ts::DependencyGraph deps;
  for (const auto& s : sessions) {
    for (const auto& tree : ts::TraceTree::FromSession(s)) {
      ++trees;
      spans += tree.num_spans();
      inferred += tree.num_inferred();
      ++signatures[tree.SignatureKey()];
      deps.AddTree(tree);
    }
  }
  std::string out;
  char buf[256];
  auto add = [&out, &buf](int n) { out.append(buf, static_cast<size_t>(n)); };
  add(std::snprintf(buf, sizeof(buf),
                    "records:        %llu (0 unparseable lines skipped)\n",
                    static_cast<unsigned long long>(records)));
  add(std::snprintf(buf, sizeof(buf), "sessions:       %zu\n", sessions.size()));
  add(std::snprintf(buf, sizeof(buf), "trace trees:    %llu\n",
                    static_cast<unsigned long long>(trees)));
  add(std::snprintf(buf, sizeof(buf),
                    "spans:          %llu (%llu inferred from descendants)\n",
                    static_cast<unsigned long long>(spans),
                    static_cast<unsigned long long>(inferred)));
  add(std::snprintf(buf, sizeof(buf), "service edges:  %zu (%llu calls)\n",
                    deps.num_edges(),
                    static_cast<unsigned long long>(deps.total_calls())));
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (const auto& [sig, count] : signatures) {
    ranked.emplace_back(count, sig);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  out += "\ntop tree structures:\n";
  for (size_t i = 0; i < std::min<size_t>(kReportTop, ranked.size()); ++i) {
    out += "  ";
    add(std::snprintf(buf, sizeof(buf), "%8llu",
                      static_cast<unsigned long long>(ranked[i].first)));
    out += " x " + ranked[i].second + "\n";
  }
  out += "\nhottest service pairs:\n";
  for (const auto& [edge, calls] : deps.HeaviestEdges(kReportTop)) {
    add(std::snprintf(buf, sizeof(buf), "  %8llu x svc-%u -> svc-%u\n",
                      static_cast<unsigned long long>(calls), edge.first,
                      edge.second));
  }
  return out;
}

}  // namespace

PaperTrace BuildPaperTrace(uint64_t seed, bool with_reference) {
  ts::GeneratorConfig config;
  config.seed = seed;
  config.duration_ns = 15 * ts::kNanosPerSecond;
  config.target_records_per_sec = 100'000;
  ts::TraceGenerator gen(config);

  PaperTrace trace;
  trace.bytes.reserve(480u << 20);
  std::vector<ts::LogRecord> parsed;
  ts::Epoch epoch = 0;
  std::vector<ts::LogRecord> records;
  while (gen.NextEpoch(&epoch, &records)) {
    for (const auto& r : records) {
      const size_t begin = trace.bytes.size();
      ts::AppendWireFormat(r, &trace.bytes);
      if (with_reference) {
        auto rec = ts::ParseWireFormat(
            std::string_view(trace.bytes).substr(begin));
        if (rec) {
          rec->payload = std::string();
          parsed.push_back(std::move(*rec));
        }
      }
      trace.bytes.push_back('\n');
      trace.line_end.push_back(trace.bytes.size());
      trace.time.push_back(r.time);
    }
  }
  if (!with_reference) {
    return trace;
  }
  const uint64_t record_count = parsed.size();
  ts::OfflineOptions options;
  options.inactivity_split_ns = kWindowNs;
  const std::vector<ts::Session> sessions =
      ts::OfflineSessionizer::Sessionize(std::move(parsed), options);
  trace.reference_report = ReportFor(sessions, record_count);
  trace.sessions = sessions.size();
  return trace;
}

// --- paced sending -------------------------------------------------------------

PacedSchedule::PacedSchedule(const PacedOptions& options)
    : options_(options),
      synth_(options.synth),
      arrivals_(ts::ArrivalProcess::kPoisson, options.rate_per_s,
                options.synth.seed * 0x9E3779B97F4A7C15ULL + 1),
      next_(arrivals_.NextNs()),
      drain_at_(static_cast<int64_t>(options.seconds * 1e9) + kWindowNs / 4) {}

bool PacedSchedule::Next(ScheduledLine* out) {
  const int64_t run_ns = static_cast<int64_t>(options_.seconds * 1e9);
  if (next_ < run_ns) {
    out->at_ns = next_;
    out->drain = false;
    synth_.NextRecord(options_.event_offset_ns + next_, &rec_);
    next_ = arrivals_.NextNs();
  } else if (drain_at_ <= DrainEndNs(options_)) {
    out->at_ns = drain_at_;
    out->drain = true;
    synth_.DrainRecord(options_.event_offset_ns + drain_at_, &rec_);
    drain_at_ += kWindowNs / 4;
  } else {
    return false;
  }
  out->event_ns =
      ts::SessionSynth::kEventOrigin + options_.event_offset_ns + out->at_ns;
  // "lg-<8 hex digits>" -> "l<tag>-...", the tag upper-case on a probe.
  const size_t bar = rec_.line.find('|');
  if (bar != std::string::npos && bar + 12 < rec_.line.size()) {
    rec_.line[bar + 2] = TagFor(rec_.line.substr(bar + 1, 11));
  }
  out->line.swap(rec_.line);
  out->retired.clear();
  if (!out->drain && rec_.retires_session) {
    out->retired = rec_.session_id;
    out->retired[1] = TagFor(rec_.session_id);
  }
  return true;
}

char PacedSchedule::TagFor(const std::string& synth_id) const {
  // The synthesizer numbers sessions in hex, so a last digit of 0 picks one
  // session in 16; the drain session "lg-drain" is never a probe.
  const bool probe = synth_id.size() == 11 &&
                     synth_id.find('|') == std::string::npos &&
                     synth_id.back() == '0';
  return probe ? static_cast<char>(std::toupper(options_.id_tag))
               : options_.id_tag;
}

std::string ProbeFilter(char tag) {
  return std::string("prefix=l") + static_cast<char>(std::toupper(tag));
}

bool IsProbe(const std::string& session_id) {
  return session_id.size() > 1 &&
         std::isupper(static_cast<unsigned char>(session_id[1]));
}

LineSource PacedLines(const PacedOptions& options) {
  auto schedule = std::make_shared<PacedSchedule>(options);
  return [schedule](ScheduledLine* out) { return schedule->Next(out); };
}

int64_t SendResult::ClosableAt(int64_t last_event_ns) const {
  const auto it = std::lower_bound(
      marks.begin(), marks.end(), last_event_ns + kWindowNs,
      [](const std::pair<int64_t, int64_t>& m, int64_t v) { return m.first < v; });
  return it == marks.end() ? -1 : t0 + it->second;
}

SendResult SendScheduled(int fd, const LineSource& next,
                         const std::function<void(const ScheduledLine&)>&
                             on_line) {
  SendResult result;
  ts::SetNonBlocking(fd);
  std::string out;
  size_t head = 0;
  uint64_t appended = 0;
  uint64_t flushed = 0;
  uint64_t main_end = 0;      // `appended` after the last measured line.
  int64_t main_span = 0;      // Its intended send time.
  int64_t main_flushed = 0;   // When it reached the wire.
  int64_t watermark = 0;
  std::deque<std::pair<int64_t, uint64_t>> inflight;  // (intended, end byte).
  ScheduledLine line;
  bool more = next(&line);

  result.t0 = NowNs();
  int64_t tick = 0;
  for (;;) {
    const int64_t now = NowNs() - result.t0;
    while (more && line.at_ns <= now) {
      on_line(line);
      out += line.line;
      out += '\n';
      appended += line.line.size() + 1;
      ++result.lines;
      if (line.drain) {
        ++result.drain_lines;
      } else {
        main_end = appended;
        main_span = line.at_ns;
      }
      watermark = std::max(watermark, line.event_ns);
      result.marks.emplace_back(watermark, line.at_ns);
      inflight.emplace_back(line.at_ns, appended);
      more = next(&line);
    }
    while (head < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + head, out.size() - head, MSG_NOSIGNAL);
      if (n > 0) {
        if (result.t_first_byte == 0) {
          result.t_first_byte = NowNs();
        }
        head += static_cast<size_t>(n);
        flushed += static_cast<uint64_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return result;  // Consumer went away: result.ok stays false.
      }
    }
    if (head > (1u << 20) && head * 2 > out.size()) {
      out.erase(0, head);
      head = 0;
    }
    const int64_t wire = NowNs() - result.t0;
    while (!inflight.empty() && inflight.front().second <= flushed) {
      result.lateness_ms.push_back(
          static_cast<double>(std::max<int64_t>(0, wire - inflight.front().first)) /
          1e6);
      inflight.pop_front();
    }
    if (main_flushed == 0 && main_end > 0 && flushed >= main_end &&
        (!more || line.drain)) {
      main_flushed = wire;  // Every measured line is on the wire.
    }
    if (!more && head >= out.size()) {
      break;
    }
    if (head < out.size()) {
      pollfd pfd{fd, POLLOUT, 0};  // Backlog: wait until the socket drains.
      ::poll(&pfd, 1, 1);
    } else {
      // Sending every line as it falls due would make the tool run one
      // expiry scan per few records and spin both workers.
      while (tick <= wire) {
        tick += kSendQuantumNs;
      }
      const int64_t wake = result.t0 + tick;
      const timespec at{static_cast<time_t>(wake / 1'000'000'000),
                        static_cast<long>(wake % 1'000'000'000)};
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr);
    }
  }
  if (main_flushed > 0) {
    result.achieved_over_goal =
        static_cast<double>(main_span) / static_cast<double>(main_flushed);
  }
  result.ok = true;
  return result;
}

// --- TS1 ---------------------------------------------------------------------

bool AcceptTs1(int listen_fd, int timeout_ms, ts::FdGuard* conn,
               uint64_t* offset) {
  pollfd pfd{listen_fd, POLLIN, 0};
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  int fd = -1;
  while (fd < 0) {
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) {
      return false;
    }
    pfd.revents = 0;
    if (::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(left_ms, 100))) > 0) {
      fd = ::accept(listen_fd, nullptr, nullptr);
    }
  }
  *conn = ts::FdGuard(fd);
  ts::SetNoDelay(fd);
  std::string hello;
  pollfd cpfd{fd, POLLIN, 0};
  while (hello.find('\n') == std::string::npos) {
    if (NowNs() > deadline || hello.size() > 256) {
      return false;
    }
    cpfd.revents = 0;
    if (::poll(&cpfd, 1, 50) <= 0) {
      continue;
    }
    char buf[64];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0 && !(n < 0 && errno == EINTR)) {
      return false;
    }
    if (n > 0) {
      hello.append(buf, static_cast<size_t>(n));
    }
  }
  unsigned long long stream = 0;
  unsigned long long off = 0;
  if (std::sscanf(hello.c_str(), "TS1 %llu %llu", &stream, &off) != 2) {
    return false;
  }
  *offset = off;
  return true;
}

bool SendAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
    } else if (!(n < 0 && errno == EINTR)) {
      return false;
    }
  }
  return true;
}

bool SendEos(int fd) {
  static const char kEos[] = "#EOS\n";
  return SendAll(fd, kEos, sizeof(kEos) - 1);
}

// --- SUBSCRIBE ---------------------------------------------------------------

bool Subscriber::Start(uint16_t port, const std::string& filter,
                       Callback on_session) {
  ts::QueryClientOptions options;
  options.port = port;
  client_ = std::make_unique<ts::QueryClient>(options);
  if (!client_->Connect() || !client_->SubscribeFiltered(filter)) {
    client_.reset();
    return false;
  }
  stop_ = false;
  received_ = 0;
  dropped_ = 0;
  failed_ = false;
  thread_ = std::thread([this, cb = std::move(on_session)] {
    ts::Session s;
    uint64_t dropped = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const auto ev = client_->Next(&s, &dropped, 20);
      if (ev == ts::QueryClient::Event::kSession) {
        const int64_t now = NowNs();
        received_.fetch_add(1, std::memory_order_relaxed);
        cb(s, now);
      } else if (ev == ts::QueryClient::Event::kDropped) {
        dropped_.store(client_->total_dropped(), std::memory_order_relaxed);
      } else if (ev == ts::QueryClient::Event::kClosed ||
                 ev == ts::QueryClient::Event::kError) {
        failed_.store(!stop_.load());
        return;
      }
    }
  });
  return true;
}

void Subscriber::Stop() {
  stop_ = true;
  if (thread_.joinable()) {
    thread_.join();
  }
  client_.reset();
}

void Remember(const ts::Session& s, Delivered* d) {
  std::string block = ts::EncodeSessionBlock(s);
  std::lock_guard<std::mutex> lock(d->mu);
  auto& frags = d->blocks[s.id];
  if (frags.empty()) {
    d->ids.push_back(s.id);
  }
  frags[s.fragment_index] = std::move(block);
  for (const auto& r : s.records) {
    d->services.insert(r.service);
  }
  d->starts.push_back(s.MinTime());
}

// --- query mix ----------------------------------------------------------------

MixResult RunMix(ts::QueryClient* client, Delivered* known, double seconds,
                 uint64_t seed, bool must_find, const std::atomic<bool>* stop,
                 uint64_t limit) {
  MixResult result;
  std::vector<std::string> ids;
  std::vector<uint32_t> services;
  std::vector<int64_t> starts;
  {
    std::lock_guard<std::mutex> lock(known->mu);
    ids = known->ids;
    services.assign(known->services.begin(), known->services.end());
    starts = known->starts;
  }
  if (ids.empty()) {
    return result;
  }
  // G = GET, F = FRAGMENTS, S = SERVICE, R = RANGE, T = TOPK. Seven in ten
  // are single-session reads, so the median lies well inside their cluster.
  static constexpr char kCycle[] = "GFGSGFRGFT";
  ts::Rng rng(seed * 0xD1B54A32D192ED03ULL + 7);
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  int64_t round_start = t0;
  size_t in_round = 0;
  std::vector<double> all;
  ts::QueryResponse resp;
  for (uint64_t i = 0; i < limit && NowNs() < end &&
                      (stop == nullptr || !stop->load());
       ++i) {
    const char kind = kCycle[i % (sizeof(kCycle) - 1)];
    const std::string id = ids[rng.NextBelow(ids.size())];
    std::string verb;
    std::string line;
    uint32_t fragment = 0;
    if (kind == 'G') {
      verb = "GET";
      std::lock_guard<std::mutex> lock(known->mu);
      const auto& frags = known->blocks[id];
      auto it = frags.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(frags.size())));
      fragment = it->first;
      line = "GET " + id + " " + std::to_string(fragment);
    } else if (kind == 'F') {
      verb = "FRAGMENTS";
      line = "FRAGMENTS " + id;
    } else if (kind == 'S') {
      verb = "SERVICE";
      line = "SERVICE " +
             std::to_string(services[rng.NextBelow(services.size())]) + " 10";
    } else if (kind == 'R') {
      verb = "RANGE";
      const int64_t since = starts[rng.NextBelow(starts.size())];
      line = "RANGE " + std::to_string(since) + " " +
             std::to_string(since + 10'000'000) + " 10";
    } else {
      verb = "TOPK";
      line = "TOPK 10";
    }
    ++result.attempted;
    const int64_t start = NowNs();
    const bool transport = client->Execute(line, &resp);
    const int64_t done = NowNs();
    const double ms = static_cast<double>(done - start) / 1e6;
    if (!transport) {
      ++result.errors;
      break;  // The connection is gone; nothing more can be asked on it.
    }
    if (!resp.ok) {
      ++result.errors;
      continue;
    }
    result.ms[verb].push_back(ms);
    all.push_back(ms);
    if (++in_round == kRoundSamples) {
      result.round_qps.push_back(static_cast<double>(kRoundSamples) * 1e9 /
                                 static_cast<double>(done - round_start));
      in_round = 0;
      round_start = done;
    }
    if (verb == "GET") {
      if (resp.sessions.empty()) {
        ++result.not_found;
        result.mismatches += must_find ? 1 : 0;
        continue;
      }
      std::lock_guard<std::mutex> lock(known->mu);
      ++result.compared;
      if (ts::EncodeSessionBlock(resp.sessions[0]) !=
          known->blocks[id][fragment]) {
        ++result.mismatches;
      }
    } else if (verb == "FRAGMENTS") {
      std::lock_guard<std::mutex> lock(known->mu);
      const auto& frags = known->blocks[id];
      if (resp.sessions.empty()) {
        ++result.not_found;
        result.mismatches += must_find ? 1 : 0;
        continue;
      }
      size_t matched = 0;
      for (const auto& s : resp.sessions) {
        auto it = frags.find(s.fragment_index);
        if (it == frags.end()) {
          continue;  // Closed after the subscription ended; not known here.
        }
        ++result.compared;
        ++matched;
        if (ts::EncodeSessionBlock(s) != it->second) {
          ++result.mismatches;
        }
      }
      if (must_find && matched != frags.size()) {
        ++result.mismatches;
      }
    }
  }
  AddRounds(all, &result.round_p50_ms, &result.round_p99_ms);
  result.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return result;
}

std::map<std::string, int64_t> FetchStats(ts::QueryClient* client) {
  std::map<std::string, int64_t> out;
  ts::QueryResponse resp;
  if (client->Execute("STATS", &resp) && resp.ok) {
    for (const auto& [name, value] : resp.stats) {
      out[name] = value;
    }
  }
  return out;
}

}  // namespace pb
