// pb_gen: the benchmark's load generator. One process, at most three
// threads (feed, subscriber, query client) and three connections to the
// system under test: it listens for ts_sessionize's TS1 ingest connection,
// SUBSCRIBEs to its query port, and asks queries on a third connection.
//
//   pb_gen --workload=<paper_replay|paced_close|tiered_reads> --seed=N
//          --seconds=S --dir=D
//
// It builds its inputs from (workload, seed, seconds) with MakeWorkload (the
// paper_replay reference report goes to D/reference.txt), prints one JSON
// line {"ev":"ready","port":P,"sut_args":[...],...} and then executes
// commands read from stdin, one per line, answering each with one JSON line
// on stdout. perfbench/run.py spawns ts_sessionize instances with sut_args
// against the port and drives the commands:
//
//   attach QPORT OFFSET   accept the TS1 connection (hello must ask for
//                         OFFSET), then answer one STATS on QPORT: set-up
//   replay                stream the paper trace as fast as TCP admits, #EOS
//   paced                 paced_close: open-loop Poisson load plus drain
//                         tail, a SUBSCRIBE to its probe sessions, wait for
//                         their closes, #EOS
//   preload               tiered_reads' history, its probes' closes
//                         remembered, #EOS
//   tiered                tiered_reads' paced ingest, every close subscribed,
//                         beside a fixed number of queries on the remembered
//                         ids, #EOS
//   finish                final STATS and subscription results
//   eos                   end the stream at once (set-up only instances)
//   detach                drop every connection to the current instance
//   quit
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/common.h"

namespace pb {
namespace {

// A cap on tiered_reads' query mix, far above what it needs, so a stalled
// instance cannot hold the run past its time limit.
constexpr double kMaxMixSeconds = 60;

const char* Arg(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

// Minimal JSON object writer: numbers and flat string->number maps.
class Json {
 public:
  Json& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return Raw(key, buf);
  }
  Json& Str(const char* key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  Json& Map(const char* key, const std::map<std::string, int64_t>& m) {
    std::string s = "{";
    for (const auto& [k, v] : m) {
      s += (s.size() > 1 ? ",\"" : "\"") + k + "\":" + std::to_string(v);
    }
    return Raw(key, s + "}");
  }
  Json& Raw(const char* key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + std::string(key) + "\":" + v;
    return *this;
  }
  void Print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

// Percentiles of a sample set, each printed with the sample count and only
// when at least ten samples lie beyond it.
std::string Summary(std::vector<double> v) {
  char buf[160];
  const size_t n = v.size();
  const double p50 = Percentile(&v, 0.50);
  const double p99 = Percentile(&v, 0.99);
  std::snprintf(buf, sizeof(buf), "{\"n\":%zu,\"p50\":%s,\"p99\":%s}", n,
                Supported(n, 0.50) ? std::to_string(p50).c_str() : "null",
                Supported(n, 0.99) ? std::to_string(p99).c_str() : "null");
  return buf;
}

// Median over rounds; null without a complete round.
std::string Median(std::vector<double> v) {
  return v.empty() ? "null" : std::to_string(Percentile(&v, 0.5));
}

std::string List(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) {
    out += (out.size() > 1 ? "," : "") + std::to_string(x);
  }
  return out + "]";
}

// Sessions the subscription delivered, with the event time of their last
// record. Close reaction = receipt − the intended send time of the line that
// let the session close (SendResult::ClosableAt), in its own recorder.
class CloseTracker {
 public:
  // A session's last record was queued; its close is expected.
  void Arm(const std::string& id, int64_t last_event_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_[id] = last_event_ns;
    ++armed_total_;
  }
  // Keeps `s` as a sample if it is the close of an armed session. Earlier
  // fragments of a session and the drain session are not samples.
  void Observe(const ts::Session& s, int64_t receipt_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = armed_.find(s.id);
    if (it != armed_.end() && it->second == s.MaxTime()) {
      seen_.emplace_back(receipt_ns, it->second);
      armed_.erase(it);
    }
  }
  size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return armed_.size();
  }
  uint64_t armed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return armed_total_;
  }
  // Reactions in ms against what was sent, in receipt order; a close no sent
  // line made possible (closed by the end of the stream) is not a reaction.
  std::vector<double> Reactions(const SendResult& sent) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> ms;
    for (const auto& [receipt, last] : seen_) {
      const int64_t at = sent.ClosableAt(last);
      if (at >= 0) {
        ms.push_back(static_cast<double>(receipt - at) / 1e6);
      }
    }
    return ms;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_.clear();
    armed_total_ = 0;
    seen_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, int64_t> armed_;
  uint64_t armed_total_ = 0;
  std::vector<std::pair<int64_t, int64_t>> seen_;  // (receipt, last event)
};

class Generator {
 public:
  explicit Generator(std::string dir) : dir_(std::move(dir)) {}

  bool Init(const std::string& workload, uint64_t seed, double seconds) {
    const int64_t t0 = NowNs();
    if (!MakeWorkload(workload, seed, seconds, &w_)) {
      return false;
    }
    if (w_.name == "paper_replay") {
      trace_ = BuildPaperTrace(seed, /*with_reference=*/true);
    }
    const int fd = ts::ListenTcp("127.0.0.1", 0, &port_);
    if (fd < 0) {
      return false;
    }
    listen_ = ts::FdGuard(fd);
    if (!trace_.reference_report.empty()) {
      // The reference report, for run.py to compare with the tool's stdout;
      // written before "ready" so run.py never reads it half-written.
      FILE* f = std::fopen((dir_ + "/reference.txt").c_str(), "w");
      if (f == nullptr) {
        return false;
      }
      std::fwrite(trace_.reference_report.data(), 1,
                  trace_.reference_report.size(), f);
      std::fclose(f);
    }
    std::string args = "[";
    for (const auto& a : w_.sut_args) {
      args += (args.size() > 1 ? ",\"" : "\"") + a + "\"";
    }
    Json()
        .Str("ev", "ready")
        .Num("port", port_)
        .Raw("sut_args", args + "]")
        .Num("tiered", w_.tiered)
        .Num("records", static_cast<double>(trace_.line_end.size()))
        .Num("sessions", static_cast<double>(trace_.sessions))
        .Num("input_s", static_cast<double>(NowNs() - t0) / 1e9)
        .Print();
    return true;
  }

  bool Handle(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "attach") {
      uint64_t expect = 0;
      in >> qport_ >> expect;
      Attach(expect);
    } else if (cmd == "replay") {
      Replay();
    } else if (cmd == "paced") {
      Paced();
    } else if (cmd == "preload") {
      Preload();
    } else if (cmd == "tiered") {
      Tiered();
    } else if (cmd == "finish") {
      Finish();
    } else if (cmd == "eos") {
      const bool ok = feed_.valid() && SendEos(feed_.get());
      Json().Str("ev", "eos").Num("ok", ok).Print();
    } else if (cmd == "detach") {
      Detach();
      Json().Str("ev", "detached").Print();
    } else if (cmd == "quit") {
      Detach();
      return false;
    } else {
      Json().Str("ev", "error").Str("what", "unknown command").Print();
    }
    return true;
  }

 private:
  void Attach(uint64_t expect) {
    Detach();
    uint64_t offset = 0;
    const bool accepted = AcceptTs1(listen_.get(), 30'000, &feed_, &offset);
    ts::QueryClientOptions options;
    options.port = qport_;
    options.io_timeout_ms = 5000;
    query_ = std::make_unique<ts::QueryClient>(options);
    const bool answered = query_->Connect() && !FetchStats(query_.get()).empty();
    const int64_t t_ans = NowNs();
    lines_ = 0;
    Json()
        .Str("ev", "attached")
        .Num("ok", accepted && answered && offset == expect)
        .Num("offset", static_cast<double>(offset))
        .Num("t_ans", static_cast<double>(t_ans))
        .Print();
  }

  void Detach() {
    sub_.Stop();
    query_.reset();
    feed_ = ts::FdGuard();
  }

  // paper_replay, timed: the whole trace at the speed TCP backpressure
  // admits, then #EOS.
  void Replay() {
    const int64_t t0 = NowNs();
    lines_ = trace_.line_end.size();
    const bool ok = SendAll(feed_.get(), trace_.bytes.data(), trace_.bytes.size()) &&
                    SendEos(feed_.get());
    Json()
        .Str("ev", "fed")
        .Num("ok", ok)
        .Num("quiesced", 1)
        .Num("lines", static_cast<double>(lines_))
        .Num("t_first", static_cast<double>(t0))
        .Print();
  }

  // paced_close: the open-loop schedule, every probe's close armed.
  void Paced() {
    tracker_.Clear();
    Follow(w_.paced, /*probes_only=*/true,
           [this](const ts::Session& s, int64_t now) { tracker_.Observe(s, now); });
    Send(w_.paced);
    const bool quiet = Quiesce();  // Before #EOS force-closes the pool.
    Fed(sub_ok_ && sent_.ok && SendEos(feed_.get()), quiet).Print();
  }

  // tiered_reads' history: every probe's close remembered for the query mix
  // and its byte-equal checks after the restart.
  void Preload() {
    tracker_.Clear();
    Follow(w_.preload, /*probes_only=*/true,
           [this](const ts::Session& s, int64_t now) {
             tracker_.Observe(s, now);
             Remember(s, &known_);
           });
    Send(w_.preload);
    const bool quiet = Quiesce();
    Fed(sub_ok_ && sent_.ok && SendEos(feed_.get()), quiet).Print();
  }

  // tiered_reads' measured phase: paced writes beside a fixed number of
  // queries. The writes are light enough to subscribe to every close. The
  // queries go on past the schedule's end if a slow host needs them to.
  void Tiered() {
    tracker_.Clear();
    Follow(w_.paced, /*probes_only=*/false,
           [this](const ts::Session& s, int64_t now) { tracker_.Observe(s, now); });
    const auto queries = static_cast<uint64_t>(kTieredQueriesPerS * w_.seconds);
    MixResult mix;
    std::thread mix_thread([&] {
      mix = RunMix(query_.get(), &known_, kMaxMixSeconds, w_.seed, true,
                   nullptr, queries);
    });
    Send(w_.paced);
    mix_thread.join();
    const bool quiet = Quiesce();
    Json json = Fed(sub_ok_ && sent_.ok && SendEos(feed_.get()), quiet);
    AddMix(&json, mix);
    json.Print();
  }

  // Subscribes to the closes of `options`' sessions, or of its probes only.
  void Follow(const PacedOptions& options, bool probes_only,
              Subscriber::Callback on_session) {
    probes_only_ = probes_only;
    sub_ok_ = sub_.Start(qport_, probes_only ? ProbeFilter(options.id_tag) : "",
                         std::move(on_session));
  }

  // Sends a paced schedule, arming the close of every session the
  // subscription follows.
  void Send(const PacedOptions& options) {
    sent_ = SendScheduled(feed_.get(), PacedLines(options),
                          [this](const ScheduledLine& line) {
                            if (!line.retired.empty() &&
                                (!probes_only_ || IsProbe(line.retired))) {
                              tracker_.Arm(line.retired, line.event_ns);
                            }
                          });
    lines_ = sent_.lines;
  }

  Json Fed(bool ok, bool quiesced) const {
    Json json;
    json.Str("ev", "fed")
        .Num("ok", ok)
        .Num("quiesced", quiesced)
        .Num("lines", static_cast<double>(sent_.lines))
        .Num("drain_records", static_cast<double>(sent_.drain_lines))
        .Num("armed", static_cast<double>(tracker_.armed()))
        .Num("missing", static_cast<double>(tracker_.pending()))
        .Num("t_first", static_cast<double>(sent_.t_first_byte))
        .Num("achieved_over_goal", sent_.achieved_over_goal)
        .Raw("lateness_ms", Summary(sent_.lateness_ms));
    return json;
  }

  // Waits until the instance has parsed every line sent and the subscriber
  // has seen (or been told it lost) every session closed so far.
  bool Quiesce() {
    const int64_t deadline = NowNs() + 30'000'000'000;
    while (NowNs() < deadline) {
      const auto st = FetchStats(query_.get());
      if (st.empty()) {
        return false;
      }
      const int64_t in = st.at("live_records") + st.at("live_parse_failures") +
                         st.at("live_blank_lines") + st.at("live_shed_lines");
      // Closes the query server has offered to the subscriber so far; with
      // a filter, every close it has checked against it.
      const int64_t offered = probes_only_
                                  ? st.at("sub_filter_evals")
                                  : st.at("server_sessions_streamed") +
                                        st.at("server_sessions_dropped");
      if (in == static_cast<int64_t>(lines_) &&
          offered == st.at("live_sessions_closed") &&
          static_cast<int64_t>(sub_.received()) >=
              st.at("server_sessions_streamed")) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  static void AddMix(Json* json, const MixResult& mix) {
    size_t completed = 0;
    std::string verbs = "{";
    for (const auto& [verb, ms] : mix.ms) {
      completed += ms.size();
      verbs += (verbs.size() > 1 ? ",\"" : "\"") + verb + "\":" + Summary(ms);
    }
    json->Num("queries", static_cast<double>(mix.attempted))
        .Num("query_errors", static_cast<double>(mix.errors))
        .Num("mismatches", static_cast<double>(mix.mismatches))
        .Num("compared", static_cast<double>(mix.compared))
        .Num("not_found", static_cast<double>(mix.not_found))
        .Num("mix_s", mix.seconds)
        .Num("completed", static_cast<double>(completed))
        .Num("rounds", static_cast<double>(mix.round_qps.size()))
        .Raw("query_p50_ms", Median(mix.round_p50_ms))
        .Raw("query_p99_ms", Median(mix.round_p99_ms))
        .Raw("queries_per_s", Median(mix.round_qps))
        .Raw("round_p50_ms", List(mix.round_p50_ms))
        .Raw("round_p99_ms", List(mix.round_p99_ms))
        .Raw("round_qps", List(mix.round_qps))
        .Raw("verbs", verbs + "}");
  }

  // After the tool's "serving" banner: every session has reached the store.
  void Finish() {
    auto st = query_ != nullptr ? FetchStats(query_.get())
                                : std::map<std::string, int64_t>{};
    // Let the subscriber read the pushes the end of stream produced.
    const int64_t deadline = NowNs() + 5'000'000'000;
    while (!st.empty() && NowNs() < deadline &&
           static_cast<int64_t>(sub_.received()) <
               st["server_sessions_streamed"]) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    sub_.Stop();
    // This instance's close reactions.
    const auto r = tracker_.Reactions(sent_);
    std::vector<double> p50;
    std::vector<double> p99;
    AddRounds(r, &p50, &p99);
    tracker_.Clear();
    Json()
        .Str("ev", "finish")
        .Num("ok", !st.empty())
        .Num("lines", static_cast<double>(lines_))
        .Map("stats", st)
        .Num("sub_received", static_cast<double>(sub_.received()))
        .Num("sub_dropped", static_cast<double>(sub_.dropped()))
        .Num("sub_failed", sub_.failed())
        .Raw("reaction_ms", Summary(r))
        .Num("reaction_rounds", static_cast<double>(p50.size()))
        .Raw("close_reaction_p50_ms", Median(p50))
        .Raw("close_reaction_p99_ms", Median(p99))
        .Raw("round_reaction_p99_ms", List(p99))
        .Print();
  }

  const std::string dir_;  // Scratch directory of this run.
  Workload w_;
  PaperTrace trace_;
  ts::FdGuard listen_;
  uint16_t port_ = 0;
  uint16_t qport_ = 0;
  ts::FdGuard feed_;
  std::unique_ptr<ts::QueryClient> query_;
  Subscriber sub_;
  bool sub_ok_ = false;
  bool probes_only_ = false;  // The subscription follows probes only.
  uint64_t lines_ = 0;
  SendResult sent_;  // The last schedule sent.
  Delivered known_;
  CloseTracker tracker_;
};

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const char* workload = pb::Arg(argc, argv, "--workload");
  const char* seed = pb::Arg(argc, argv, "--seed");
  const char* seconds = pb::Arg(argc, argv, "--seconds");
  const char* dir = pb::Arg(argc, argv, "--dir");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      dir == nullptr) {
    std::fprintf(stderr,
                 "usage: pb_gen --workload=W --seed=N --seconds=S --dir=D\n");
    return 2;
  }
  pb::Generator gen(dir);
  if (!gen.Init(workload, std::strtoull(seed, nullptr, 10),
                std::atof(seconds))) {
    std::fprintf(stderr, "pb_gen: cannot set up workload %s\n", workload);
    return 1;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!gen.Handle(line)) {
      break;
    }
  }
  return 0;
}
