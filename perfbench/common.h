// Shared pieces of the benchmark's two programs: pb_gen (the load generator
// that drives a separate ts_sessionize process) and pb_trace (the traced
// in-process driver). Both must build the same inputs from the same seed and
// speak TS1 and the query protocol the same way, so those parts live here.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/session.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/synth.h"
#include "src/net/net_util.h"
#include "src/query/query_client.h"

namespace pb {

// --- workloads ----------------------------------------------------------------
// Every rate and size of the three workloads is fixed here, never calibrated
// per run. pb_gen and pb_trace build identical inputs from (workload, seed,
// seconds) with MakeWorkload; run.py passes only those three.

inline constexpr int kWorkers = 2;                   // --workers=2.
inline constexpr int64_t kWindowNs = 1'000'000'000;  // --inactivity_s=1.
inline constexpr int kReportTop = 5;                 // --top=5.

// paced_close: open-loop Poisson over ts_loadgen's session model. Two workers
// sustained ~215k rec/s on this model with 20k open sessions on a quiet
// 4-core x86 VM; at 100k, runs on the same VM under neighbour load lost closes
// to #DROPPED and fell behind their schedule. 50k leaves room for that.
inline constexpr double kPacedRate = 50'000;
inline constexpr size_t kPacedSessions = 20'000;
// Records due within one quantum leave in one send(), as a log shipper's
// linger would batch them.
inline constexpr int64_t kSendQuantumNs = 5'000'000;

// tiered_reads: a history large enough that a 4 MiB hot store keeps under a
// fifth of it, paced so that SUBSCRIBE delivers every session of it; then
// modest paced writes beside the query mix.
inline constexpr double kPreloadRecords = 150'000;
inline constexpr size_t kPreloadSessions = 2'000;
inline constexpr double kPreloadRate = 50'000;
inline constexpr double kTieredRate = 5'000;
inline constexpr size_t kTieredSessions = 200;
inline constexpr size_t kTieredStoreMb = 4;
inline constexpr size_t kColdSegmentMb = 1;

// tiered_reads' closed-loop client asks a fixed number of queries per second
// of run, so the tool's CPU per record counts the same work on every run.
inline constexpr double kTieredQueriesPerS = 2000;

// One session in 16 of a paced schedule is a probe: its id carries the
// upper-case tag ("lM-..." instead of "lm-..."), so a SUBSCRIBE with
// prefix=l<TAG> follows close reactions on a sample while the tool pushes a
// sixteenth of the bytes an unfiltered subscription costs.
// The SUBSCRIBE filter token for the probes of a schedule tagged `tag`.
std::string ProbeFilter(char tag);
bool IsProbe(const std::string& session_id);

int64_t NowNs();  // CLOCK_MONOTONIC, comparable across processes.

// Exact percentile (nearest rank) of `v`; sorts it. 0 for an empty vector.
double Percentile(std::vector<double>* v, double q);
// A percentile is printed only when at least 10 samples lie beyond it.
bool Supported(size_t n, double q);

// Latencies are summarised in rounds of kRoundSamples consecutive samples; a
// round's p99 then has ten samples beyond it. The figures reported are
// medians over rounds, so a stall that hits one round does not move them.
inline constexpr size_t kRoundSamples = 1000;
// Appends the p50 and p99 of each complete round of `samples` (in the order
// they were taken); a partial last round is dropped.
void AddRounds(const std::vector<double>& samples, std::vector<double>* p50,
               std::vector<double>* p99);

struct PacedOptions {
  ts::SynthOptions synth;
  double rate_per_s = 0;
  double seconds = 0;
  int64_t event_offset_ns = 0;  // Added to every intended time.
  char id_tag = 'g';            // Session ids become "l<tag>-...".
};

// Event time of the last drain-tail line of `o`, relative to the offset.
int64_t DrainEndNs(const PacedOptions& o);

struct Workload {
  std::string name;
  uint64_t seed = 0;
  double seconds = 0;
  PacedOptions preload;   // tiered_reads' history.
  PacedOptions paced;     // paced_close; tiered_reads' measured phase.
  // pb_trace's query mix after ingest on paper_replay and paced_close.
  double post_mix_s = 0;
  size_t store_mb = 256;  // ts_sessionize's default --store_mb.
  bool tiered = false;    // --cold-dir and --checkpoint-dir as well.
  // ts_sessionize's flags besides --connect and the two directories.
  std::vector<std::string> sut_args;
};

// False for an unknown workload name.
bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  Workload* w);

// --- paper_replay input ------------------------------------------------------

// The ts_workload trace calibrated to the paper's Table 1, as the wire lines
// a log server would stream, plus what the tool must report for it.
struct PaperTrace {
  std::string bytes;               // Every line, '\n'-terminated.
  std::vector<uint64_t> line_end;  // Byte offset just past each line.
  std::vector<int64_t> time;       // Event time of each line.
  std::string reference_report;    // ts_sessionize --top=5 stdout.
  uint64_t sessions = 0;           // Reference session count.
};
// 15 s of event time at 100k records/s: ~1.5M records, ~30k sessions,
// ~300 B per line. The reference comes from OfflineSessionizer over the
// parsed lines (payloads dropped: the report never reads them).
PaperTrace BuildPaperTrace(uint64_t seed, bool with_reference);

// --- paced sending -------------------------------------------------------------

// One line of a schedule.
struct ScheduledLine {
  int64_t at_ns = 0;     // Intended send time, from the start of sending.
  int64_t event_ns = 0;  // Event time the line carries.
  bool drain = false;    // Part of a drain tail, not of the measured load.
  std::string retired;   // Session id when this is its last record.
  std::string line;      // Without the '\n'.
};
using LineSource = std::function<bool(ScheduledLine*)>;

// The lines of a paced workload, in order: an open-loop Poisson schedule over
// ts_loadgen's session model, then a drain tail on one session that carries
// event time a window past the last retirement.
class PacedSchedule {
 public:
  explicit PacedSchedule(const PacedOptions& options);
  bool Next(ScheduledLine* out);  // False once the drain tail is done.

 private:
  char TagFor(const std::string& synth_id) const;

  PacedOptions options_;
  ts::SessionSynth synth_;
  ts::ArrivalSchedule arrivals_;
  int64_t next_ = 0;
  int64_t drain_at_ = 0;
  ts::SynthRecord rec_;
};

// A PacedSchedule as a LineSource.
LineSource PacedLines(const PacedOptions& options);

struct SendResult {
  uint64_t lines = 0;          // Every line written.
  uint64_t drain_lines = 0;
  int64_t t0 = 0;              // Steady-clock start of the schedule.
  int64_t t_first_byte = 0;
  // Intended span of the measured lines over the time they took to reach
  // the wire; below 1 when the generator fell behind.
  double achieved_over_goal = 0;
  std::vector<double> lateness_ms;  // Wire time − intended time, per line.
  // (prefix maximum of event time, intended send time) per line.
  std::vector<std::pair<int64_t, int64_t>> marks;
  bool ok = false;

  // Steady-clock instant at which the input that lets a session close was
  // offered: the intended send time of the first line whose event time brings
  // the watermark to last_event_ns + window. -1 if no line did.
  int64_t ClosableAt(int64_t last_event_ns) const;
};

// Writes `next`'s lines to the connected TS1 socket `fd`, each no earlier
// than its intended time. Lines due within one kSendQuantumNs tick leave in
// one send(); ticks are on an absolute grid, so sleeping late does not
// shift later ticks. `on_line` runs for every line as it is queued.
SendResult SendScheduled(int fd, const LineSource& next,
                         const std::function<void(const ScheduledLine&)>&
                             on_line);

// --- TS1 ---------------------------------------------------------------------

// Accepts one consumer on `listen_fd` and reads its "TS1 <stream> <offset>"
// hello. The returned fd is blocking.
bool AcceptTs1(int listen_fd, int timeout_ms, ts::FdGuard* conn,
               uint64_t* offset);
// Blocking send of all of `data`.
bool SendAll(int fd, const char* data, size_t size);
bool SendEos(int fd);

// --- SUBSCRIBE ---------------------------------------------------------------

// Every session a subscription delivered, kept as its canonical wire block so
// later GET/FRAGMENTS answers can be compared byte for byte.
struct Delivered {
  std::mutex mu;
  std::unordered_map<std::string, std::map<uint32_t, std::string>> blocks;
  std::vector<std::string> ids;  // Delivery order.
  // What SERVICE and RANGE ask about: every service the delivered sessions
  // touched, and each delivered session's start time.
  std::set<uint32_t> services;
  std::vector<int64_t> starts;
};

// One subscriber connection on its own thread. `on_session(s, now)` runs on
// that thread for every pushed session.
class Subscriber {
 public:
  using Callback = std::function<void(const ts::Session&, int64_t)>;
  Subscriber() = default;
  ~Subscriber() { Stop(); }
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  // SUBSCRIBE with `filter` ("" for every close, or ProbeFilter(tag)).
  bool Start(uint16_t port, const std::string& filter, Callback on_session);
  void Stop();
  uint64_t received() const { return received_.load(); }
  uint64_t dropped() const { return dropped_.load(); }
  bool failed() const { return failed_.load(); }

 private:
  std::unique_ptr<ts::QueryClient> client_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> failed_{false};
};

// Records into `d` (thread-safe).
void Remember(const ts::Session& s, Delivered* d);

// --- query mix ----------------------------------------------------------------

struct MixResult {
  std::map<std::string, std::vector<double>> ms;  // Per verb.
  // Per complete round of kRoundSamples queries: p50 and p99 round trip,
  // and queries per second.
  std::vector<double> round_p50_ms;
  std::vector<double> round_p99_ms;
  std::vector<double> round_qps;
  uint64_t attempted = 0;
  uint64_t errors = 0;       // #ERR, timeouts, transport failures.
  uint64_t mismatches = 0;   // Answers not byte-equal to SUBSCRIBE.
  uint64_t not_found = 0;    // Known id absent (evicted, no cold tier).
  uint64_t compared = 0;     // Answers compared byte for byte.
  double seconds = 0;
};

// Closed loop: one request at a time for `seconds` (or until `stop`), over
// the sessions `known` holds, in a fixed cycle of ten: four GET and three
// FRAGMENTS of one of them, one SERVICE of a service they touched (uniform,
// limit 10), one RANGE of the 10 ms from one's start (limit 10), one TOPK 10.
// Returns nothing when `known` is empty. With `must_find`, a known id that
// is absent counts as a mismatch (the tiered store keeps every session).
// Stops early after `limit` queries.
MixResult RunMix(ts::QueryClient* client, Delivered* known, double seconds,
                 uint64_t seed, bool must_find,
                 const std::atomic<bool>* stop = nullptr,
                 uint64_t limit = UINT64_MAX);

// STATS as name -> value; empty on failure.
std::map<std::string, int64_t> FetchStats(ts::QueryClient* client);

}  // namespace pb

#endif  // PERFBENCH_COMMON_H_
