// Seed-parameterized equivalence property: the online pipeline (replayer ->
// re-order buffer -> exchange -> sessionize) must reconstruct, record for
// record, the sessions an offline epoch-granularity splitter derives from the
// same trace — across random seeds, worker counts, and inactivity windows,
// provided the re-order slack covers the replay delays.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/dataflow/collectors.h"
#include "src/dataflow/ingest_driver.h"
#include "src/dataflow/sessionize.h"
#include "src/offline/offline_sessionizer.h"
#include "src/timely/timely.h"
#include "tests/canonical_session.h"

namespace ts {
namespace {

// (seed, workers, inactivity_epochs)
class OnlineOffline
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t, Epoch>> {};

TEST_P(OnlineOffline, SessionsMatchGroundTruth) {
  const auto [seed, workers, inactivity] = GetParam();

  GeneratorConfig gen;
  gen.seed = seed;
  gen.duration_ns = 7 * kNanosPerSecond;
  gen.target_records_per_sec = 4'000;

  // Ground truth from the raw trace.
  std::map<std::string, std::multiset<size_t>> expected;
  size_t expected_records = 0;
  {
    TraceGenerator g(gen);
    std::vector<LogRecord> all;
    Epoch e;
    std::vector<LogRecord> batch;
    while (g.NextEpoch(&e, &batch)) {
      for (auto& r : batch) {
        all.push_back(std::move(r));
      }
    }
    expected_records = all.size();
    for (const auto& s : OfflineSessionizer::Sessionize(std::move(all))) {
      // Epoch-granularity splitter matching the online semantics.
      size_t count = 1;
      for (size_t i = 1; i < s.records.size(); ++i) {
        const Epoch prev = static_cast<Epoch>(s.records[i - 1].time / kNanosPerSecond);
        const Epoch cur = static_cast<Epoch>(s.records[i].time / kNanosPerSecond);
        if (cur > prev + inactivity) {
          expected[s.id].insert(count);
          count = 0;
        }
        ++count;
      }
      expected[s.id].insert(count);
    }
  }

  // Online pipeline through the full replay simulation.
  ReplayerConfig replay;
  replay.num_servers = 8;
  replay.num_processes = 96;
  replay.num_workers = workers;
  replay.as_text = true;
  replay.seed = seed + 1;
  auto replayer = std::make_shared<Replayer>(replay, gen);

  auto collector = std::make_shared<ConcurrentCollector<Session>>();
  Computation::Options options;
  options.workers = workers;
  Computation::Run(options, [&, inactivity = inactivity](Scope& scope) {
    auto [input, stream] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess;
    sess.inactivity_epochs = inactivity;
    auto [sessions, metrics] = Sessionize(scope, stream, sess);
    CollectInto<Session>(scope, sessions, collector, "collect");
    auto probe = scope.Probe(
        scope.Map<Session, Unit>(sessions, "tail", [](Session) { return Unit{}; }),
        "probe");
    IngestDriver::Options ingest;
    ingest.slack_ns = 2 * kNanosPerSecond;  // Covers all replay delays.
    auto driver = std::make_shared<IngestDriver>(replayer.get(),
                                                 scope.worker_index(), input, ingest);
    driver->SetGate(probe);
    scope.AddDriver([driver] { return driver->Step(); });
  });

  std::map<std::string, std::multiset<size_t>> got;
  size_t got_records = 0;
  for (const auto& s : collector->items()) {
    got[s.id].insert(s.records.size());
    got_records += s.records.size();
  }
  EXPECT_EQ(got_records, expected_records);
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OnlineOffline,
    ::testing::Values(std::make_tuple(101, 1, 3), std::make_tuple(101, 2, 3),
                      std::make_tuple(202, 3, 2), std::make_tuple(303, 2, 5),
                      std::make_tuple(404, 4, 1), std::make_tuple(505, 2, 8)));

// Full session content, not just fragment sizes: the operator fed a seeded
// trace whose records are shuffled within each epoch and spread over every
// worker's input, with gaps of exactly inactivity_epochs (no split) and
// inactivity_epochs + 1 (split). Every session must equal the oracle's
// (OfflineSessionizer plus the epoch-gap splitter above) in id, fragment
// index, records in order and epochs, and close inactivity_epochs after its
// last epoch.
class OnlineOfflineContent : public ::testing::TestWithParam<size_t> {};

TEST_P(OnlineOfflineContent, CanonicalSessionsMatchOracle) {
  const size_t workers = GetParam();
  constexpr Epoch kInactivity = 3;
  const auto epoch_of = [](const LogRecord& r) {
    return static_cast<Epoch>(r.time / kNanosPerSecond);
  };

  // Each session walks forward from a random start epoch; every step is one
  // of: same epoch, next epoch, a gap equal to the timeout, one just past it,
  // or a long gap. Times are distinct, so record order is well defined.
  Rng rng(1234 + workers);
  const Epoch steps[] = {0, 1, kInactivity, kInactivity + 1, 3 * kInactivity};
  std::map<Epoch, std::vector<LogRecord>> by_epoch;
  std::vector<LogRecord> all;
  uint64_t serial = 0;
  for (int s = 0; s < 200; ++s) {
    Epoch epoch = rng.NextBelow(6);
    const int records = 1 + static_cast<int>(rng.NextBelow(12));
    for (int i = 0; i < records; ++i) {
      if (i > 0) {
        epoch += steps[rng.NextBelow(5)];
      }
      LogRecord r;
      r.session_id = "S" + std::to_string(s);
      r.time = static_cast<EventTime>(epoch) * kNanosPerSecond +
               static_cast<EventTime>(rng.NextBelow(1'000'000)) * 1000 +
               static_cast<EventTime>(serial % 1000);
      r.txn_id = *TxnId::Parse("1");
      r.payload = "r" + std::to_string(serial++);
      all.push_back(r);
      by_epoch[epoch].push_back(std::move(r));
    }
  }
  for (auto& [epoch, records] : by_epoch) {
    for (size_t i = records.size(); i > 1; --i) {
      std::swap(records[i - 1], records[rng.NextBelow(i)]);
    }
  }

  std::vector<std::string> expected;
  for (const auto& whole : OfflineSessionizer::Sessionize(all)) {
    Session s;
    s.id = whole.id;
    for (size_t i = 0; i <= whole.records.size(); ++i) {
      if (i == whole.records.size() ||
          (i > 0 && epoch_of(whole.records[i]) >
                        epoch_of(whole.records[i - 1]) + kInactivity)) {
        s.first_epoch = epoch_of(s.records.front());
        s.last_epoch = epoch_of(s.records.back());
        s.closed_at = s.last_epoch + kInactivity;
        expected.push_back(Canonical(s));
        ++s.fragment_index;
        s.records.clear();
      }
      if (i < whole.records.size()) {
        s.records.push_back(whole.records[i]);
      }
    }
  }
  std::sort(expected.begin(), expected.end());

  // Worker w gives the w-th of every `workers` records of each epoch.
  auto collector = std::make_shared<ConcurrentCollector<Session>>();
  Computation::Options options;
  options.workers = workers;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, stream] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess;
    sess.inactivity_epochs = kInactivity;
    auto [sessions, metrics] = Sessionize(scope, stream, sess);
    CollectInto<Session>(scope, sessions, collector, "collect");
    auto in = std::make_shared<InputSession<LogRecord>>(input);
    auto next = std::make_shared<decltype(by_epoch)::const_iterator>(by_epoch.begin());
    const size_t w = scope.worker_index();
    scope.AddDriver([in, next, w, workers, &by_epoch]() -> DriverStatus {
      if (*next == by_epoch.end()) {
        in->Close();
        return DriverStatus::kFinished;
      }
      const auto& [epoch, records] = **next;
      if (epoch > in->current_epoch()) {
        in->AdvanceTo(epoch);
      }
      for (size_t i = w; i < records.size(); i += workers) {
        in->Give(records[i]);
      }
      ++*next;
      return DriverStatus::kWorked;
    });
  });

  std::vector<std::string> got;
  for (const auto& s : collector->items()) {
    got.push_back(Canonical(s));
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, OnlineOfflineContent,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ts
