// Tests for the sessionization operator (§4.2): inactivity-window semantics,
// fragmentation, exact-boundary behaviour, multi-worker partitioning, metrics.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dataflow/collectors.h"
#include "src/dataflow/sessionize.h"
#include "src/timely/timely.h"

namespace ts {
namespace {

LogRecord Rec(const std::string& session, Epoch epoch, const char* txn = "1",
              EventTime offset_ns = 0) {
  LogRecord r;
  r.time = static_cast<EventTime>(epoch) * kNanosPerSecond + offset_ns;
  r.session_id = session;
  r.txn_id = *TxnId::Parse(txn);
  r.service = 1;
  return r;
}

struct SessionizeRun {
  std::vector<Session> sessions;
  SessionizeMetrics metrics;  // Worker 0's metrics (single-worker runs).
};

// Feeds `by_epoch` (epoch -> records) from worker 0 and returns all emitted
// sessions, sorted by (id, fragment).
SessionizeRun RunSessionize(size_t workers, const SessionizeOptions& options,
                            const std::map<Epoch, std::vector<LogRecord>>& by_epoch) {
  auto collector = std::make_shared<ConcurrentCollector<Session>>();
  auto metrics_out = std::make_shared<SessionizeMetrics>();

  Computation::Options copts;
  copts.workers = workers;
  Computation::Run(copts, [&](Scope& scope) {
    auto [input, stream] = scope.NewInput<LogRecord>("logs");
    auto [sessions, metrics] = Sessionize(scope, stream, options);
    CollectInto<Session>(scope, sessions, collector, "collect");

    auto session = std::make_shared<InputSession<LogRecord>>(input);
    if (scope.worker_index() == 0) {
      auto it = std::make_shared<std::map<Epoch, std::vector<LogRecord>>::const_iterator>(
          by_epoch.begin());
      scope.AddDriver([session, it, &by_epoch]() mutable -> DriverStatus {
        if (*it == by_epoch.end()) {
          session->Close();
          return DriverStatus::kFinished;
        }
        const Epoch target = (*it)->first;
        if (target > session->current_epoch()) {
          session->AdvanceTo(target);
        }
        session->GiveBatch((*it)->second);
        ++*it;
        return DriverStatus::kWorked;
      });
    } else {
      scope.AddDriver([session]() -> DriverStatus {
        session->Close();
        return DriverStatus::kFinished;
      });
    }
    if (scope.worker_index() == 0) {
      scope.AddStepCallback([metrics = metrics, metrics_out] { *metrics_out = *metrics; });
    }
  });

  SessionizeRun run;
  run.sessions = std::move(collector->items());
  std::sort(run.sessions.begin(), run.sessions.end(),
            [](const Session& a, const Session& b) {
              return std::tie(a.id, a.fragment_index) <
                     std::tie(b.id, b.fragment_index);
            });
  run.metrics = *metrics_out;
  return run;
}

TEST(Sessionize, FlushesAfterInactivity) {
  SessionizeOptions options;
  options.inactivity_epochs = 2;
  auto run = RunSessionize(1, options,
                           {{0, {Rec("A", 0), Rec("A", 0, "1-1")}},
                            {1, {Rec("A", 1, "1-2")}}});
  ASSERT_EQ(run.sessions.size(), 1u);
  const Session& s = run.sessions[0];
  EXPECT_EQ(s.id, "A");
  EXPECT_EQ(s.records.size(), 3u);
  EXPECT_EQ(s.first_epoch, 0u);
  EXPECT_EQ(s.last_epoch, 1u);
  EXPECT_EQ(s.closed_at, 3u);  // last activity (1) + inactivity (2).
  EXPECT_EQ(s.fragment_index, 0u);
}

TEST(Sessionize, ActivityExtendsTheWindow) {
  SessionizeOptions options;
  options.inactivity_epochs = 3;
  // Activity at 0, 2, 4: each arrival within the window keeps it open.
  auto run = RunSessionize(
      1, options, {{0, {Rec("A", 0)}}, {2, {Rec("A", 2)}}, {4, {Rec("A", 4)}}});
  ASSERT_EQ(run.sessions.size(), 1u);
  EXPECT_EQ(run.sessions[0].records.size(), 3u);
  EXPECT_EQ(run.sessions[0].closed_at, 7u);
}

TEST(Sessionize, GapEqualToTimeoutDoesNotSplit) {
  SessionizeOptions options;
  options.inactivity_epochs = 3;
  // Last activity epoch 0; next at epoch 3 == 0 + timeout. Data for an epoch
  // is processed before that epoch's notification fires, so the session
  // survives; only a gap strictly greater than the timeout splits.
  auto run = RunSessionize(1, options, {{0, {Rec("A", 0)}}, {3, {Rec("A", 3)}}});
  ASSERT_EQ(run.sessions.size(), 1u);
  EXPECT_EQ(run.sessions[0].records.size(), 2u);
}

TEST(Sessionize, GapBeyondTimeoutFragmentsSession) {
  SessionizeOptions options;
  options.inactivity_epochs = 2;
  auto run = RunSessionize(
      1, options, {{0, {Rec("A", 0)}}, {1, {Rec("A", 1)}}, {10, {Rec("A", 10)}}});
  ASSERT_EQ(run.sessions.size(), 2u);
  EXPECT_EQ(run.sessions[0].fragment_index, 0u);
  EXPECT_EQ(run.sessions[0].records.size(), 2u);
  EXPECT_EQ(run.sessions[0].closed_at, 3u);
  EXPECT_EQ(run.sessions[1].fragment_index, 1u);
  EXPECT_EQ(run.sessions[1].records.size(), 1u);
  EXPECT_EQ(run.metrics.fragments_out, 1u);
}

TEST(Sessionize, InterleavedSessionsSeparateCleanly) {
  SessionizeOptions options;
  options.inactivity_epochs = 2;
  auto run = RunSessionize(1, options,
                           {{0, {Rec("A", 0), Rec("B", 0)}},
                            {1, {Rec("B", 1), Rec("A", 1)}},
                            {5, {Rec("C", 5)}}});
  ASSERT_EQ(run.sessions.size(), 3u);
  EXPECT_EQ(run.sessions[0].id, "A");
  EXPECT_EQ(run.sessions[0].records.size(), 2u);
  EXPECT_EQ(run.sessions[1].id, "B");
  EXPECT_EQ(run.sessions[1].records.size(), 2u);
  EXPECT_EQ(run.sessions[2].id, "C");
  EXPECT_EQ(run.sessions[2].records.size(), 1u);
}

TEST(Sessionize, MetricsTrackStateAndOutput) {
  SessionizeOptions options;
  options.inactivity_epochs = 1;
  auto run = RunSessionize(1, options,
                           {{0, {Rec("A", 0), Rec("B", 0), Rec("A", 0, "1-1")}}});
  EXPECT_EQ(run.metrics.records_in, 3u);
  EXPECT_EQ(run.metrics.sessions_out, 2u);
  EXPECT_EQ(run.metrics.fragments_out, 0u);
  EXPECT_EQ(run.metrics.peak_inflight_sessions, 2u);
  EXPECT_GT(run.metrics.peak_state_bytes, 0u);
}

class SessionizeWorkers : public ::testing::TestWithParam<size_t> {};

TEST_P(SessionizeWorkers, PartitionedSessionsAllEmittedExactlyOnce) {
  const size_t workers = GetParam();
  SessionizeOptions options;
  options.inactivity_epochs = 2;

  std::map<Epoch, std::vector<LogRecord>> by_epoch;
  constexpr int kSessions = 64;
  for (int s = 0; s < kSessions; ++s) {
    const std::string id = "SESS-" + std::to_string(s);
    // Each session has records in three consecutive epochs starting at s % 4.
    const Epoch base = static_cast<Epoch>(s % 4);
    for (Epoch e = base; e < base + 3; ++e) {
      by_epoch[e].push_back(Rec(id, e, "1"));
      by_epoch[e].push_back(Rec(id, e, "1-1", 1000));
    }
  }
  auto run = RunSessionize(workers, options, by_epoch);
  ASSERT_EQ(run.sessions.size(), static_cast<size_t>(kSessions));
  for (const auto& s : run.sessions) {
    EXPECT_EQ(s.records.size(), 6u) << s.id;
    EXPECT_EQ(s.fragment_index, 0u) << s.id;
    // Records arrive in epoch order within the session.
    for (size_t i = 1; i < s.records.size(); ++i) {
      EXPECT_LE(s.records[i - 1].time / kNanosPerSecond,
                s.records[i].time / kNanosPerSecond);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SessionizeWorkers,
                         ::testing::Values(1, 2, 3, 4));

TEST(Sessionize, LongLivedSessionSurvivesManyEpochs) {
  SessionizeOptions options;
  options.inactivity_epochs = 3;
  std::map<Epoch, std::vector<LogRecord>> by_epoch;
  for (Epoch e = 0; e < 50; e += 2) {
    by_epoch[e].push_back(Rec("LONG", e));
  }
  auto run = RunSessionize(1, options, by_epoch);
  ASSERT_EQ(run.sessions.size(), 1u);
  EXPECT_EQ(run.sessions[0].records.size(), 25u);
  EXPECT_EQ(run.sessions[0].first_epoch, 0u);
  EXPECT_EQ(run.sessions[0].last_epoch, 48u);
}

}  // namespace
}  // namespace ts
