// Tests for the analytics operator helpers: duration histograms, session
// statistics, and service invocation counts wired as dataflow stages.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/dataflow/session_stats.h"
#include "src/dataflow/sessionize.h"
#include "src/dataflow/tree_ops.h"
#include "src/timely/timely.h"

namespace ts {
namespace {

LogRecord Rec(const std::string& session, EventTime t, const char* txn,
              uint32_t service = 1) {
  LogRecord r;
  r.time = t;
  r.session_id = session;
  r.txn_id = *TxnId::Parse(txn);
  r.service = service;
  return r;
}

struct Handles {
  std::shared_ptr<ConcurrentLogHistogram> durations;
  std::shared_ptr<ConcurrentSamples> session_durations;
  std::shared_ptr<ConcurrentSamples> invocations;
};

Handles RunAnalytics(const std::vector<LogRecord>& records) {
  Handles handles;
  Computation::Options options;
  options.workers = 1;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, stream] = scope.NewInput<LogRecord>("logs");
    SessionizeOptions sess;
    sess.inactivity_epochs = 2;
    auto [sessions, metrics] = Sessionize(scope, stream, sess);
    handles.session_durations = SessionDurations(scope, sessions);
    auto trees = ConstructTraceTrees(scope, sessions);
    handles.durations = TreeDurationHistogram(scope, trees);
    handles.invocations = ServiceInvocationCounts(scope, trees);

    auto in = std::make_shared<InputSession<LogRecord>>(input);
    auto cursor = std::make_shared<size_t>(0);
    scope.AddDriver([in, cursor, &records]() -> DriverStatus {
      if (*cursor == records.size()) {
        in->Close();
        return DriverStatus::kFinished;
      }
      const Epoch e = static_cast<Epoch>(records[*cursor].time / kNanosPerSecond);
      if (e > in->current_epoch()) {
        in->AdvanceTo(e);
      }
      while (*cursor < records.size() &&
             static_cast<Epoch>(records[*cursor].time / kNanosPerSecond) == e) {
        in->Give(records[(*cursor)++]);
      }
      return DriverStatus::kWorked;
    });
  });
  return handles;
}

TEST(Analytics, TreeDurationHistogramLogDiscretizesMillis) {
  // Session A: one tree spanning 8 ms (bucket log2(8)=3); session B: one
  // single-record tree (filtered: < 2 records).
  std::vector<LogRecord> records = {
      Rec("A", 0, "1"),
      Rec("A", 8 * kNanosPerMilli, "1-1"),
      Rec("B", kNanosPerMilli, "1"),
  };
  auto handles = RunAnalytics(records);
  const auto& hist = handles.durations->histogram();
  EXPECT_EQ(hist.total(), 1u);
  EXPECT_EQ(hist.buckets().at(3), 1u);
}

TEST(Analytics, SessionDurationsCollectTimespans) {
  std::vector<LogRecord> records = {
      Rec("A", 0, "1"),
      Rec("A", 500 * kNanosPerMilli, "1"),
      Rec("B", 0, "1"),
  };
  auto handles = RunAnalytics(records);
  auto& samples = handles.session_durations->samples();
  ASSERT_EQ(samples.count(), 2u);
  EXPECT_DOUBLE_EQ(samples.Min(), 0.0);    // B: single record.
  EXPECT_DOUBLE_EQ(samples.Max(), 500.0);  // A: 500 ms.
}

TEST(Analytics, ServiceInvocationCountsDistinctServicesPerTree) {
  std::vector<LogRecord> records = {
      Rec("A", 0, "1", 10),
      Rec("A", 1000, "1-1", 20),
      Rec("A", 2000, "1-2", 20),   // Same service twice: still 2 distinct.
      Rec("B", 0, "1", 30),
  };
  auto handles = RunAnalytics(records);
  auto& samples = handles.invocations->samples();
  ASSERT_EQ(samples.count(), 2u);
  EXPECT_DOUBLE_EQ(samples.Min(), 1.0);
  EXPECT_DOUBLE_EQ(samples.Max(), 2.0);
}

}  // namespace
}  // namespace ts
