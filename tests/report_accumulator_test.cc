// ReportAccumulator: the end-of-run report built from one lock-free partial
// per shard. However the sessions are split among partials, the merged text
// must be byte-identical to one accumulator fed every session.
#include "src/analytics/report_accumulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/siphash.h"
#include "src/offline/offline_sessionizer.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

std::vector<Session> GeneratedSessions() {
  GeneratorConfig config;
  config.seed = 23;
  config.duration_ns = 3 * kNanosPerSecond;
  config.target_records_per_sec = 5'000;
  TraceGenerator gen(config);
  std::vector<LogRecord> records;
  Epoch epoch = 0;
  std::vector<LogRecord> batch;
  while (gen.NextEpoch(&epoch, &batch)) {
    records.insert(records.end(), batch.begin(), batch.end());
  }
  return OfflineSessionizer::Sessionize(std::move(records));
}

std::string Report(const std::vector<Session>& sessions, size_t partials,
                   size_t top, bool by_owner) {
  ReportAccumulator report(partials);
  for (size_t i = 0; i < sessions.size(); ++i) {
    // The live path's split (the owner shard), or an arbitrary one.
    const size_t partial =
        by_owner ? SipHash24(sessions[i].id) % partials : i % partials;
    report.Add(partial, sessions[i]);
  }
  return report.Format(/*record_count=*/12345, /*parse_failures=*/6, top);
}

TEST(ReportAccumulator, SameTextForOneTwoAndFourPartials) {
  const std::vector<Session> sessions = GeneratedSessions();
  ASSERT_GT(sessions.size(), 100u);
  for (size_t top : {size_t{0}, size_t{5}, size_t{1000}}) {
    const std::string one = Report(sessions, 1, top, /*by_owner=*/true);
    EXPECT_NE(one.find("sessions:       " + std::to_string(sessions.size())),
              std::string::npos)
        << one;
    for (size_t partials : {2, 4}) {
      for (bool by_owner : {true, false}) {
        EXPECT_EQ(Report(sessions, partials, top, by_owner), one)
            << partials << " partials, top " << top;
      }
    }
  }
}

TEST(ReportAccumulator, FormatsTheToolsLayout) {
  Session s;
  s.id = "S";
  LogRecord parent;
  parent.session_id = "S";
  parent.txn_id = *TxnId::Parse("1");
  parent.service = 1;
  parent.time = 0;
  LogRecord child = parent;
  child.txn_id = *TxnId::Parse("1-1");
  child.service = 2;
  child.time = 1'000'000;
  s.records = {parent, child};
  ReportAccumulator report(2);
  report.Add(1, s);
  EXPECT_EQ(report.Format(2, 0, 3),
            "records:        2 (0 unparseable lines skipped)\n"
            "sessions:       1\n"
            "trace trees:    1\n"
            "spans:          2 (0 inferred from descendants)\n"
            "service edges:  1 (1 calls)\n"
            "\n"
            "top tree structures:\n"
            "         1 x " +
                TraceTree::FromSession(s)[0].SignatureKey() +
                "\n"
                "\n"
                "hottest service pairs:\n"
                "         1 x svc-1 -> svc-2\n");
}

}  // namespace
}  // namespace ts
