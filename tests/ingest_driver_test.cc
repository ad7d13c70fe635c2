// End-to-end ingestion tests: Replayer -> IngestDriver (re-order + epoch
// batching) -> dataflow input, verifying conservation, epoch assignment, and
// gating.
#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/dataflow/ingest_driver.h"
#include "src/timely/timely.h"

namespace ts {
namespace {

GeneratorConfig SmallGen() {
  GeneratorConfig config;
  config.seed = 55;
  config.duration_ns = 6 * kNanosPerSecond;
  config.target_records_per_sec = 4'000;
  return config;
}

ReplayerConfig SmallReplay(size_t workers, bool as_text) {
  ReplayerConfig config;
  config.num_servers = 4;
  config.num_processes = 32;
  config.num_workers = workers;
  config.as_text = as_text;
  return config;
}

struct IngestResult {
  uint64_t records_fed = 0;
  uint64_t out_of_epoch = 0;
  uint64_t reorder_dropped = 0;
  uint64_t parse_failures = 0;
  std::map<Epoch, IngestDriver::EpochIngest> epochs;
};

IngestResult RunIngest(size_t workers, bool as_text, EventTime slack_ns,
                       bool gated) {
  auto result = std::make_shared<IngestResult>();
  auto replayer =
      std::make_shared<Replayer>(SmallReplay(workers, as_text), SmallGen());
  std::atomic<uint64_t> fed{0};
  std::atomic<uint64_t> out_of_epoch{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> parse_failures{0};
  std::mutex epochs_mu;

  Computation::Options options;
  options.workers = workers;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, stream] = scope.NewInput<LogRecord>("logs");
    // Sink checks every record's epoch assignment.
    auto counted = scope.Unary<LogRecord, Unit>(
        stream, Partition<LogRecord>::Pipeline(), "check",
        [&fed, &out_of_epoch](Epoch e, std::vector<LogRecord>& data,
                              OutputSession<Unit>& out, NotificatorHandle&) {
          for (const auto& r : data) {
            fed.fetch_add(1, std::memory_order_relaxed);
            if (static_cast<Epoch>(r.time / kNanosPerSecond) != e) {
              out_of_epoch.fetch_add(1, std::memory_order_relaxed);
            }
          }
          out.Give(e, Unit{});
          data.clear();
        },
        [](Epoch, OutputSession<Unit>&, NotificatorHandle&) {});
    auto probe = scope.Probe(counted, "probe");

    IngestDriver::Options opts;
    opts.slack_ns = slack_ns;
    auto driver = std::make_shared<IngestDriver>(
        replayer.get(), scope.worker_index(), input, opts);
    if (gated) {
      driver->SetGate(probe);
    }
    scope.AddDriver([driver, &dropped, &parse_failures, result,
                     &epochs_mu]() -> DriverStatus {
      const DriverStatus status = driver->Step();
      if (status == DriverStatus::kFinished) {
        dropped.fetch_add(driver->reorder_stats().discarded_late);
        parse_failures.fetch_add(driver->parse_failures());
        std::lock_guard<std::mutex> lock(epochs_mu);
        for (const auto& [e, ingest] : driver->epochs()) {
          auto& agg = result->epochs[e];
          agg.records += ingest.records;
          agg.input_cpu_ns += ingest.input_cpu_ns;
        }
      }
      return status;
    });
  });

  result->records_fed = fed.load();
  result->out_of_epoch = out_of_epoch.load();
  result->reorder_dropped = dropped.load();
  result->parse_failures = parse_failures.load();
  return *result;
}

uint64_t GeneratedRecords() {
  TraceGenerator gen(SmallGen());
  Epoch e;
  std::vector<LogRecord> r;
  uint64_t total = 0;
  while (gen.NextEpoch(&e, &r)) {
    total += r.size();
  }
  return total;
}

TEST(IngestDriver, ConservesRecordsAndAssignsEpochsByEventTime) {
  const uint64_t generated = GeneratedRecords();
  auto result = RunIngest(/*workers=*/1, /*as_text=*/true, /*slack=*/2 * kNanosPerSecond,
                          /*gated=*/false);
  EXPECT_EQ(result.parse_failures, 0u);
  EXPECT_EQ(result.records_fed + result.reorder_dropped, generated);
  EXPECT_EQ(result.out_of_epoch, 0u);
  // With 2s slack vs <1s flush intervals, nothing should be dropped.
  EXPECT_EQ(result.reorder_dropped, 0u);
  // Ingestion CPU was attributed.
  int64_t total_cpu = 0;
  uint64_t total_records = 0;
  for (const auto& [e, ingest] : result.epochs) {
    total_cpu += ingest.input_cpu_ns;
    total_records += ingest.records;
  }
  EXPECT_GT(total_cpu, 0);
  EXPECT_EQ(total_records, result.records_fed);
}

TEST(IngestDriver, MultiWorkerConservation) {
  const uint64_t generated = GeneratedRecords();
  auto result =
      RunIngest(/*workers=*/3, true, 2 * kNanosPerSecond, /*gated=*/false);
  EXPECT_EQ(result.records_fed + result.reorder_dropped, generated);
  EXPECT_EQ(result.out_of_epoch, 0u);
  EXPECT_EQ(result.reorder_dropped, 0u);
}

TEST(IngestDriver, GatedModeStillConserves) {
  const uint64_t generated = GeneratedRecords();
  auto result = RunIngest(/*workers=*/2, false, 2 * kNanosPerSecond, /*gated=*/true);
  EXPECT_EQ(result.records_fed + result.reorder_dropped, generated);
  EXPECT_EQ(result.reorder_dropped, 0u);
}

TEST(IngestDriver, TightSlackDropsLateRecordsButStaysOrdered) {
  // Slack far below the flush interval: late records must be discarded, the
  // rest still fed with correct epochs.
  const uint64_t generated = GeneratedRecords();
  auto result = RunIngest(1, false, /*slack=*/20 * kNanosPerMilli, false);
  EXPECT_GT(result.reorder_dropped, 0u);
  EXPECT_EQ(result.records_fed + result.reorder_dropped, generated);
  EXPECT_EQ(result.out_of_epoch, 0u);
}

}  // namespace
}  // namespace ts
