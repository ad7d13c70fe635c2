// Tests for the distributed per-epoch histogram operator.
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/dataflow/collectors.h"
#include "src/dataflow/histogram_op.h"
#include "src/timely/timely.h"

namespace ts {
namespace {

TEST(HistogramOp, MergesPartialsAcrossWorkersExactly) {
  for (size_t workers : {1u, 4u}) {
    auto collector = std::make_shared<ConcurrentCollector<EpochHistogram>>();
    Computation::Options options;
    options.workers = workers;
    Computation::Run(options, [&](Scope& scope) {
      auto [input, stream] = scope.NewInput<double>("values");
      auto histograms = HistogramPerEpoch<double>(
          scope, stream, [](const double& v) { return v; }, "hist");
      CollectInto<EpochHistogram>(scope, histograms, collector, "collect");

      auto session = std::make_shared<InputSession<double>>(input);
      const size_t w = scope.worker_index();
      auto fed = std::make_shared<Epoch>(0);
      scope.AddDriver([session, fed, w]() -> DriverStatus {
        if (*fed == 2) {
          session->Close();
          return DriverStatus::kFinished;
        }
        // Every worker contributes the same values: 1, 2, 4, 8 -> buckets
        // 0, 1, 2, 3 with one count each per worker.
        for (double v : {1.0, 2.0, 4.0, 8.0}) {
          session->Give(v + static_cast<double>(*fed == 1 ? 8 : 0) * v);
        }
        session->AdvanceTo(++*fed);
        return DriverStatus::kWorked;
      });
    });

    auto& results = collector->items();
    ASSERT_EQ(results.size(), 2u) << "workers=" << workers;
    std::map<Epoch, EpochHistogram> by_epoch;
    for (auto& h : results) {
      by_epoch[h.epoch] = h;
    }
    // Epoch 0: values {1,2,4,8} per worker.
    const auto& e0 = by_epoch.at(0);
    EXPECT_EQ(e0.total, 4 * workers);
    for (int b : {0, 1, 2, 3}) {
      EXPECT_EQ(e0.buckets.at(b), workers) << "bucket " << b;
    }
    // Epoch 1: values x9 -> buckets 3, 4, 5, 6.
    const auto& e1 = by_epoch.at(1);
    EXPECT_EQ(e1.total, 4 * workers);
    EXPECT_EQ(e1.buckets.at(3), workers);  // 9 -> [8,16).
    EXPECT_EQ(e1.buckets.at(6), workers);  // 72 -> [64,128).
    // CDF reaches 1 and is monotone.
    auto cdf = e1.Cdf();
    ASSERT_FALSE(cdf.empty());
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
    for (size_t i = 1; i < cdf.size(); ++i) {
      EXPECT_GE(cdf[i].second, cdf[i - 1].second);
    }
  }
}

TEST(HistogramOp, EmptyEpochsProduceNoHistogram) {
  auto collector = std::make_shared<ConcurrentCollector<EpochHistogram>>();
  Computation::Options options;
  options.workers = 1;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, stream] = scope.NewInput<double>("values");
    auto histograms = HistogramPerEpoch<double>(
        scope, stream, [](const double& v) { return v; }, "hist");
    CollectInto<EpochHistogram>(scope, histograms, collector, "collect");
    auto session = std::make_shared<InputSession<double>>(input);
    auto step = std::make_shared<int>(0);
    scope.AddDriver([session, step]() -> DriverStatus {
      if ((*step)++ == 0) {
        session->Give(5.0);
        session->AdvanceTo(10);  // Epochs 1..9 are empty.
        return DriverStatus::kWorked;
      }
      session->Give(7.0);
      session->Close();
      return DriverStatus::kFinished;
    });
  });
  ASSERT_EQ(collector->items().size(), 2u);
  EXPECT_EQ(collector->items()[0].epoch, 0u);
  EXPECT_EQ(collector->items()[1].epoch, 10u);
}

}  // namespace
}  // namespace ts
