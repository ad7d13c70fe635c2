// Tests for the two-stage per-epoch Top-K operator: exactness against a brute
// force count, determinism on ties, multi-worker equivalence.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/siphash.h"
#include "src/dataflow/collectors.h"
#include "src/dataflow/topk.h"
#include "src/timely/timely.h"

namespace ts {
namespace {

using Result = TopKResult<std::string>;

// Runs TopK over scripted (epoch -> items) input on `workers` workers; items
// are spread round-robin across workers' inputs.
std::map<Epoch, std::vector<std::pair<std::string, uint64_t>>> RunTopK(
    size_t workers, size_t k,
    const std::map<Epoch, std::vector<std::string>>& by_epoch) {
  auto collector = std::make_shared<ConcurrentCollector<Result>>();
  Computation::Options options;
  options.workers = workers;
  Computation::Run(options, [&](Scope& scope) {
    auto [input, stream] = scope.NewInput<std::string>("items");
    auto topk = TopKPerEpoch<std::string, std::string>(
        scope, stream, k, [](const std::string& s) { return s; },
        [](const std::string& s) { return SipHash24(s); }, "topk");
    CollectInto<Result>(scope, topk, collector, "collect");

    auto session = std::make_shared<InputSession<std::string>>(input);
    const size_t w = scope.worker_index();
    auto it = std::make_shared<std::map<Epoch, std::vector<std::string>>::const_iterator>(
        by_epoch.begin());
    scope.AddDriver([session, it, &by_epoch, w, workers]() mutable -> DriverStatus {
      if (*it == by_epoch.end()) {
        session->Close();
        return DriverStatus::kFinished;
      }
      const Epoch target = (*it)->first;
      if (target > session->current_epoch()) {
        session->AdvanceTo(target);
      }
      const auto& items = (*it)->second;
      for (size_t i = w; i < items.size(); i += workers) {
        session->Give(items[i]);
      }
      ++*it;
      return DriverStatus::kWorked;
    });
  });

  std::map<Epoch, std::vector<std::pair<std::string, uint64_t>>> results;
  for (auto& r : collector->items()) {
    EXPECT_TRUE(results.emplace(r.epoch, r.entries).second)
        << "duplicate result for epoch " << r.epoch;
  }
  return results;
}

// Brute-force reference.
std::vector<std::pair<std::string, uint64_t>> BruteForce(
    const std::vector<std::string>& items, size_t k) {
  std::map<std::string, uint64_t> counts;
  for (const auto& s : items) {
    ++counts[s];
  }
  std::vector<std::pair<std::string, uint64_t>> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  if (sorted.size() > k) {
    sorted.resize(k);
  }
  return sorted;
}

TEST(TopK, MatchesBruteForceSingleWorker) {
  std::map<Epoch, std::vector<std::string>> input;
  input[0] = {"a", "b", "a", "c", "a", "b"};
  input[1] = {"x", "x", "y"};
  auto results = RunTopK(1, 2, input);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], BruteForce(input[0], 2));
  EXPECT_EQ(results[1], BruteForce(input[1], 2));
  EXPECT_EQ(results[0][0], (std::pair<std::string, uint64_t>{"a", 3}));
}

TEST(TopK, TieBreaksByKeyDeterministically) {
  std::map<Epoch, std::vector<std::string>> input;
  input[0] = {"z", "m", "a"};  // All count 1: lexicographically smallest win.
  auto results = RunTopK(1, 2, input);
  ASSERT_EQ(results[0].size(), 2u);
  EXPECT_EQ(results[0][0].first, "a");
  EXPECT_EQ(results[0][1].first, "m");
}

TEST(TopK, KLargerThanKeyCountReturnsAll) {
  std::map<Epoch, std::vector<std::string>> input;
  input[0] = {"a", "b"};
  auto results = RunTopK(1, 10, input);
  EXPECT_EQ(results[0].size(), 2u);
}

class TopKWorkers : public ::testing::TestWithParam<size_t> {};

TEST_P(TopKWorkers, ExactAcrossWorkerCounts) {
  const size_t workers = GetParam();
  // Zipf-ish synthetic stream over 50 keys, 3 epochs.
  Rng rng(99);
  ZipfSampler zipf(50, 1.1);
  std::map<Epoch, std::vector<std::string>> input;
  for (Epoch e = 0; e < 3; ++e) {
    for (int i = 0; i < 2000; ++i) {
      input[e].push_back("key" + std::to_string(zipf.Sample(rng)));
    }
  }
  auto results = RunTopK(workers, 10, input);
  ASSERT_EQ(results.size(), 3u);
  for (Epoch e = 0; e < 3; ++e) {
    EXPECT_EQ(results[e], BruteForce(input[e], 10)) << "epoch " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, TopKWorkers, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace ts
