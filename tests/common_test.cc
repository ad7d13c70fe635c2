// Unit tests for ts_common: SipHash-2-4 against the reference vectors, RNG
// determinism and distribution sanity, statistics utilities, and FixedQueue.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fixed_queue.h"
#include "src/common/mem_probe.h"
#include "src/common/retire_queue.h"
#include "src/common/rng.h"
#include "src/common/siphash.h"
#include "src/common/stats.h"
#include "src/common/time_util.h"

namespace ts {
namespace {

// Official SipHash-2-4 test vectors (Aumasson & Bernstein reference
// implementation): key = 000102...0f, input i = bytes 00 01 ... (i-1).
TEST(SipHash, ReferenceVectors) {
  const SipHashKey key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  const uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
  };
  uint8_t input[9];
  for (size_t len = 0; len < 9; ++len) {
    if (len > 0) {
      input[len - 1] = static_cast<uint8_t>(len - 1);
    }
    EXPECT_EQ(SipHash24(input, len, key), expected[len]) << "len=" << len;
  }
}

TEST(SipHash, StringAndIntOverloads) {
  EXPECT_EQ(SipHash24(std::string_view("hello")), SipHash24("hello", 5, SipHashKey{}));
  EXPECT_NE(SipHash24(std::string_view("hello")), SipHash24(std::string_view("hellp")));
  EXPECT_NE(SipHash24(uint64_t{1}), SipHash24(uint64_t{2}));
}

TEST(SipHash, DistributesSessionIdsAcrossWorkers) {
  // Hash-based partitioning should be balanced across a worker pool.
  constexpr int kWorkers = 8;
  constexpr int kIds = 20000;
  std::vector<int> counts(kWorkers);
  Rng rng(1);
  for (int i = 0; i < kIds; ++i) {
    std::string id = "SESSION" + std::to_string(rng.Next());
    ++counts[SipHash24(id) % kWorkers];
  }
  for (int c : counts) {
    EXPECT_GT(c, kIds / kWorkers * 0.9);
    EXPECT_LT(c, kIds / kWorkers * 1.1);
  }
}

TEST(Rng, DeterministicAndForkIndependent) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng c(123);
  Rng fork = c.Fork();
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    any_diff |= (c.Next() != fork.Next());
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowIsUnbiasedAndInRange) {
  Rng rng(7);
  std::vector<int> counts(10);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = rng.NextBelow(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

TEST(Rng, NextInRangeCoversBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, LogNormalMedianMatches) {
  Rng rng(13);
  SampleSet samples;
  for (int i = 0; i < 100000; ++i) {
    samples.Add(rng.NextLogNormal(std::log(2.0), 0.7));
  }
  EXPECT_NEAR(samples.Median(), 2.0, 0.1);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextBoundedPareto(1.0, 100.0, 1.2);
    ASSERT_GE(v, 1.0);
    ASSERT_LE(v, 100.0);
  }
}

TEST(Zipf, SkewConcentratesMass) {
  ZipfSampler zipf(100, 1.2);
  Rng rng(19);
  std::vector<int> counts(100);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  // Rank 0 should dominate rank 50 heavily.
  EXPECT_GT(counts[0], counts[50] * 10);
  // All samples valid.
  int total = 0;
  for (int c : counts) {
    total += c;
  }
  EXPECT_EQ(total, 50000);
}

TEST(OnlineStats, MomentsAndExtrema) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // Sample stddev.
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

// Relative closeness for the moments a merge reproduces only up to rounding.
void ExpectRelNear(double got, double want) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::fabs(want)));
}

TEST(OnlineStats, MergeMatchesOneStream) {
  Rng rng(41);
  std::vector<double> samples;
  for (int i = 0; i < 10'000; ++i) {
    samples.push_back(1e3 + rng.NextDouble() * 250.0 * (i % 7 + 1));
  }
  OnlineStats whole;
  for (double x : samples) {
    whole.Add(x);
  }
  // Uneven parts, one of them empty, merged in a different order than fed.
  const std::vector<size_t> cuts = {0, 3, 3, 4'000, 9'999, samples.size()};
  std::vector<OnlineStats> parts(cuts.size() - 1);
  for (size_t p = 0; p + 1 < cuts.size(); ++p) {
    for (size_t i = cuts[p]; i < cuts[p + 1]; ++i) {
      parts[p].Add(samples[i]);
    }
  }
  OnlineStats merged;
  for (size_t p = parts.size(); p-- > 0;) {
    merged.Merge(parts[p]);
  }
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  ExpectRelNear(merged.mean(), whole.mean());
  ExpectRelNear(merged.variance(), whole.variance());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a;
  for (double v : {3.0, -1.0, 8.5}) {
    a.Add(v);
  }
  OnlineStats empty;
  OnlineStats left = empty;
  left.Merge(a);
  a.Merge(empty);
  for (const OnlineStats* s : {&left, &a}) {
    EXPECT_EQ(s->count(), 3u);
    EXPECT_EQ(s->min(), -1.0);
    EXPECT_EQ(s->max(), 8.5);
    ExpectRelNear(s->mean(), 3.5);
    ExpectRelNear(s->variance(), 22.75);
  }
}

// Counts live instances, so a test can see where each one is destroyed.
struct Tracked {
  static std::atomic<int> live;
  int value = 0;
  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(Tracked&& other) noexcept : value(other.value) { ++live; }
  Tracked& operator=(Tracked&&) = default;
  ~Tracked() { --live; }
};
std::atomic<int> Tracked::live{0};

TEST(RetireQueue, OwnerDrainDestroysWhatOthersPushed) {
  RetireQueue<Tracked> queue;
  EXPECT_EQ(queue.Drain(), 0u);
  std::vector<std::thread> pushers;
  for (int t = 0; t < 4; ++t) {
    pushers.emplace_back([&queue, t] {
      for (int i = 0; i < 1000; ++i) {
        Tracked v(t * 1000 + i);
        EXPECT_TRUE(queue.Push(std::move(v)));
      }
    });
  }
  // The owner drains while the pushers run; nothing is lost or doubled.
  size_t drained = 0;
  while (drained < 4000) {
    drained += queue.Drain();
  }
  for (auto& t : pushers) {
    t.join();
  }
  EXPECT_EQ(drained, 4000u);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(RetireQueue, CloseDestroysTheRestAndRefusesLaterPushes) {
  RetireQueue<Tracked> queue;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(queue.Push(Tracked(i)));
  }
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_EQ(Tracked::live.load(), 3);
  queue.Close();
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
  // Refused: the caller keeps its value, untouched.
  Tracked late(7);
  EXPECT_FALSE(queue.Push(std::move(late)));
  EXPECT_EQ(late.value, 7);
  EXPECT_EQ(Tracked::live.load(), 1);
  EXPECT_EQ(queue.Drain(), 0u);
}

TEST(SampleSet, ExactQuantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.25), 25.75, 1e-9);
  EXPECT_NEAR(s.Quantile(0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(SampleSet, QuantileIsMonotoneInQ) {
  Rng rng(23);
  SampleSet s;
  for (int i = 0; i < 1000; ++i) {
    s.Add(rng.NextDouble() * 100);
  }
  double prev = s.Quantile(0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = s.Quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(BoxSummary, MatchesManualComputation) {
  SampleSet s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 100.0}) {
    s.Add(v);
  }
  BoxSummary box = Summarize(s);
  EXPECT_EQ(box.count, 10u);
  EXPECT_NEAR(box.median, 5.5, 1e-9);
  EXPECT_EQ(box.outliers, 1u);  // 100 is beyond q3 + 1.5*IQR.
  EXPECT_LE(box.whisker_hi, 9.0);
  EXPECT_GE(box.whisker_lo, 1.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0, 10, 5);
  h.Add(-1);   // Clamps to bucket 0.
  h.Add(0.5);
  h.Add(3.0);
  h.Add(9.9);
  h.Add(50);   // Clamps to last bucket.
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 2.0);
}

TEST(LogHistogram, LogDiscretization) {
  EXPECT_EQ(LogDiscretize(0.1), 0);
  EXPECT_EQ(LogDiscretize(1.0), 0);
  EXPECT_EQ(LogDiscretize(2.0), 1);
  EXPECT_EQ(LogDiscretize(3.9), 1);
  EXPECT_EQ(LogDiscretize(1024.0), 10);
  LogHistogram h;
  h.Add(1);
  h.Add(2);
  h.Add(3);
  h.Add(1000, 4);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.buckets().at(0), 1u);
  EXPECT_EQ(h.buckets().at(1), 2u);
  EXPECT_EQ(h.buckets().at(9), 4u);
}

TEST(EmpiricalCdf, MonotoneWithCorrectEndpoints) {
  SampleSet s;
  for (int i = 1; i <= 1000; ++i) {
    s.Add(i);
  }
  auto cdf = EmpiricalCdf(s, 50);
  ASSERT_EQ(cdf.size(), 50u);
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().first, 1000.0);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  // Median point ~500.
  EXPECT_NEAR(cdf[24].first, 500.0, 15.0);
}

TEST(EmpiricalCdf, FewerSamplesThanPoints) {
  SampleSet s;
  s.Add(3);
  s.Add(1);
  auto cdf = EmpiricalCdf(s, 100);
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_DOUBLE_EQ(cdf[0].second, 0.5);
  EXPECT_DOUBLE_EQ(cdf[1].first, 3.0);
}

TEST(Formatting, AdaptiveUnits) {
  EXPECT_EQ(FormatNanos(500), "500 ns");
  EXPECT_EQ(FormatNanos(2'500), "2.5 us");
  EXPECT_EQ(FormatNanos(21'000'000), "21.0 ms");
  EXPECT_EQ(FormatNanos(1.5e9), "1.50 s");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(203 * 1024.0 * 1024.0), "203.0 MiB");
}

TEST(EpochMapper, RoundsDownAndClampsNegative) {
  EpochMapper mapper;
  EXPECT_EQ(mapper.ToEpoch(0), 0u);
  EXPECT_EQ(mapper.ToEpoch(kNanosPerSecond - 1), 0u);
  EXPECT_EQ(mapper.ToEpoch(kNanosPerSecond), 1u);
  EXPECT_EQ(mapper.ToEpoch(-5), 0u);
  EXPECT_EQ(mapper.EpochStart(3), 3 * kNanosPerSecond);
  EpochMapper fine(100 * kNanosPerMilli);
  EXPECT_EQ(fine.ToEpoch(kNanosPerSecond), 10u);
}

TEST(MemProbe, ReportsPlausibleRss) {
  const uint64_t rss = CurrentRssBytes();
  const uint64_t peak = PeakRssBytes();
  EXPECT_GT(rss, 1u << 20);  // A test process uses more than 1 MiB.
  EXPECT_GE(peak, rss / 2);  // Peak cannot be far below current.
}

TEST(FixedQueue, FifoAndCapacity) {
  FixedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // Full: backpressure.
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(FixedQueue, CloseDrainsThenEnds) {
  FixedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // Rejected after close.
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(FixedQueue, PushWithTimeoutExpiresWhenFullAndKeepsItem) {
  FixedQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(1));
  int item = 2;
  // Full queue: the bounded wait expires without consuming the item.
  EXPECT_FALSE(q.PushWithTimeout(item, std::chrono::milliseconds(5)));
  EXPECT_EQ(item, 2);
  EXPECT_EQ(q.Pop().value(), 1);
  // With room it succeeds immediately.
  EXPECT_TRUE(q.PushWithTimeout(item, std::chrono::milliseconds(5)));
  EXPECT_EQ(q.Pop().value(), 2);
  q.Close();
  int after_close = 3;
  EXPECT_FALSE(q.PushWithTimeout(after_close, std::chrono::milliseconds(1)));
}

TEST(FixedQueue, PopFrontIfHonorsPredicate) {
  FixedQueue<int> q(4);
  int out = 0;
  EXPECT_FALSE(q.PopFrontIf([](const int&) { return true; }, &out));  // Empty.
  ASSERT_TRUE(q.TryPush(7));
  ASSERT_TRUE(q.TryPush(8));
  // Predicate sees only the head; a false verdict leaves the queue intact.
  EXPECT_FALSE(q.PopFrontIf([](const int& v) { return v == 8; }, &out));
  EXPECT_TRUE(q.PopFrontIf([](const int& v) { return v == 7; }, &out));
  EXPECT_EQ(out, 7);
  EXPECT_EQ(q.Pop().value(), 8);
}

TEST(FixedQueue, BlockingHandoffAcrossThreads) {
  FixedQueue<int> q(1);
  std::vector<int> received;
  std::thread consumer([&] {
    while (auto v = q.Pop()) {
      received.push_back(*v);
    }
  });
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.Push(i));  // Blocks when the consumer lags; never drops.
  }
  q.Close();
  consumer.join();
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(received[i], i);
  }
}

}  // namespace
}  // namespace ts
