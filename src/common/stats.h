// Statistics utilities shared by the analytics operators and the benchmark
// harnesses: running moments, exact quantiles over collected samples, box-plot
// summaries matching the paper's figures, linear and log-discretized histograms,
// and empirical CDFs.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ts {

// Running mean / variance / extrema (Welford).
class OnlineStats {
 public:
  void Add(double x);
  // Folds in every sample `other` has seen, as if each had been Add()ed here
  // (Chan et al.'s pairwise update: count, min and max exact, mean and
  // variance up to rounding).
  void Merge(const OnlineStats& other);
  size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Collects samples and answers exact quantile queries. Intended for benchmark
// harnesses where sample counts are modest (<= millions).
class SampleSet {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void Reserve(size_t n) { samples_.reserve(n); }
  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // Quantile in [0, 1] by linear interpolation between order statistics.
  double Quantile(double q);
  double Median() { return Quantile(0.5); }
  double Mean() const;
  double Min();
  double Max();
  void Clear() {
    samples_.clear();
    sorted_ = false;
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  void EnsureSorted();
  std::vector<double> samples_;
  bool sorted_ = false;
};

// Five-number box-plot summary as drawn in Figures 5-7 of the paper: quartiles,
// whiskers at 1.5 * IQR clamped to data, and the count of outliers beyond them.
struct BoxSummary {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double whisker_lo = 0;
  double whisker_hi = 0;
  double mean = 0;
  size_t outliers = 0;
  size_t count = 0;
};

BoxSummary Summarize(SampleSet& samples);

// Fixed-width linear histogram over [lo, hi); out-of-range values clamp to the
// edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);
  void Add(double x, uint64_t weight = 1);
  uint64_t bucket_count(size_t i) const { return counts_[i]; }
  size_t num_buckets() const { return counts_.size(); }
  double bucket_lo(size_t i) const;
  uint64_t total() const { return total_; }

 private:
  double lo_, hi_, width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

// Log-discretized counter: bucket(x) = floor(log2(x)) for x >= 1, used by the
// trace-tree duration histogram in §4.3 ("histogram(|x| log_discretize(x))").
class LogHistogram {
 public:
  void Add(double x, uint64_t weight = 1);
  // Map of bucket exponent -> count. Bucket b covers [2^b, 2^(b+1)).
  const std::map<int, uint64_t>& buckets() const { return buckets_; }
  uint64_t total() const { return total_; }

 private:
  std::map<int, uint64_t> buckets_;
  uint64_t total_ = 0;
};

// Returns the log2 bucket index used by LogHistogram (clamps x < 1 to bucket 0).
int LogDiscretize(double x);

// Empirical CDF points (value, cumulative fraction) suitable for printing.
std::vector<std::pair<double, double>> EmpiricalCdf(SampleSet& samples,
                                                    size_t max_points = 100);

// Formats nanoseconds with an adaptive unit, for human-readable bench output.
std::string FormatNanos(double nanos);

// Formats byte counts with an adaptive unit.
std::string FormatBytes(double bytes);

}  // namespace ts

#endif  // SRC_COMMON_STATS_H_
