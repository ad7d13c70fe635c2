#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/status.h"

namespace ts {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  const double n_a = static_cast<double>(count_);
  const double n_b = static_cast<double>(other.count_);
  const double n = n_a + n_b;
  const double delta = other.mean_ - mean_;
  mean_ += delta * n_b / n;
  m2_ += other.m2_ + delta * delta * n_a * n_b / n;
  count_ += other.count_;
}

double OnlineStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::EnsureSorted() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::Quantile(double q) {
  TS_CHECK(!samples_.empty());
  TS_CHECK(q >= 0.0 && q <= 1.0);
  EnsureSorted();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const size_t idx = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= samples_.size()) {
    return samples_.back();
  }
  return samples_[idx] * (1.0 - frac) + samples_[idx + 1] * frac;
}

double SampleSet::Mean() const {
  if (samples_.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : samples_) {
    sum += v;
  }
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::Min() {
  EnsureSorted();
  return samples_.front();
}

double SampleSet::Max() {
  EnsureSorted();
  return samples_.back();
}

BoxSummary Summarize(SampleSet& samples) {
  BoxSummary s;
  if (samples.empty()) {
    return s;
  }
  s.count = samples.count();
  s.q1 = samples.Quantile(0.25);
  s.median = samples.Quantile(0.5);
  s.q3 = samples.Quantile(0.75);
  s.mean = samples.Mean();
  const double iqr = s.q3 - s.q1;
  const double lo_fence = s.q1 - 1.5 * iqr;
  const double hi_fence = s.q3 + 1.5 * iqr;
  // Whiskers extend to the most extreme data point within the fences.
  s.whisker_lo = s.q1;
  s.whisker_hi = s.q3;
  size_t outliers = 0;
  for (double v : samples.samples()) {
    if (v < lo_fence || v > hi_fence) {
      ++outliers;
    } else {
      s.whisker_lo = std::min(s.whisker_lo, v);
      s.whisker_hi = std::max(s.whisker_hi, v);
    }
  }
  s.outliers = outliers;
  return s;
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)) {
  TS_CHECK(hi > lo && buckets > 0);
  counts_.assign(buckets, 0);
}

void Histogram::Add(double x, uint64_t weight) {
  size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  counts_[idx] += weight;
  total_ += weight;
}

double Histogram::bucket_lo(size_t i) const { return lo_ + width_ * static_cast<double>(i); }

int LogDiscretize(double x) {
  if (x < 1.0) {
    return 0;
  }
  return static_cast<int>(std::floor(std::log2(x)));
}

void LogHistogram::Add(double x, uint64_t weight) {
  buckets_[LogDiscretize(x)] += weight;
  total_ += weight;
}

std::vector<std::pair<double, double>> EmpiricalCdf(SampleSet& samples,
                                                    size_t max_points) {
  std::vector<std::pair<double, double>> out;
  if (samples.empty()) {
    return out;
  }
  const size_t n = samples.count();
  const size_t points = std::min(max_points, n);
  out.reserve(points);
  for (size_t i = 1; i <= points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points);
    out.emplace_back(samples.Quantile(q), q);
  }
  return out;
}

std::string FormatNanos(double nanos) {
  char buf[64];
  if (nanos < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", nanos);
  } else if (nanos < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f us", nanos / 1e3);
  } else if (nanos < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", nanos / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", nanos / 1e9);
  }
  return buf;
}

std::string FormatBytes(double bytes) {
  char buf[64];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  } else if (bytes < 1024.0 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", bytes / 1024);
  } else if (bytes < 1024.0 * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", bytes / (1024.0 * 1024));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", bytes / (1024.0 * 1024 * 1024));
  }
  return buf;
}

}  // namespace ts
