// Thread-safe result collectors used at the edge of a dataflow: workers run on
// their own threads, so anything a Sink writes into shared memory for the
// application to read afterwards goes through these.
#ifndef SRC_DATAFLOW_COLLECTORS_H_
#define SRC_DATAFLOW_COLLECTORS_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/timely/scope.h"

namespace ts {

// Append-only vector with a mutex; safe from any worker.
template <typename T>
class ConcurrentCollector {
 public:
  void Add(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(std::move(value));
  }
  void AddAll(std::vector<T>& values) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& v : values) {
      items_.push_back(std::move(v));
    }
  }
  // Safe only after the computation joined.
  std::vector<T>& items() { return items_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<T> items_;
};

// Shared numeric sample sink (durations, gaps, latencies).
class ConcurrentSamples {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.Add(v);
  }
  // Safe only after the computation joined.
  SampleSet& samples() { return samples_; }

 private:
  std::mutex mu_;
  SampleSet samples_;
};

// Shared log-discretized histogram sink.
class ConcurrentLogHistogram {
 public:
  void Add(double v, uint64_t weight = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Add(v, weight);
  }
  // Safe only after the computation joined.
  LogHistogram& histogram() { return hist_; }

 private:
  std::mutex mu_;
  LogHistogram hist_;
};

// Attaches a sink that collects every record of `stream` into a collector.
template <typename T>
std::shared_ptr<ConcurrentCollector<T>> CollectInto(
    Scope& scope, const Stream<T>& stream,
    std::shared_ptr<ConcurrentCollector<T>> collector, const std::string& name) {
  scope.template Sink<T>(stream, name, [collector](Epoch, std::vector<T>& data) {
    collector->AddAll(data);
  });
  return collector;
}

}  // namespace ts

#endif  // SRC_DATAFLOW_COLLECTORS_H_
