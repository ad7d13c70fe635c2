// Per-epoch distributed histograms (§4.3: the reusable library "extends the
// Timely framework with Top-K ranking, histograms and CDFs").
//
// Stage 1 builds a log-discretized partial histogram per worker per epoch and
// emits it on epoch completion; stage 2 merges the partials on worker 0 and
// emits one EpochHistogram per epoch. CDFs follow directly from the merged
// buckets (Cdf()).
#ifndef SRC_DATAFLOW_HISTOGRAM_OP_H_
#define SRC_DATAFLOW_HISTOGRAM_OP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/timely/scope.h"

namespace ts {

struct EpochHistogram {
  Epoch epoch = 0;
  // Log2 bucket -> count; bucket b covers values in [2^b, 2^(b+1)).
  std::map<int, uint64_t> buckets;
  uint64_t total = 0;

  // Cumulative distribution points (bucket upper bound exponent, fraction).
  std::vector<std::pair<int, double>> Cdf() const {
    std::vector<std::pair<int, double>> out;
    if (total == 0) {
      return out;
    }
    uint64_t acc = 0;
    for (const auto& [bucket, count] : buckets) {
      acc += count;
      out.emplace_back(bucket, static_cast<double>(acc) / static_cast<double>(total));
    }
    return out;
  }
};

// Internal partial: one worker's per-epoch buckets.
struct HistogramPartial {
  Epoch epoch = 0;
  std::vector<std::pair<int, uint64_t>> buckets;
};

// Builds the histogram stage over value_fn(item), log-discretized. Emits one
// merged EpochHistogram per epoch (on worker 0's instance).
template <typename In>
Stream<EpochHistogram> HistogramPerEpoch(Scope& scope, const Stream<In>& items,
                                         std::function<double(const In&)> value_fn,
                                         const std::string& name) {
  // Stage 1: worker-local partial histograms (pipeline edge: no shuffle).
  struct LocalState {
    std::map<Epoch, std::map<int, uint64_t>> per_epoch;
  };
  auto local = std::make_shared<LocalState>();
  auto value_fn_shared =
      std::make_shared<std::function<double(const In&)>>(std::move(value_fn));

  auto partials = scope.template Unary<In, HistogramPartial>(
      items, Partition<In>::Pipeline(), name + "/local",
      [local, value_fn_shared](Epoch e, std::vector<In>& data,
                               OutputSession<HistogramPartial>&,
                               NotificatorHandle& notificator) {
        auto& buckets = local->per_epoch[e];
        for (const auto& item : data) {
          ++buckets[LogDiscretize((*value_fn_shared)(item))];
        }
        notificator.NotifyAt(e);
      },
      [local](Epoch e, OutputSession<HistogramPartial>& out, NotificatorHandle&) {
        auto it = local->per_epoch.find(e);
        if (it == local->per_epoch.end()) {
          return;
        }
        HistogramPartial partial;
        partial.epoch = e;
        partial.buckets.assign(it->second.begin(), it->second.end());
        out.Give(e, std::move(partial));
        local->per_epoch.erase(it);
      });

  // Stage 2: merge on worker 0.
  struct MergeState {
    std::map<Epoch, EpochHistogram> per_epoch;
  };
  auto merge = std::make_shared<MergeState>();
  return scope.template Unary<HistogramPartial, EpochHistogram>(
      partials,
      Partition<HistogramPartial>::ByKey(
          [](const HistogramPartial&) { return uint64_t{0}; }),
      name + "/merge",
      [merge](Epoch e, std::vector<HistogramPartial>& data,
              OutputSession<EpochHistogram>&, NotificatorHandle& notificator) {
        auto& merged = merge->per_epoch[e];
        merged.epoch = e;
        for (const auto& partial : data) {
          for (const auto& [bucket, count] : partial.buckets) {
            merged.buckets[bucket] += count;
            merged.total += count;
          }
        }
        notificator.NotifyAt(e);
      },
      [merge](Epoch e, OutputSession<EpochHistogram>& out, NotificatorHandle&) {
        auto it = merge->per_epoch.find(e);
        if (it == merge->per_epoch.end()) {
          return;
        }
        out.Give(e, std::move(it->second));
        merge->per_epoch.erase(it);
      });
}

}  // namespace ts

#endif  // SRC_DATAFLOW_HISTOGRAM_OP_H_
