// Per-epoch Top-K ranking as a two-stage data-parallel operator (§4.3: the
// re-usable library "extends the Timely framework with Top-K ranking,
// histograms and CDFs").
//
// Stage 1 exchanges items by key so each key is counted exactly once, then
// emits each worker's local top-k candidates on epoch completion. Stage 2
// gathers candidates on worker 0 and emits the global ranking. Because keys are
// disjoint across workers after the exchange, the global top-k is always
// contained in the union of local top-k lists — the result is exact.
#ifndef SRC_DATAFLOW_TOPK_H_
#define SRC_DATAFLOW_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/timely/scope.h"

namespace ts {

template <typename Key>
struct TopKResult {
  Epoch epoch = 0;
  // (key, count), descending by count; ties broken by key for determinism.
  std::vector<std::pair<Key, uint64_t>> entries;
};

template <typename Key>
struct KeyCount {
  Key key;
  uint64_t count = 0;
};

// Counts occurrences of key_fn(item) per epoch and emits the global top `k`
// each epoch. `key_hash` routes the count exchange.
template <typename In, typename Key>
Stream<TopKResult<Key>> TopKPerEpoch(Scope& scope, const Stream<In>& items,
                                     size_t k, std::function<Key(const In&)> key_fn,
                                     std::function<uint64_t(const Key&)> key_hash,
                                     const std::string& name) {
  using Candidate = KeyCount<Key>;

  // Stage 1: exact per-key counts (keys partitioned across workers).
  struct CountState {
    std::map<Epoch, std::unordered_map<Key, uint64_t>> per_epoch;
  };
  auto count_state = std::make_shared<CountState>();
  auto key_fn_shared = std::make_shared<std::function<Key(const In&)>>(std::move(key_fn));
  auto hash_shared =
      std::make_shared<std::function<uint64_t(const Key&)>>(std::move(key_hash));

  auto candidates = scope.template Unary<In, Candidate>(
      items,
      Partition<In>::ByKey([key_fn_shared, hash_shared](const In& item) {
        return (*hash_shared)((*key_fn_shared)(item));
      }),
      name + "/count",
      [count_state, key_fn_shared](Epoch e, std::vector<In>& data,
                                   OutputSession<Candidate>&,
                                   NotificatorHandle& notificator) {
        auto& counts = count_state->per_epoch[e];
        for (const auto& item : data) {
          ++counts[(*key_fn_shared)(item)];
        }
        notificator.NotifyAt(e);
      },
      [count_state, k](Epoch e, OutputSession<Candidate>& out, NotificatorHandle&) {
        auto it = count_state->per_epoch.find(e);
        if (it == count_state->per_epoch.end()) {
          return;
        }
        std::vector<Candidate> local;
        local.reserve(it->second.size());
        for (auto& [key, count] : it->second) {
          local.push_back(Candidate{key, count});
        }
        const size_t keep = std::min(k, local.size());
        std::partial_sort(local.begin(), local.begin() + keep, local.end(),
                          [](const Candidate& a, const Candidate& b) {
                            return a.count > b.count ||
                                   (a.count == b.count && a.key < b.key);
                          });
        local.resize(keep);
        for (auto& c : local) {
          out.Give(e, std::move(c));
        }
        count_state->per_epoch.erase(it);
      });

  // Stage 2: gather candidates on worker 0 and rank globally.
  struct MergeState {
    std::map<Epoch, std::vector<Candidate>> per_epoch;
  };
  auto merge_state = std::make_shared<MergeState>();

  return scope.template Unary<Candidate, TopKResult<Key>>(
      candidates,
      Partition<Candidate>::ByKey([](const Candidate&) { return uint64_t{0}; }),
      name + "/merge",
      [merge_state](Epoch e, std::vector<Candidate>& data,
                    OutputSession<TopKResult<Key>>&, NotificatorHandle& notificator) {
        auto& staged = merge_state->per_epoch[e];
        for (auto& c : data) {
          staged.push_back(std::move(c));
        }
        notificator.NotifyAt(e);
      },
      [merge_state, k](Epoch e, OutputSession<TopKResult<Key>>& out,
                       NotificatorHandle&) {
        auto it = merge_state->per_epoch.find(e);
        if (it == merge_state->per_epoch.end()) {
          return;
        }
        auto& staged = it->second;
        const size_t keep = std::min(k, staged.size());
        std::partial_sort(staged.begin(), staged.begin() + keep, staged.end(),
                          [](const Candidate& a, const Candidate& b) {
                            return a.count > b.count ||
                                   (a.count == b.count && a.key < b.key);
                          });
        TopKResult<Key> result;
        result.epoch = e;
        result.entries.reserve(keep);
        for (size_t i = 0; i < keep; ++i) {
          result.entries.emplace_back(std::move(staged[i].key), staged[i].count);
        }
        out.Give(e, std::move(result));
        merge_state->per_epoch.erase(it);
      });
}

}  // namespace ts

#endif  // SRC_DATAFLOW_TOPK_H_
