// Typed dataflow operators.
//
// Each worker instantiates its own copy of every operator (Figure 3 of the
// paper); instances communicate only through exchange hubs (data) and broadcast
// progress batches (control). Operator state is purely worker-local (§4.2).
//
// The scheduling contract, mirroring Timely Dataflow:
//  * Work(): consume buffered input batches, invoke user logic, stage outputs,
//    and account the consumption (-1 per batch) and production (+1 per sent
//    batch) in the step's progress batch.
//  * DeliverNotifications(): fire notifications whose epoch the input frontier
//    has passed; handlers may produce output at the notified epoch because the
//    notificator retained a capability (+1 at request, -1 at delivery).
#ifndef SRC_TIMELY_OPERATOR_H_
#define SRC_TIMELY_OPERATOR_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/time_util.h"
#include "src/timely/frontier.h"
#include "src/timely/progress.h"
#include "src/timely/runtime.h"

namespace ts {

// Placeholder output type for sinks.
struct Unit {};

// Where an operator's output goes: one target per outgoing dataflow edge.
template <typename T>
struct OutputTarget {
  ExchangeHub<T>* hub = nullptr;
  int edge_id = -1;
  int msg_loc = -1;
  // Non-null for Exchange PACT edges: routes a record to hash(record) % workers.
  // Null for pipeline edges: records stay on the producing worker.
  std::function<uint64_t(const T&)> router;
};

// Per-operator staging of produced records, flushed once per scheduling quantum.
template <typename T>
class OutputSession {
 public:
  OutputSession(size_t self, size_t workers, RuntimeCounters* counters)
      : self_(self), workers_(workers), counters_(counters) {}

  void AddTarget(OutputTarget<T> target) { targets_.push_back(std::move(target)); }

  // Emits one record at epoch `epoch`.
  void Give(Epoch epoch, T value) {
    if (targets_.empty()) {
      return;
    }
    StagedEpoch& staged = StagingFor(epoch);
    for (size_t t = 0; t + 1 < targets_.size(); ++t) {
      Route(staged, t, value);  // Copy for all but the final target.
    }
    RouteMove(staged, targets_.size() - 1, std::move(value));
  }

  // Emits a whole vector at one epoch; avoids per-record routing when the sole
  // target is a pipeline edge.
  void GiveVec(Epoch epoch, std::vector<T> values) {
    if (targets_.empty()) {
      return;
    }
    if (targets_.size() == 1 && !targets_[0].router) {
      StagedEpoch& staged = StagingFor(epoch);
      auto& dst = staged.per_target[0].per_dst[0];
      if (dst.empty()) {
        dst = std::move(values);
      } else {
        dst.insert(dst.end(), std::make_move_iterator(values.begin()),
                   std::make_move_iterator(values.end()));
      }
      return;
    }
    for (auto& v : values) {
      Give(epoch, std::move(v));
    }
  }

  // Moves all staged batches into the hubs, accounting one +1 per sent batch.
  void Flush(ProgressBatch& deltas) {
    for (auto& [epoch, staged] : staging_) {
      for (size_t t = 0; t < targets_.size(); ++t) {
        auto& per_dst = staged.per_target[t].per_dst;
        for (size_t d = 0; d < per_dst.size(); ++d) {
          if (per_dst[d].empty()) {
            continue;
          }
          const size_t dst_worker = targets_[t].router ? d : self_;
          const size_t n = per_dst[d].size();
          targets_[t].hub->Send(dst_worker, epoch, std::move(per_dst[d]));
          deltas.Add(targets_[t].msg_loc, epoch, +1);
          counters_->data_batches.fetch_add(1, std::memory_order_relaxed);
          if (targets_[t].router) {
            counters_->records_exchanged.fetch_add(n, std::memory_order_relaxed);
          }
        }
      }
    }
    staging_.clear();
  }

 private:
  struct StagedTarget {
    std::vector<std::vector<T>> per_dst;  // Size workers (routed) or 1 (pipeline).
  };
  struct StagedEpoch {
    std::vector<StagedTarget> per_target;
  };

  StagedEpoch& StagingFor(Epoch epoch) {
    auto it = staging_.find(epoch);
    if (it == staging_.end()) {
      it = staging_.emplace(epoch, StagedEpoch{}).first;
      it->second.per_target.resize(targets_.size());
      for (size_t t = 0; t < targets_.size(); ++t) {
        it->second.per_target[t].per_dst.resize(targets_[t].router ? workers_ : 1);
      }
    }
    return it->second;
  }

  void Route(StagedEpoch& staged, size_t t, const T& value) {
    const size_t d = targets_[t].router ? targets_[t].router(value) % workers_ : 0;
    staged.per_target[t].per_dst[d].push_back(value);
  }
  void RouteMove(StagedEpoch& staged, size_t t, T&& value) {
    const size_t d = targets_[t].router ? targets_[t].router(value) % workers_ : 0;
    staged.per_target[t].per_dst[d].push_back(std::move(value));
  }

  const size_t self_;
  const size_t workers_;
  RuntimeCounters* counters_;
  std::vector<OutputTarget<T>> targets_;
  std::map<Epoch, StagedEpoch> staging_;
};

// Notification bookkeeping for one operator instance (§4.2 "control plane").
class NotificatorHandle {
 public:
  // Requests a notification once the input frontier passes `epoch`. Requests
  // are deduplicated; each distinct epoch retains one capability until fired.
  void NotifyAt(Epoch epoch) {
    if (pending_.insert(epoch).second) {
      newly_requested_.push_back(epoch);
    }
  }

  bool has_pending() const { return !pending_.empty(); }

  // Accounts capabilities for requests made since the last flush.
  void FlushRequests(int cap_loc, ProgressBatch& deltas) {
    for (Epoch e : newly_requested_) {
      deltas.Add(cap_loc, e, +1);
    }
    newly_requested_.clear();
  }

  // Fires every pending notification whose epoch the frontier has passed, in
  // epoch order. `fire(e)` runs user logic; the capability drop is accounted
  // afterwards so outputs produced by the handler remain justified.
  template <typename FireFn>
  bool Deliver(const Frontier& frontier, int cap_loc, ProgressBatch& deltas,
               FireFn&& fire) {
    bool fired = false;
    while (!pending_.empty() && frontier.Beyond(*pending_.begin())) {
      const Epoch e = *pending_.begin();
      pending_.erase(pending_.begin());
      fire(e);
      deltas.Add(cap_loc, e, -1);
      fired = true;
    }
    return fired;
  }

 private:
  std::set<Epoch> pending_;
  std::vector<Epoch> newly_requested_;
};

// Producers expose target registration so consumers can attach edges at graph
// construction time.
template <typename T>
class Producer {
 public:
  virtual ~Producer() = default;
  virtual void AddTarget(OutputTarget<T> target) = 0;
};

class OperatorBase {
 public:
  explicit OperatorBase(int node_id) : node_id_(node_id) {}
  virtual ~OperatorBase() = default;

  int node_id() const { return node_id_; }

  // Moves batches from exchange hubs into the operator's typed buffer.
  virtual bool Pump() { return false; }

  // Consumes buffered batches; stages and flushes outputs; accounts progress.
  virtual bool Work(ProgressBatch& deltas) {
    (void)deltas;
    return false;
  }

  // Fires ripe notifications given the operator's input frontier.
  virtual bool DeliverNotifications(const Frontier& frontier, ProgressBatch& deltas) {
    (void)frontier;
    (void)deltas;
    return false;
  }

 private:
  int node_id_;
};

// The generic single-input operator: sessionization, analytics, probes, and all
// functional wrappers (map / filter / flat_map / concat) are instances of this.
template <typename In, typename Out>
class UnaryOperator : public OperatorBase, public Producer<Out> {
 public:
  using DataFn =
      std::function<void(Epoch, std::vector<In>&, OutputSession<Out>&, NotificatorHandle&)>;
  using NotifyFn = std::function<void(Epoch, OutputSession<Out>&, NotificatorHandle&)>;

  UnaryOperator(int node_id, int cap_loc, size_t self, size_t workers,
                RuntimeCounters* counters, DataFn on_data, NotifyFn on_notify)
      : OperatorBase(node_id),
        cap_loc_(cap_loc),
        output_(self, workers, counters),
        self_(self),
        on_data_(std::move(on_data)),
        on_notify_(std::move(on_notify)) {}

  void AddTarget(OutputTarget<Out> target) override {
    output_.AddTarget(std::move(target));
  }

  // Registers an incoming edge (multiple allowed: concat merges streams).
  void AddInput(ExchangeHub<In>* hub, int msg_loc) {
    inputs_.push_back(InEdge{hub, msg_loc});
  }

  bool Pump() override {
    bool any = false;
    for (auto& in : inputs_) {
      drained_.clear();
      if (in.hub->Drain(self_, drained_)) {
        any = true;
        for (auto& b : drained_) {
          pending_.push_back(PendingBatch{in.msg_loc, std::move(b)});
        }
      }
    }
    return any;
  }

  bool Work(ProgressBatch& deltas) override {
    if (pending_.empty()) {
      return false;
    }
    // Deliver in epoch order: the paper's operators receive flat vectors grouped
    // by time (§4.2).
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const PendingBatch& a, const PendingBatch& b) {
                       return a.batch.epoch < b.batch.epoch;
                     });
    for (auto& p : pending_) {
      on_data_(p.batch.epoch, p.batch.data, output_, notificator_);
      deltas.Add(p.msg_loc, p.batch.epoch, -1);
    }
    pending_.clear();
    notificator_.FlushRequests(cap_loc_, deltas);
    output_.Flush(deltas);
    return true;
  }

  bool DeliverNotifications(const Frontier& frontier, ProgressBatch& deltas) override {
    if (!notificator_.has_pending()) {
      return false;
    }
    const bool fired = notificator_.Deliver(
        frontier, cap_loc_, deltas,
        [&](Epoch e) { on_notify_(e, output_, notificator_); });
    if (fired) {
      notificator_.FlushRequests(cap_loc_, deltas);
      output_.Flush(deltas);
    }
    return fired;
  }

 private:
  struct InEdge {
    ExchangeHub<In>* hub;
    int msg_loc;
  };
  struct PendingBatch {
    int msg_loc;
    Batch<In> batch;
  };

  const int cap_loc_;
  OutputSession<Out> output_;
  const size_t self_;
  DataFn on_data_;
  NotifyFn on_notify_;
  NotificatorHandle notificator_;
  std::vector<InEdge> inputs_;
  std::vector<Batch<In>> drained_;
  std::vector<PendingBatch> pending_;
};

// Source operator driven by an InputSession (§4.1 "give" / "advance_to").
template <typename T>
class InputOperator : public OperatorBase, public Producer<T> {
 public:
  InputOperator(int node_id, int cap_loc, size_t self, size_t workers,
                RuntimeCounters* counters)
      : OperatorBase(node_id), cap_loc_(cap_loc), output_(self, workers, counters) {}

  void AddTarget(OutputTarget<T> target) override {
    output_.AddTarget(std::move(target));
  }

  // --- Driver-facing interface (used via InputSession) -----------------------

  Epoch current_epoch() const { return epoch_; }
  bool closed() const { return closed_; }

  void Give(T value) {
    TS_CHECK_MSG(!closed_, "Give() after Close()");
    output_.Give(epoch_, std::move(value));
  }

  void GiveBatch(std::vector<T> values) {
    TS_CHECK_MSG(!closed_, "GiveBatch() after Close()");
    output_.GiveVec(epoch_, std::move(values));
  }

  // Issues the punctuation for every epoch < `epoch`: downstream notifications
  // for those epochs become deliverable once in-flight data drains.
  void AdvanceTo(Epoch epoch) {
    TS_CHECK_MSG(!closed_, "AdvanceTo() after Close()");
    TS_CHECK_MSG(epoch > epoch_, "epochs must advance strictly monotonically");
    staged_deltas_.Add(cap_loc_, epoch_, -1);
    staged_deltas_.Add(cap_loc_, epoch, +1);
    epoch_ = epoch;
  }

  void Close() {
    if (!closed_) {
      staged_deltas_.Add(cap_loc_, epoch_, -1);
      closed_ = true;
    }
  }

  // --- Scheduler-facing -------------------------------------------------------

  bool Work(ProgressBatch& deltas) override {
    // Flush data before capability moves: the +1s for sent batches must be
    // published in the same atomic batch as (or before) the capability drop,
    // otherwise a peer could observe the frontier advance past in-flight data.
    output_.Flush(deltas);
    const bool moved = !staged_deltas_.empty();
    deltas.Append(staged_deltas_);
    staged_deltas_.clear();
    return moved;
  }

 private:
  const int cap_loc_;
  OutputSession<T> output_;
  Epoch epoch_ = 0;
  bool closed_ = false;
  ProgressBatch staged_deltas_;
};

// Thin handle the driver uses to feed an input operator. Valid only on the
// worker thread that owns the operator.
template <typename T>
class InputSession {
 public:
  InputSession() = default;
  explicit InputSession(InputOperator<T>* op) : op_(op) {}

  void Give(T value) { op_->Give(std::move(value)); }
  void GiveBatch(std::vector<T> values) { op_->GiveBatch(std::move(values)); }
  void AdvanceTo(Epoch epoch) { op_->AdvanceTo(epoch); }
  void Close() { op_->Close(); }
  Epoch current_epoch() const { return op_->current_epoch(); }
  bool closed() const { return op_->closed(); }

 private:
  InputOperator<T>* op_ = nullptr;
};

}  // namespace ts

#endif  // SRC_TIMELY_OPERATOR_H_
