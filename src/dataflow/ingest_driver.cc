#include "src/dataflow/ingest_driver.h"

#include <algorithm>
#include <chrono>

#include "src/common/status.h"
#include "src/log/wire_format.h"

namespace ts {
namespace {

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

IngestDriver::IngestDriver(ArrivalSource* source, size_t worker,
                           InputSession<LogRecord> input, const Options& options)
    : source_(source),
      worker_(worker),
      input_(input),
      options_(options),
      epoch_mapper_(options.epoch_width_ns),
      reorder_(ReorderBuffer::Config{options.slack_ns,
                                     options.reorder_slot_width_ns}) {}

void IngestDriver::AttributeCpu(Epoch epoch, int64_t cpu_ns) {
  epochs_[epoch].input_cpu_ns += cpu_ns;
  total_input_cpu_ns_ += cpu_ns;
}

void IngestDriver::Feed(std::vector<LogRecord>& ready) {
  for (auto& r : ready) {
    Epoch epoch = epoch_mapper_.ToEpoch(r.time);
    // The re-order buffer emits in nondecreasing event time, so epochs are
    // monotone; the guard is purely defensive.
    if (epoch < input_.current_epoch()) {
      epoch = input_.current_epoch();
    }
    if (epoch > input_.current_epoch()) {
      input_.AdvanceTo(epoch);
    }
    EpochIngest& ingest = epochs_[epoch];
    if (ingest.first_give_steady_ns < 0) {
      ingest.first_give_steady_ns = SteadyNowNanos();
    }
    ++ingest.records;
    input_.Give(std::move(r));
  }
  ready.clear();
}

DriverStatus IngestDriver::Step() {
  if (finished_) {
    return DriverStatus::kFinished;
  }
  if (gated_) {
    // Bound the in-flight window by comparing the input's event-time cursor
    // against the lowest incomplete epoch downstream. Arrival epochs lead
    // event epochs by the replay delay + slack, so gating on the arrival
    // cursor directly would deadlock; gating on the input cursor cannot (with
    // no new input, the frontier always catches up to the cursor).
    const Frontier f = gate_probe_.frontier();
    if (!f.done() &&
        input_.current_epoch() > f.min() + options_.gate_lookahead_epochs) {
      return DriverStatus::kIdle;  // Downstream is still chewing; don't race.
    }
  }

  const int64_t cpu_start = ThreadCpuNanos();
  const Epoch arrival_epoch = next_arrival_epoch_;
  const ArrivalSource::Fetch fetch =
      source_->ArrivalsFor(worker_, arrival_epoch, &arrivals_);

  if (fetch == ArrivalSource::Fetch::kEndOfStream) {
    reorder_.FlushAll(&ready_);
    Feed(ready_);
    input_.Close();
    finished_ = true;
    AttributeCpu(arrival_epoch, ThreadCpuNanos() - cpu_start);
    return DriverStatus::kFinished;
  }

  for (auto& a : arrivals_) {
    if (!a.line.empty()) {
      auto parsed = ParseWireFormat(a.line);
      if (!parsed) {
        ++parse_failures_;
        continue;
      }
      reorder_.Push(std::move(*parsed), &ready_);
    } else {
      reorder_.Push(std::move(a.record), &ready_);
    }
  }
  arrivals_.clear();
  // All arrivals below this wall-clock boundary are in; release every record
  // outside the lateness window.
  const EventTime arrival_boundary =
      static_cast<EventTime>(arrival_epoch + 1) * kNanosPerSecond;
  if (arrival_boundary > options_.slack_ns) {
    reorder_.FlushUpTo(arrival_boundary - options_.slack_ns, &ready_);
  }
  peak_reorder_bytes_ = std::max(peak_reorder_bytes_, reorder_.buffered_bytes());
  Feed(ready_);
  ++next_arrival_epoch_;
  AttributeCpu(arrival_epoch, ThreadCpuNanos() - cpu_start);
  return DriverStatus::kWorked;
}

}  // namespace ts
