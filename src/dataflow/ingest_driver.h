// Per-worker ingestion driver: fetches this worker's arrival stream from the
// Replayer, re-orders it by event time through a ReorderBuffer (§4.1), batches
// records into event-time epochs, and feeds the dataflow input with
// give/advance_to. Optionally gates ingestion on a downstream frontier probe so
// at most a bounded number of epochs are in flight — the measurement mode used
// by the latency benches (one epoch of input, processed to completion, then the
// next; "real time" means each epoch finishes in under a second).
#ifndef SRC_DATAFLOW_INGEST_DRIVER_H_
#define SRC_DATAFLOW_INGEST_DRIVER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/thread_timer.h"
#include "src/common/time_util.h"
#include "src/core/reorder_buffer.h"
#include "src/replay/replayer.h"
#include "src/timely/scope.h"

namespace ts {

class IngestDriver {
 public:
  struct Options {
    // Re-order buffer slack: tolerated event-time lateness (Figure 8 knob).
    EventTime slack_ns = 2 * kNanosPerSecond;
    EventTime reorder_slot_width_ns = 10 * kNanosPerMilli;
    // When a gate probe is set, feed arrival epoch a only once every epoch
    // < a - lookahead has completed downstream.
    size_t gate_lookahead_epochs = 2;
    // Width of one logical epoch in event time (§4.1 granularity trade-off:
    // finer epochs mean lower batching and more progress traffic; coarser
    // epochs delay output materialization). The paper uses 1 second.
    EventTime epoch_width_ns = kDefaultEpochWidthNs;
  };

  // Per event-time epoch ingestion measurements.
  struct EpochIngest {
    int64_t first_give_steady_ns = -1;  // Wall clock of the first record fed.
    int64_t input_cpu_ns = 0;           // Driver CPU attributed to this epoch.
    uint64_t records = 0;
  };

  // `source` buckets arrivals into wall-clock epochs (the Replayer does), so
  // after arrival epoch a the driver flushes its re-order buffer up to
  // (a + 1) seconds - slack.
  IngestDriver(ArrivalSource* source, size_t worker,
               InputSession<LogRecord> input, const Options& options);

  // Enables gating on a downstream probe (must belong to the same worker).
  void SetGate(ProbeHandle probe) {
    gate_probe_ = probe;
    gated_ = true;
  }

  // The scope driver entry point.
  DriverStatus Step();

  bool finished() const { return finished_; }

  // Measurements; read on the worker thread or after the computation joins.
  const std::map<Epoch, EpochIngest>& epochs() const { return epochs_; }
  const ReorderBuffer::Stats& reorder_stats() const { return reorder_.stats(); }
  size_t peak_reorder_bytes() const { return peak_reorder_bytes_; }
  uint64_t parse_failures() const { return parse_failures_; }
  int64_t total_input_cpu_ns() const { return total_input_cpu_ns_; }

 private:
  void Feed(std::vector<LogRecord>& ready);
  void AttributeCpu(Epoch epoch, int64_t cpu_ns);

  ArrivalSource* source_;
  const size_t worker_;
  InputSession<LogRecord> input_;
  Options options_;
  EpochMapper epoch_mapper_;
  ReorderBuffer reorder_;
  ProbeHandle gate_probe_;
  bool gated_ = false;
  bool finished_ = false;
  Epoch next_arrival_epoch_ = 0;
  std::vector<Arrival> arrivals_;
  std::vector<LogRecord> ready_;
  std::map<Epoch, EpochIngest> epochs_;
  size_t peak_reorder_bytes_ = 0;
  uint64_t parse_failures_ = 0;
  int64_t total_input_cpu_ns_ = 0;
};

}  // namespace ts

#endif  // SRC_DATAFLOW_INGEST_DRIVER_H_
