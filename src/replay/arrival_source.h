// The ingestion boundary: the interface behind which a timely worker's
// IngestDriver (src/dataflow) consumes its arrival stream. The in-process
// replayer — the substitution for the paper's log servers (§5) — implements
// it; the live path reads its socket through src/net instead.
#ifndef SRC_REPLAY_ARRIVAL_SOURCE_H_
#define SRC_REPLAY_ARRIVAL_SOURCE_H_

#include <string>
#include <vector>

#include "src/common/time_util.h"
#include "src/log/record.h"

namespace ts {

// One record as it reaches a TS worker: either a parsed record or a wire-format
// text line (the paper replays "in their original text format", so TS pays the
// parse cost on ingest — part of Figure 7b's input fraction).
struct Arrival {
  EventTime arrival_ns = 0;  // When the record reaches TS.
  LogRecord record;          // Populated when !as_text.
  std::string line;          // Populated when as_text.
};

class ArrivalSource {
 public:
  enum class Fetch {
    kOk,           // `out` holds this worker's arrivals for the epoch.
    kEndOfStream,  // No arrivals at or beyond this epoch will ever exist.
  };

  virtual ~ArrivalSource() = default;

  // Fetches (and removes) the arrivals for `worker` in arrival epoch `epoch`,
  // sorted by arrival time. Each (worker, epoch) may be fetched once.
  virtual Fetch ArrivalsFor(size_t worker, Epoch epoch,
                            std::vector<Arrival>* out) = 0;
};

}  // namespace ts

#endif  // SRC_REPLAY_ARRIVAL_SOURCE_H_
