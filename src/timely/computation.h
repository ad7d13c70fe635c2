// Entry point: configures a multi-worker computation, builds one dataflow copy
// per worker, runs the workers to completion, and reports runtime statistics.
#ifndef SRC_TIMELY_COMPUTATION_H_
#define SRC_TIMELY_COMPUTATION_H_

#include <functional>
#include <vector>

#include "src/timely/scope.h"
#include "src/timely/worker.h"

namespace ts {

struct RunResult {
  std::vector<WorkerStats> workers;
  uint64_t progress_batches = 0;
  uint64_t progress_deltas = 0;
  uint64_t data_batches = 0;
  uint64_t records_exchanged = 0;

  int64_t TotalWorkerCpuNanos() const;
};

class Computation {
 public:
  struct Options {
    size_t workers = 1;
  };

  // `build` runs once per worker, on that worker's thread, before execution
  // starts. It must construct an identical graph on every worker (same nodes
  // and edges in the same order) and must arrange for every input created to
  // be closed by a driver. Blocks until the computation completes.
  static RunResult Run(const Options& options,
                       const std::function<void(Scope&)>& build);
};

}  // namespace ts

#endif  // SRC_TIMELY_COMPUTATION_H_
