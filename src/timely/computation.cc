#include "src/timely/computation.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "src/common/status.h"
#include "src/timely/runtime.h"

namespace ts {

int64_t RunResult::TotalWorkerCpuNanos() const {
  int64_t total = 0;
  for (const auto& w : workers) {
    total += w.cpu_ns;
  }
  return total;
}

RunResult Computation::Run(const Options& options,
                           const std::function<void(Scope&)>& build) {
  TS_CHECK(options.workers >= 1);
  SharedRuntime runtime(options.workers);
  RunResult result;
  result.workers.resize(options.workers);

  auto worker_main = [&](size_t index) {
    WorkerGraph graph(index, &runtime);
    Scope scope(&graph);
    build(scope);
    graph.Finalize();
    graph.Run(&result.workers[index]);
  };

  if (options.workers == 1) {
    worker_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(options.workers);
    for (size_t w = 0; w < options.workers; ++w) {
      threads.emplace_back(worker_main, w);
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  result.progress_batches = runtime.counters().progress_batches.load();
  result.progress_deltas = runtime.counters().progress_deltas.load();
  result.data_batches = runtime.counters().data_batches.load();
  result.records_exchanged = runtime.counters().records_exchanged.load();
  return result;
}

}  // namespace ts
