// The end-of-run report `ts_sessionize` prints: session, tree and span
// counts, the service dependency graph's size, and (with --top) the most
// frequent tree structures and the hottest service pairs.
//
// Built incrementally, one closed session at a time, so a long-running live
// stream never retains its closed sessions. The live path closes sessions on
// N shard workers at once; instead of one lock around one accumulator, each
// shard folds its sessions into its own partial — written by that shard's
// thread only, so no lock — and Format() merges the partials once no Add()
// can run. The merge is exact (counts add, maps union, DependencyGraph::Merge
// combines edges), so the printed text is the same for any number of
// partials and any split of the sessions among them.
#ifndef SRC_ANALYTICS_REPORT_ACCUMULATOR_H_
#define SRC_ANALYTICS_REPORT_ACCUMULATOR_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/analytics/dependency_graph.h"
#include "src/core/session.h"

namespace ts {

class ReportAccumulator {
 public:
  // `partials` >= 1 (clamped). With `trees_out` set, Add() also writes one
  // line per trace tree there as it folds it in (--trees).
  explicit ReportAccumulator(size_t partials, std::FILE* trees_out = nullptr);

  // Folds `session` into partial `partial`. Not synchronized: each partial
  // must have one writer at a time (the live path passes the session's owner
  // shard, LivePipeline::ShardOf, so each shard worker writes only its own).
  void Add(size_t partial, const Session& session);

  // The report text: merges the partials and formats. Call once no Add() can
  // run. `record_count` and `parse_failures` come from the caller's ingest.
  std::string Format(size_t record_count, uint64_t parse_failures,
                     size_t top) const;

 private:
  // Cache-line aligned: neighbouring shards' counters must not share a line.
  struct alignas(64) Partial {
    uint64_t sessions = 0;
    uint64_t trees = 0;
    uint64_t spans = 0;
    uint64_t inferred = 0;
    std::map<std::string, uint64_t> signatures;
    DependencyGraph deps;
  };

  std::FILE* const trees_out_;
  std::vector<Partial> partials_;
};

}  // namespace ts

#endif  // SRC_ANALYTICS_REPORT_ACCUMULATOR_H_
