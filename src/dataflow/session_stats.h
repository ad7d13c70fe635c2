// First-level session statistics as composable dataflow stages (§4.3, §5.2):
// trace-tree durations (log-discretized histogram), session timespans, span
// counts, and service-invocation counts.
#ifndef SRC_DATAFLOW_SESSION_STATS_H_
#define SRC_DATAFLOW_SESSION_STATS_H_

#include <memory>
#include <string>

#include "src/common/time_util.h"
#include "src/core/session.h"
#include "src/core/trace_tree.h"
#include "src/dataflow/collectors.h"
#include "src/timely/scope.h"

namespace ts {

// "trees.filter(|t| t.messages.len() >= 2).map(|t| min_max_time(t.messages))
//  .histogram(|x| log_discretize(x))" — trace-tree durations in milliseconds,
// log-discretized. Returns the shared histogram (read after the run).
inline std::shared_ptr<ConcurrentLogHistogram> TreeDurationHistogram(
    Scope& scope, const Stream<TraceTree>& trees) {
  auto hist = std::make_shared<ConcurrentLogHistogram>();
  auto multi = scope.Filter<TraceTree>(
      trees, "multi_message_trees",
      [](const TraceTree& t) { return t.total_records() >= 2; });
  scope.Sink<TraceTree>(multi, "duration_histogram",
                        [hist](Epoch, std::vector<TraceTree>& data) {
                          for (const auto& t : data) {
                            hist->Add(static_cast<double>(t.Duration()) /
                                      static_cast<double>(kNanosPerMilli));
                          }
                        });
  return hist;
}

// Session total timespans (ms) collected as raw samples.
inline std::shared_ptr<ConcurrentSamples> SessionDurations(
    Scope& scope, const Stream<Session>& sessions) {
  auto samples = std::make_shared<ConcurrentSamples>();
  scope.Sink<Session>(sessions, "session_durations",
                      [samples](Epoch, std::vector<Session>& data) {
                        for (const auto& s : data) {
                          samples->Add(static_cast<double>(s.Duration()) /
                                       static_cast<double>(kNanosPerMilli));
                        }
                      });
  return samples;
}

// Distinct services invoked per trace tree (the Figure 4 histogram).
inline std::shared_ptr<ConcurrentSamples> ServiceInvocationCounts(
    Scope& scope, const Stream<TraceTree>& trees) {
  auto samples = std::make_shared<ConcurrentSamples>();
  scope.Sink<TraceTree>(trees, "service_invocations",
                        [samples](Epoch, std::vector<TraceTree>& data) {
                          for (const auto& t : data) {
                            samples->Add(static_cast<double>(t.DistinctServices()));
                          }
                        });
  return samples;
}

}  // namespace ts

#endif  // SRC_DATAFLOW_SESSION_STATS_H_
