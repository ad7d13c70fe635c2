// Umbrella header for the ts_timely dataflow engine.
#ifndef SRC_TIMELY_TIMELY_H_
#define SRC_TIMELY_TIMELY_H_

#include "src/timely/computation.h"
#include "src/timely/frontier.h"
#include "src/timely/operator.h"
#include "src/timely/progress.h"
#include "src/timely/runtime.h"
#include "src/timely/scope.h"
#include "src/timely/topology.h"
#include "src/timely/worker.h"

#endif  // SRC_TIMELY_TIMELY_H_
