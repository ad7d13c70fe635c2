// Per-thread CPU-time measurement (CLOCK_THREAD_CPUTIME_ID).
//
// When worker threads outnumber free cores (the evaluation VM has 4, shared with
// the load generator), wall-clock time cannot distinguish m workers doing 1/m of
// the work each from one worker doing all of it: the threads timeshare cores. Per-worker CPU busy time is exactly the quantity that
// determines epoch latency on a real multicore, so the scaling benches report the
// critical path max_w(busy_w) alongside wall clock. See DESIGN.md §3.
#ifndef SRC_COMMON_THREAD_TIMER_H_
#define SRC_COMMON_THREAD_TIMER_H_

#include <ctime>
#include <cstdint>

namespace ts {

// Nanoseconds of CPU time consumed by the calling thread.
inline int64_t ThreadCpuNanos() {
  timespec ts_now;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts_now) != 0) {
    return 0;
  }
  return static_cast<int64_t>(ts_now.tv_sec) * 1'000'000'000 + ts_now.tv_nsec;
}

}  // namespace ts

#endif  // SRC_COMMON_THREAD_TIMER_H_
