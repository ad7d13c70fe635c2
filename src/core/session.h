// Reconstructed user sessions: the output of sessionization.
#ifndef SRC_CORE_SESSION_H_
#define SRC_CORE_SESSION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/time_util.h"
#include "src/log/record.h"

namespace ts {

// All log records observed for one session ID between two quiet periods. With
// online sessionization a logical user session may be emitted as multiple
// Session fragments if it goes idle longer than the inactivity delay and later
// resumes (§2.2); `fragment_index` numbers the fragments emitted for the same
// ID.
struct Session {
  std::string id;
  std::vector<LogRecord> records;  // Event-time order; ties keep arrival order.
  Epoch first_epoch = 0;           // Epoch of the earliest contributing record.
  Epoch last_epoch = 0;            // Epoch of the latest contributing record.
  // Epoch at which the session was emitted: the notification that flushed it,
  // last_epoch + inactivity_epochs, for the timely Sessionize operator;
  // last_epoch on the live and offline paths, which emit on a watermark.
  Epoch closed_at = 0;
  uint32_t fragment_index = 0;

  EventTime MinTime() const {
    EventTime t = records.empty() ? 0 : records.front().time;
    for (const auto& r : records) {
      t = t < r.time ? t : r.time;
    }
    return t;
  }
  EventTime MaxTime() const {
    EventTime t = records.empty() ? 0 : records.front().time;
    for (const auto& r : records) {
      t = t > r.time ? t : r.time;
    }
    return t;
  }
  // The services the session touched, sorted and unique: the by-service
  // index key set of both store tiers and TOPK's per-session count.
  std::vector<uint32_t> Services() const {
    std::vector<uint32_t> services;
    services.reserve(records.size());
    for (const auto& r : records) {
      services.push_back(r.service);
    }
    std::sort(services.begin(), services.end());
    services.erase(std::unique(services.begin(), services.end()),
                   services.end());
    return services;
  }
  EventTime Duration() const { return records.empty() ? 0 : MaxTime() - MinTime(); }

  size_t MemoryFootprint() const {
    size_t bytes = sizeof(Session) + id.capacity();
    for (const auto& r : records) {
      bytes += r.MemoryFootprint();
    }
    return bytes;
  }
};

// (session id, fragment index): the key both store tiers index sessions by.
using SessionKey = std::pair<std::string, uint32_t>;
using SessionKeyView = std::pair<std::string_view, uint32_t>;

// Orders SessionKeys as std::pair's operator< does, and compares them with
// SessionKeyViews too, so a map keyed by SessionKey is probed without
// copying the id.
struct SessionKeyLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    const int order = std::string_view(a.first).compare(b.first);
    return order < 0 || (order == 0 && a.second < b.second);
  }
};

}  // namespace ts

#endif  // SRC_CORE_SESSION_H_
