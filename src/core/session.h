// Reconstructed user sessions: the output of sessionization.
#ifndef SRC_CORE_SESSION_H_
#define SRC_CORE_SESSION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
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

// What both store tiers keep beside a session, measured in one pass over its
// records.
struct SessionExtent {
  size_t bytes = 0;  // Session::MemoryFootprint().
  EventTime min_time = 0;
  EventTime max_time = 0;
  std::vector<uint32_t> services;  // Session::Services(): sorted, unique.
};

inline SessionExtent MeasureSession(const Session& session) {
  SessionExtent extent;
  extent.bytes = sizeof(Session) + session.id.capacity();
  if (!session.records.empty()) {
    extent.min_time = extent.max_time = session.records.front().time;
  }
  extent.services.reserve(session.records.size());
  for (const auto& r : session.records) {
    extent.bytes += r.MemoryFootprint();
    extent.min_time = std::min(extent.min_time, r.time);
    extent.max_time = std::max(extent.max_time, r.time);
    extent.services.push_back(r.service);
  }
  std::sort(extent.services.begin(), extent.services.end());
  extent.services.erase(
      std::unique(extent.services.begin(), extent.services.end()),
      extent.services.end());
  return extent;
}

// (session id, fragment index): the key both store tiers index sessions by.
using SessionKeyView = std::pair<std::string_view, uint32_t>;

// The by-id index of both store tiers: session id -> the id's fragments in
// ascending order, each with a V. A hash on the id, probed with a
// string_view, so a lookup copies no id and walks no tree; an id's fragments
// sit in one small vector.
template <typename V>
class SessionIdIndex {
 public:
  using Fragment = std::pair<uint32_t, V>;

  const V* Find(std::string_view id, uint32_t fragment) const {
    const auto it = ids_.find(id);
    if (it == ids_.end()) {
      return nullptr;
    }
    const auto slot = LowerBound(it->second, fragment);
    return slot != it->second.end() && slot->first == fragment ? &slot->second
                                                               : nullptr;
  }

  // Indexes (id, fragment) -> value unless the key is indexed already.
  // Returns the indexed value and whether this call put it there.
  std::pair<V*, bool> Emplace(std::string_view id, uint32_t fragment, V value) {
    auto it = ids_.find(id);
    if (it == ids_.end()) {
      it = ids_.emplace(std::string(id), std::vector<Fragment>()).first;
    }
    auto& fragments = it->second;
    auto slot = LowerBound(fragments, fragment);
    if (slot != fragments.end() && slot->first == fragment) {
      return {&slot->second, false};
    }
    slot = fragments.emplace(slot, fragment, std::move(value));
    ++size_;
    return {&slot->second, true};
  }

  // Unindexes (id, fragment); false when it was not indexed.
  bool Erase(std::string_view id, uint32_t fragment) {
    const auto it = ids_.find(id);
    if (it == ids_.end()) {
      return false;
    }
    auto& fragments = it->second;
    const auto slot = LowerBound(fragments, fragment);
    if (slot == fragments.end() || slot->first != fragment) {
      return false;
    }
    fragments.erase(slot);
    if (fragments.empty()) {
      ids_.erase(it);
    }
    --size_;
    return true;
  }

  // The fragments of `id`, ascending; empty when none is indexed.
  std::span<const Fragment> Fragments(std::string_view id) const {
    const auto it = ids_.find(id);
    return it == ids_.end() ? std::span<const Fragment>() : it->second;
  }

  // Calls fn(id) once per indexed id, in no particular order.
  template <typename Fn>
  void ForEachId(Fn&& fn) const {
    for (const auto& [id, fragments] : ids_) {
      fn(id);
    }
  }

  size_t size() const { return size_; }  // Indexed (id, fragment) keys.

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view id) const noexcept {
      return std::hash<std::string_view>()(id);
    }
  };
  template <typename Fragments>
  static auto LowerBound(Fragments& fragments, uint32_t fragment) {
    return std::lower_bound(
        fragments.begin(), fragments.end(), fragment,
        [](const Fragment& f, uint32_t key) { return f.first < key; });
  }

  std::unordered_map<std::string, std::vector<Fragment>, Hash,
                     std::equal_to<>>
      ids_;
  size_t size_ = 0;
};

}  // namespace ts

#endif  // SRC_CORE_SESSION_H_
