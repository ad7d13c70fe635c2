#include "src/analytics/session_store.h"

#include <algorithm>
#include <thread>

#include "src/common/status.h"

namespace ts {

SessionStore::Entry SessionStore::MakeEntry(Session session) {
  Entry entry;
  entry.bytes = session.MemoryFootprint();
  entry.min_time = session.MinTime();
  entry.max_time = session.MaxTime();
  entry.services.reserve(session.records.size());
  for (const auto& r : session.records) {
    entry.services.push_back(r.service);
  }
  std::sort(entry.services.begin(), entry.services.end());
  entry.services.erase(
      std::unique(entry.services.begin(), entry.services.end()),
      entry.services.end());
  entry.session = std::move(session);
  return entry;
}

void SessionStore::InsertLocked(Entry entry) {
  entry.seq = next_seq_++;
  entries_.push_back(std::move(entry));
  auto it = std::prev(entries_.end());
  by_id_[{it->session.id, it->session.fragment_index}] = it;
  for (uint32_t s : it->services) {
    by_service_[s].push_back(it);
  }
  by_time_.emplace(it->min_time, it);

  stats_.bytes += it->bytes;
  ++stats_.sessions;
  ++stats_.inserted;
}

void SessionStore::Insert(Session session) {
  Entry entry = MakeEntry(std::move(session));
  // Observers do their per-insert work (the query server filters and
  // serializes) here, before mu_, while the session is still this thread's.
  struct Handoff {
    InsertObserver* observer;
    std::unique_ptr<InsertObserver::Pending> pending;
    bool publish = false;
  };
  std::vector<Handoff> handoffs;  // Allocates only when an observer bites.
  const bool observing = observers_.load(std::memory_order_acquire) != nullptr;
  const uint32_t epoch = observing ? EnterObserverRead() : 0;
  if (observing) {
    if (const ObserverList* list = observers_.load()) {
      for (InsertObserver* observer : *list) {
        if (auto pending = observer->Prepare(entry.session, entry.services)) {
          handoffs.push_back({observer, std::move(pending)});
        }
      }
    }
  }
  EntryList victims;  // Destroyed after mu_ is released.
  {
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(std::move(entry));
    // Victims are handed to the sink under mu_, so removal from the hot
    // window and arrival in the next tier are one atomic step — a concurrent
    // query always finds the session in exactly one tier, and sink calls
    // across the N inserting shard workers are serialized in eviction order.
    EvictIfNeeded(&victims);
    for (auto& handoff : handoffs) {
      handoff.publish = handoff.observer->Commit(std::move(handoff.pending));
    }
  }
  for (const auto& handoff : handoffs) {
    if (handoff.publish) {
      handoff.observer->Published();
    }
  }
  if (observing) {
    observer_readers_[epoch & 1].fetch_sub(1);
  }
  // Outside mu_: blocking backpressure (and anything that needs to query the
  // store) lives in the barrier, not the sink.
  if (!victims.empty() && eviction_barrier_) {
    eviction_barrier_();
  }
}

void SessionStore::Unindex(EntryList::iterator it) {
  // A later insert of the same (id, fragment) took over the key; the victim
  // only owns it if the mapping still points here.
  const auto by_id = by_id_.find({it->session.id, it->session.fragment_index});
  if (by_id != by_id_.end() && by_id->second == it) {
    by_id_.erase(by_id);
  }
  // The entry's service set is recorded at insert, so each service index is
  // trimmed directly — no scan over unrelated services. Eviction order is
  // insertion order, hence the victim heads each of its services' deques.
  for (uint32_t s : it->services) {
    auto by_service = by_service_.find(s);
    if (by_service == by_service_.end()) {
      continue;
    }
    auto& list = by_service->second;
    TS_CHECK(list.front() == it);
    list.pop_front();
    if (list.empty()) {
      by_service_.erase(by_service);  // Keep dead services from accumulating.
    }
  }
  auto range = by_time_.equal_range(it->min_time);
  for (auto t = range.first; t != range.second; ++t) {
    if (t->second == it) {
      by_time_.erase(t);
      break;
    }
  }
}

void SessionStore::EvictIfNeeded(EntryList* victims) {
  while (stats_.bytes > options_.max_bytes && entries_.size() > 1) {
    auto oldest = entries_.begin();
    stats_.bytes -= oldest->bytes;
    --stats_.sessions;
    ++stats_.evicted;
    Unindex(oldest);
    if (eviction_sink_) {
      eviction_sink_(std::move(oldest->session));
    }
    victims->splice(victims->end(), entries_, oldest);
  }
}

std::optional<Session> SessionStore::GetById(const std::string& id,
                                             uint32_t fragment) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_id_.find({id, fragment});
  if (it == by_id_.end()) {
    return std::nullopt;
  }
  return it->second->session;
}

std::vector<Session> SessionStore::GetAllFragments(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Session> out;
  // by_id_ is ordered: fragments of one id are contiguous and ascending.
  for (auto it = by_id_.lower_bound({id, 0});
       it != by_id_.end() && it->first.first == id; ++it) {
    out.push_back(it->second->session);
  }
  return out;
}

std::vector<Session> SessionStore::QueryByService(uint32_t service,
                                                  size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Session> out;
  auto it = by_service_.find(service);
  if (it == by_service_.end()) {
    return out;
  }
  // Newest first.
  for (auto entry = it->second.rbegin(); entry != it->second.rend(); ++entry) {
    if (out.size() >= limit) {
      break;
    }
    out.push_back((*entry)->session);
  }
  return out;
}

std::vector<Session> SessionStore::QueryByTimeRange(EventTime lo, EventTime hi,
                                                    size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Session> out;
  if (limit == 0) {
    return out;
  }
  // by_time_ is ordered by start time, so results come out start-ordered and
  // the scan stops at the first entry starting at/after `hi` — or as soon as
  // `limit` intersecting sessions are found.
  for (auto it = by_time_.begin(); it != by_time_.end() && it->first < hi; ++it) {
    if (it->second->max_time >= lo) {
      out.push_back(it->second->session);
      if (out.size() >= limit) {
        break;
      }
    }
  }
  return out;
}

std::vector<std::pair<uint32_t, size_t>> SessionStore::TopServices(
    size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint32_t, size_t>> ranked;
  ranked.reserve(by_service_.size());
  for (const auto& [service, list] : by_service_) {
    ranked.emplace_back(service, list.size());
  }
  const size_t keep = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return a.second > b.second ||
                             (a.second == b.second && a.first < b.first);
                    });
  ranked.resize(keep);
  return ranked;
}

bool SessionStore::Contains(const std::string& id, uint32_t fragment) const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_id_.find({id, fragment}) != by_id_.end();
}

void SessionStore::ForEachSession(
    const std::function<void(const Session&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    fn(entry.session);
  }
}

SessionStore::SeqWindow SessionStore::ForEachSessionSince(
    uint64_t min_seq, const std::function<void(const Session&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  SeqWindow window;
  window.next = next_seq_;
  window.oldest = entries_.empty() ? next_seq_ : entries_.front().seq;
  auto it = entries_.end();
  while (it != entries_.begin() && std::prev(it)->seq >= min_seq) {
    --it;
  }
  for (; it != entries_.end(); ++it) {
    fn(it->session);
  }
  return window;
}

void SessionStore::ImportSnapshot(std::vector<Session> sessions,
                                  uint64_t inserted, uint64_t evicted) {
  EntryList victims;  // Destroyed after mu_ is released.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& session : sessions) {
      InsertLocked(MakeEntry(std::move(session)));
    }
    // A restore into a smaller budget re-spills (sink under mu_, like
    // Insert); the cold tier dedupes anything that was already durable, and
    // prefix order is preserved (oldest first).
    EvictIfNeeded(&victims);
    // Lifetime counters continue from the snapshot, not from the rebuild: the
    // rebuild itself is not an insert the pre-crash run didn't already count.
    stats_.inserted = inserted;
    stats_.evicted = evicted;
  }
  if (!victims.empty() && eviction_barrier_) {
    eviction_barrier_();
  }
}

SessionStore::Stats SessionStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SessionStore::SetEvictionSink(EvictionSink sink, EvictionBarrier barrier) {
  std::lock_guard<std::mutex> lock(mu_);
  eviction_sink_ = std::move(sink);
  eviction_barrier_ = std::move(barrier);
}

void SessionStore::ReplaceInsertObserver(InsertObserver* from,
                                         InsertObserver* to) {
  std::lock_guard<std::mutex> lock(observers_mu_);
  ObserverList next;
  if (observer_list_ != nullptr) {
    for (InsertObserver* observer : *observer_list_) {
      if (observer != from) {
        next.push_back(observer);
      }
    }
  }
  if (to != nullptr) {
    next.push_back(to);
  }
  std::unique_ptr<const ObserverList> old = std::move(observer_list_);
  if (!next.empty()) {
    observer_list_ = std::make_unique<const ObserverList>(std::move(next));
  }
  observers_.store(observer_list_.get());
  // Grace period: an Insert that entered under the old epoch may still hold
  // the old list. One that enters later reads observers_ after the store
  // above (every step here and in EnterObserverRead is seq_cst), so it holds
  // the new list, and the count waited on here cannot grow without bound.
  const uint32_t old_epoch = observer_epoch_.fetch_add(1);
  while (observer_readers_[old_epoch & 1].load() != 0) {
    std::this_thread::yield();
  }
}

uint32_t SessionStore::EnterObserverRead() {
  while (true) {
    const uint32_t epoch = observer_epoch_.load();
    observer_readers_[epoch & 1].fetch_add(1);
    // Counted under `epoch` only if no flip came between the two loads: the
    // writer that flips away from it then waits for this reader.
    if (observer_epoch_.load() == epoch) {
      return epoch;
    }
    observer_readers_[epoch & 1].fetch_sub(1);
  }
}

}  // namespace ts
