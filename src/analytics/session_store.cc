#include "src/analytics/session_store.h"

#include <algorithm>
#include <thread>

#include "src/common/status.h"

namespace ts {

SessionStore::Entry SessionStore::MakeEntry(Session session) {
  // Braced initializers run in order: measured before the move.
  return Entry{MeasureSession(session), std::move(session)};
}

void SessionStore::InsertLocked(Entry entry) {
  entry.seq = next_seq_++;
  entries_.push_back(std::move(entry));
  auto it = std::prev(entries_.end());
  const SessionKeyView key(it->session.id, it->session.fragment_index);
  const auto [newest, indexed] = by_id_.Emplace(key.first, key.second, &*it);
  if (!indexed) {
    it->older_copy = *newest;
    *newest = &*it;
  }
  if (cold_probe_ && cold_probe_(key.first, key.second)) {
    twins_.emplace(it->seq, &*it);
  }
  for (uint32_t s : it->services) {
    by_service_[s].push_back(it);
  }
  if (by_time_.empty() || it->seq % kTimeBlock == 0) {
    time_blocks_.push_back({it->min_time, it->max_time});
  } else {
    TimeBlock& block = time_blocks_.back();
    block.min_start = std::min(block.min_start, it->min_time);
    block.max_end = std::max(block.max_end, it->max_time);
  }
  by_time_.push_back({it->min_time, it->max_time, it->seq, &*it});

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

SessionStore::Entry* SessionStore::Unindex(EntryList::iterator it) {
  // A later insert of the same (id, fragment) took over the key; the victim
  // only owns it if the mapping still points here.
  Entry* newer = nullptr;
  const std::string& id = it->session.id;
  const uint32_t fragment = it->session.fragment_index;
  Entry* const* newest = by_id_.Find(id, fragment);
  if (newest != nullptr && *newest == &*it) {
    by_id_.Erase(id, fragment);
  } else if (newest != nullptr) {
    newer = *newest;
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
  // Eviction is oldest-insert-first, so the victim is the time column's
  // front slot too.
  TS_CHECK(by_time_.front().entry == &*it);
  by_time_.pop_front();
  if (by_time_.empty() ||
      by_time_.front().seq / kTimeBlock != it->seq / kTimeBlock) {
    time_blocks_.pop_front();  // The victim was its block's last live slot.
  }
  return newer;
}

void SessionStore::EvictIfNeeded(EntryList* victims) {
  while (stats_.bytes > options_.max_bytes && entries_.size() > 1) {
    auto oldest = entries_.begin();
    stats_.bytes -= oldest->bytes;
    --stats_.sessions;
    ++stats_.evicted;
    Entry* const newer = Unindex(oldest);
    if (!twins_.empty() && twins_.begin()->first == oldest->seq) {
      // The next tier already holds the key and keeps its copy: no longer a
      // twin. Eviction is oldest-first, so a flagged victim heads twins_.
      twins_.erase(twins_.begin());
    }
    if (eviction_sink_) {
      eviction_sink_(std::move(oldest->session));
    }
    if (newer != nullptr && cold_probe_ &&
        cold_probe_(newer->session.id, newer->session.fragment_index)) {
      // An older copy went down while newer ones stay hot: each is a twin
      // now. The chain of copies ends at the victim, the oldest entry.
      for (Entry* copy = newer; copy != &*oldest; copy = copy->older_copy) {
        twins_.emplace(copy->seq, copy);
      }
    }
    victims->splice(victims->end(), entries_, oldest);
  }
}

std::optional<Session> SessionStore::GetById(const std::string& id,
                                             uint32_t fragment) const {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* const* entry = by_id_.Find(id, fragment);
  if (entry == nullptr) {
    return std::nullopt;
  }
  return (*entry)->session;
}

std::vector<Session> SessionStore::GetAllFragments(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Session> out;
  for (const auto& [fragment, entry] : by_id_.Fragments(id)) {
    out.push_back(entry->session);
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
  // The `limit` smallest (min_time, seq) among the slots intersecting
  // [lo, hi), kept in a max-heap: start order, equal starts in insertion
  // order.
  const auto earlier = [](const TimeSlot* a, const TimeSlot* b) {
    return a->min_time < b->min_time ||
           (a->min_time == b->min_time && a->seq < b->seq);
  };
  std::vector<const TimeSlot*> best;
  const uint64_t front_seq = by_time_.empty() ? 0 : by_time_.front().seq;
  for (size_t b = 0; b < time_blocks_.size(); ++b) {
    if (time_blocks_[b].min_start >= hi || time_blocks_[b].max_end < lo) {
      continue;
    }
    const uint64_t block_seq = (front_seq / kTimeBlock + b) * kTimeBlock;
    const size_t begin = block_seq > front_seq ? block_seq - front_seq : 0;
    const size_t end =
        std::min<size_t>(block_seq + kTimeBlock - front_seq, by_time_.size());
    for (auto slot = by_time_.begin() + begin; slot != by_time_.begin() + end;
         ++slot) {
      if (slot->min_time >= hi || slot->max_time < lo) {
        continue;
      }
      if (best.size() < limit) {
        best.push_back(&*slot);
        std::push_heap(best.begin(), best.end(), earlier);
      } else if (earlier(&*slot, best.front())) {
        std::pop_heap(best.begin(), best.end(), earlier);
        best.back() = &*slot;
        std::push_heap(best.begin(), best.end(), earlier);
      }
    }
  }
  std::sort_heap(best.begin(), best.end(), earlier);
  out.reserve(best.size());
  for (const TimeSlot* slot : best) {
    out.push_back(slot->entry->session);
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
  return by_id_.Find(id, fragment) != nullptr;
}

void SessionStore::SetColdProbe(ColdProbe probe) {
  std::lock_guard<std::mutex> lock(mu_);
  twins_.clear();
  cold_probe_ = std::move(probe);
  if (cold_probe_) {
    for (auto& entry : entries_) {
      if (cold_probe_(entry.session.id, entry.session.fragment_index)) {
        twins_.emplace(entry.seq, &entry);
      }
    }
  }
}

void SessionStore::ReadServiceCensus(const CensusFn& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint32_t, size_t>> hot_counts;
  hot_counts.reserve(by_service_.size());
  for (const auto& [service, list] : by_service_) {
    hot_counts.emplace_back(service, list.size());
  }
  std::vector<Twin> twins;
  twins.reserve(twins_.size());
  for (const auto& [seq, entry] : twins_) {
    twins.push_back({SessionKeyView(entry->session.id,
                                    entry->session.fragment_index),
                     entry->services});
  }
  fn(hot_counts, twins);
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
  Stats stats = stats_;
  stats.cold_twins = twins_.size();
  return stats;
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
