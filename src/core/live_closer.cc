#include "src/core/live_closer.h"

#include <algorithm>
#include <utility>

namespace ts {

void LiveCloser::Feed(LogRecord record, EventTime at,
                      std::vector<Session>* closed) {
  ObserveWatermark(at);
  auto [it, inserted] = open_.try_emplace(record.session_id);
  Open& open = it->second;
  if (!inserted && !open.records.empty() &&
      open.last_time + inactivity_ns_ <= watermark_) {
    // The open fragment expired before this record arrived: emit it and start
    // the next fragment. Doing this here, at record granularity, is what keeps
    // fragment boundaries independent of CloseExpired cadence and shard count.
    // The candidate stays: its key is <= the expired last_time, so it is
    // already due, and the next CloseExpired re-arms it for the new fragment.
    Emit(it->first, &open, closed);
    open.records.clear();
    open.last_time = 0;
  }
  open.first_time = open.records.empty() ? at : std::min(open.first_time, at);
  open.last_time = std::max(open.last_time, at);
  // A record joining an open fragment only raises last_time, which keeps the
  // candidate's key a lower bound: no heap work on that path.
  if (inserted) {
    Arm(&*it);
  }
  open_bytes_ += record.MemoryFootprint();
  ++open_records_;
  open.records.push_back(std::move(record));
}

void LiveCloser::CloseExpired(std::vector<Session>* closed) {
  while (!expiry_.empty() &&
         expiry_.front().last_time + inactivity_ns_ <= watermark_) {
    ++expiry_visited_;
    OpenMap::value_type* fragment = expiry_.front().fragment;
    Open& open = fragment->second;
    if (open.last_time + inactivity_ns_ <= watermark_) {
      Emit(fragment->first, &open, closed);
      Disarm(0);
      open_.erase(open_.find(fragment->first));
    } else {
      // Renewed activity since the candidate was armed.
      Rearm(0, open.last_time);
    }
  }
}

void LiveCloser::FlushAll(std::vector<Session>* closed) {
  for (auto& [id, open] : open_) {
    Emit(id, &open, closed);
  }
  open_.clear();
  expiry_.clear();
}

void LiveCloser::ExportState(LiveCloserState* state) const {
  state->open.reserve(state->open.size() + open_.size());
  for (const auto& [id, open] : open_) {
    LiveCloserState::OpenFragment fragment;
    fragment.id = id;
    fragment.last_time = open.last_time;
    fragment.records = open.records;
    state->open.push_back(std::move(fragment));
  }
  ExportCounters(state);
}

void LiveCloser::VisitOpenFragments(const OpenFragmentVisitor& fn) const {
  for (const auto& [id, open] : open_) {
    fn(id, open.last_time, open.records);
  }
}

void LiveCloser::ExportCounters(LiveCloserState* state) const {
  state->next_fragment.reserve(state->next_fragment.size() +
                               next_fragment_.size());
  for (const auto& [id, next] : next_fragment_) {
    state->next_fragment.emplace_back(id, next);
  }
}

void LiveCloser::ImportFragment(LiveCloserState::OpenFragment fragment) {
  auto [it, inserted] = open_.try_emplace(fragment.id);
  Open& open = it->second;
  for (const auto& r : open.records) {
    const size_t bytes = r.MemoryFootprint();
    open_bytes_ = bytes >= open_bytes_ ? 0 : open_bytes_ - bytes;
  }
  open_records_ -= std::min<uint64_t>(open_records_, open.records.size());
  open.last_time = fragment.last_time;
  open.records = std::move(fragment.records);
  open.first_time = open.last_time;
  for (const auto& r : open.records) {
    open.first_time = std::min(open.first_time, r.time);
    open_bytes_ += r.MemoryFootprint();
  }
  open_records_ += open.records.size();
  if (inserted) {
    Arm(&*it);
  } else {
    Rearm(open.candidate, open.last_time);
  }
}

size_t LiveCloser::ShedOldestUntil(size_t max_open_bytes) {
  if (open_bytes_ <= max_open_bytes) {
    return 0;
  }
  // Deterministic shed order: oldest last_time first, id as tie-break.
  std::vector<std::pair<EventTime, const std::string*>> order;
  order.reserve(open_.size());
  for (const auto& [id, open] : open_) {
    order.emplace_back(open.last_time, &id);
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : *a.second < *b.second;
            });
  size_t shed = 0;
  for (const auto& [last_time, id] : order) {
    if (open_bytes_ <= max_open_bytes) {
      break;
    }
    auto it = open_.find(*id);
    size_t bytes = 0;
    for (const auto& r : it->second.records) {
      bytes += r.MemoryFootprint();
    }
    open_bytes_ = bytes >= open_bytes_ ? 0 : open_bytes_ - bytes;
    open_records_ -= std::min<uint64_t>(open_records_,
                                        it->second.records.size());
    shed_records_ += it->second.records.size();
    ++shed_fragments_;
    // Consume the fragment index: a re-appearing id keeps numbering as if
    // this fragment had been emitted, so downstream per-id sequences stay
    // gap-free in shape even when the content was dropped.
    next_fragment_[*id]++;
    Disarm(it->second.candidate);
    open_.erase(it);
    ++shed;
  }
  return shed;
}

void LiveCloser::SetNextFragment(const std::string& id, uint32_t next) {
  next_fragment_[id] = next;
}

void LiveCloser::Emit(const std::string& id, Open* open,
                      std::vector<Session>* closed) {
  // Stable sort by event time: ties keep arrival order, matching the offline
  // sessionizer's record ordering on the same input. Most fragments arrive
  // already time-ordered, and stable_sort allocates a temporary buffer per
  // call — skip it when a linear check shows there is nothing to do.
  std::vector<LogRecord> records = std::move(open->records);
  const auto time_lt = [](const LogRecord& a, const LogRecord& b) {
    return a.time < b.time;
  };
  if (!std::is_sorted(records.begin(), records.end(), time_lt)) {
    std::stable_sort(records.begin(), records.end(), time_lt);
  }
  Session s;
  s.id = id;
  s.fragment_index = next_fragment_[id]++;
  s.records = std::move(records);
  s.first_epoch = static_cast<Epoch>(open->first_time / kNanosPerSecond);
  s.last_epoch = static_cast<Epoch>(open->last_time / kNanosPerSecond);
  s.closed_at = s.last_epoch;
  size_t bytes = 0;
  for (const auto& r : s.records) {
    bytes += r.MemoryFootprint();
  }
  open_bytes_ = bytes >= open_bytes_ ? 0 : open_bytes_ - bytes;
  open_records_ -= std::min<uint64_t>(open_records_, s.records.size());
  records_emitted_ += s.records.size();
  ++sessions_emitted_;
  closed->push_back(std::move(s));
}

void LiveCloser::Arm(OpenMap::value_type* fragment) {
  expiry_.push_back({fragment->second.last_time, fragment});
  fragment->second.candidate = expiry_.size() - 1;
  Sift(expiry_.size() - 1);
}

void LiveCloser::Rearm(size_t pos, EventTime last_time) {
  expiry_[pos].last_time = last_time;
  Sift(pos);
}

void LiveCloser::Disarm(size_t pos) {
  const Candidate last = expiry_.back();
  expiry_.pop_back();
  if (pos < expiry_.size()) {
    Place(pos, last);
    Sift(pos);
  }
}

void LiveCloser::Place(size_t pos, const Candidate& candidate) {
  expiry_[pos] = candidate;
  candidate.fragment->second.candidate = pos;
}

// Sifts the candidate at `pos` up or down to where the heap order holds.
void LiveCloser::Sift(size_t pos) {
  const Candidate moving = expiry_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (expiry_[parent].last_time <= moving.last_time) {
      break;
    }
    Place(pos, expiry_[parent]);
    pos = parent;
  }
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= expiry_.size()) {
      break;
    }
    if (child + 1 < expiry_.size() &&
        expiry_[child + 1].last_time < expiry_[child].last_time) {
      ++child;
    }
    if (expiry_[child].last_time >= moving.last_time) {
      break;
    }
    Place(pos, expiry_[child]);
    pos = child;
  }
  Place(pos, moving);
}

}  // namespace ts
