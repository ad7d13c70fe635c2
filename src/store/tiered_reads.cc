#include "src/store/tiered_reads.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string_view>

namespace ts {
namespace {

// The one hot ∪ cold merge. `hot` and `candidates` are each in the answer's
// order; `cold_ahead(candidate, h)` says whether the cold candidate goes out
// before hot[h]. A candidate that duplicates a hot (id, fragment) is skipped
// (the hot copy wins), and the others are Read only as they are emitted.
template <typename ColdAhead>
void MergeTiers(const std::vector<Session>& hot, ColdTier* cold,
                const std::vector<ColdTier::Candidate>& candidates,
                ColdAhead cold_ahead, size_t limit,
                const SessionVisitor& emit) {
  std::set<std::pair<std::string_view, uint32_t>> hot_keys;
  if (!candidates.empty()) {
    for (const auto& s : hot) {
      hot_keys.emplace(s.id, s.fragment_index);
    }
  }
  size_t h = 0;
  size_t c = 0;
  size_t emitted = 0;
  Session cold_session;
  while (emitted < limit && (h < hot.size() || c < candidates.size())) {
    if (c < candidates.size() &&
        (h >= hot.size() || cold_ahead(candidates[c], h))) {
      const ColdTier::Candidate& candidate = candidates[c++];
      if (hot_keys.count({candidate.id, candidate.fragment}) != 0 ||
          !cold->Read(candidate, &cold_session)) {
        continue;  // Held hot too, or damaged: a cold miss.
      }
      if (!emit(cold_session)) {
        return;
      }
    } else if (!emit(hot[h++])) {
      return;
    }
    ++emitted;
  }
}

}  // namespace

std::optional<Session> TieredGet(const SessionStore& hot, ColdTier* cold,
                                 const std::string& id, uint32_t fragment) {
  std::optional<Session> session = hot.GetById(id, fragment);
  if (!session.has_value() && cold != nullptr) {
    session = cold->Get(id, fragment);
  }
  return session;
}

std::vector<Session> TieredFragments(const SessionStore& hot, ColdTier* cold,
                                     const std::string& id) {
  std::vector<Session> hot_fragments = hot.GetAllFragments(id);
  const std::vector<ColdTier::Candidate> candidates =
      cold != nullptr ? cold->CollectFragments(id)
                      : std::vector<ColdTier::Candidate>();
  if (candidates.empty()) {
    return hot_fragments;
  }
  std::vector<Session> merged;
  MergeTiers(
      hot_fragments, cold, candidates,
      [&](const ColdTier::Candidate& candidate, size_t h) {
        return candidate.fragment < hot_fragments[h].fragment_index;
      },
      std::numeric_limits<size_t>::max(), [&](const Session& s) {
        merged.push_back(s);
        return true;
      });
  return merged;
}

bool TieredContains(const SessionStore& hot, const ColdTier* cold,
                    const std::string& id, uint32_t fragment) {
  return hot.Contains(id, fragment) ||
         (cold != nullptr && cold->Contains(id, fragment));
}

std::vector<std::pair<uint32_t, uint64_t>> TieredTopServices(
    const SessionStore& hot, const ColdTier* cold, size_t k) {
  std::vector<std::pair<uint32_t, uint64_t>> top;
  if (cold == nullptr) {
    for (const auto& [service, count] : hot.TopServices(k)) {
      top.emplace_back(service, count);
    }
    return top;
  }
  // Merge the live counts with the cold tier's per-segment summaries (no
  // frame reads), then re-rank.
  std::map<uint32_t, uint64_t> counts;
  for (const auto& [service, count] :
       hot.TopServices(std::numeric_limits<size_t>::max())) {
    counts[service] += count;
  }
  for (const auto& [service, count] : cold->ServiceCounts()) {
    counts[service] += count;
  }
  if (cold->stats().sessions > 0) {
    // Post-restore a session can sit in both tiers; both sums above counted
    // it, so subtract the overlap once — the unbounded reference holds each
    // session exactly once.
    hot.ForEachSession([&](const Session& s) {
      if (!cold->Contains(s.id, s.fragment_index)) {
        return;
      }
      for (uint32_t service : s.Services()) {
        const auto it = counts.find(service);
        if (it != counts.end() && --it->second == 0) {
          counts.erase(it);
        }
      }
    });
  }
  top.assign(counts.begin(), counts.end());
  const size_t keep = std::min(k, top.size());
  std::partial_sort(top.begin(), top.begin() + static_cast<ptrdiff_t>(keep),
                    top.end(), [](const auto& a, const auto& b) {
                      return a.second > b.second ||
                             (a.second == b.second && a.first < b.first);
                    });
  top.resize(keep);
  return top;
}

void TieredByService(const SessionStore& hot, ColdTier* cold,
                     uint32_t service, size_t limit,
                     const SessionVisitor& emit) {
  const std::vector<Session> sessions = hot.QueryByService(service, limit);
  std::vector<ColdTier::Candidate> candidates;
  if (cold != nullptr && sessions.size() < limit) {
    // Hot answered fewer than `limit`, so it holds every matching hot
    // session: continue into cold, whose sessions are all older.
    candidates = cold->CollectByService(service, limit + sessions.size());
  }
  MergeTiers(
      sessions, cold, candidates,
      [](const ColdTier::Candidate&, size_t) { return false; }, limit, emit);
}

void TieredByRange(const SessionStore& hot, ColdTier* cold, EventTime lo,
                   EventTime hi, size_t limit, const SessionVisitor& emit) {
  const std::vector<Session> sessions = hot.QueryByTimeRange(lo, hi, limit);
  std::vector<ColdTier::Candidate> candidates;
  std::vector<EventTime> hot_min_times;
  if (cold != nullptr) {
    candidates = cold->CollectRange(lo, hi, limit + sessions.size());
    hot_min_times.reserve(sessions.size());
    for (const auto& s : sessions) {
      hot_min_times.push_back(s.MinTime());
    }
  }
  MergeTiers(
      sessions, cold, candidates,
      [&](const ColdTier::Candidate& candidate, size_t h) {
        return candidate.min_time <= hot_min_times[h];
      },
      limit, emit);
}

}  // namespace ts
