#include "src/store/tiered_reads.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <span>
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

void TrackColdTwins(SessionStore& hot, const ColdTier* cold) {
  if (cold == nullptr) {
    hot.SetColdProbe(nullptr);
    return;
  }
  hot.SetColdProbe([cold](std::string_view id, uint32_t fragment) {
    return cold->Contains(id, fragment);
  });
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
  // Hot counts, the cold tier's per-segment summaries (no frame reads) and
  // the twins, read under the store lock; merged and ranked after it.
  std::vector<std::pair<uint32_t, size_t>> hot_counts;
  std::vector<std::pair<uint32_t, uint64_t>> cold_counts;
  std::vector<uint32_t> twin_services;
  hot.ReadServiceCensus([&](std::span<const std::pair<uint32_t, size_t>> counts,
                            std::span<const SessionStore::Twin> twins) {
    hot_counts.assign(counts.begin(), counts.end());
    std::vector<SessionKeyView> keys;
    keys.reserve(twins.size());
    for (const auto& twin : twins) {
      keys.push_back(twin.key);
    }
    std::vector<bool> held;
    cold_counts = cold->ServiceCounts(keys, &held);
    // A flagged twin whose cold copy was shed since is hot-only again.
    for (size_t i = 0; i < twins.size(); ++i) {
      if (held[i]) {
        twin_services.insert(twin_services.end(), twins[i].services.begin(),
                             twins[i].services.end());
      }
    }
  });
  // Both tiers counted each twin; the unbounded reference holds it once.
  std::map<uint32_t, uint64_t> merged(cold_counts.begin(), cold_counts.end());
  for (const auto& [service, count] : hot_counts) {
    merged[service] += count;
  }
  for (uint32_t service : twin_services) {
    const auto it = merged.find(service);
    if (it != merged.end() && --it->second == 0) {
      merged.erase(it);
    }
  }
  top.assign(merged.begin(), merged.end());
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
