// Differential tests of the store tiers' indexes. SessionStore keeps a hash
// by-id index and an insertion-ordered time column; ColdTier keeps the same
// hash by-id index. Here each is held, after every step of seeded schedules,
// to a reference model built on the ordered maps they replaced: std::map by
// (id, fragment) and std::multimap by start time.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_store.h"
#include "src/common/rng.h"
#include "src/common/time_util.h"
#include "src/store/cold_segment.h"
#include "src/store/cold_tier.h"
#include "tests/canonical_session.h"

namespace ts {
namespace {

using Key = std::pair<std::string, uint32_t>;

std::vector<std::string> CanonicalAll(const std::vector<Session>& sessions) {
  std::vector<std::string> out;
  for (const auto& s : sessions) {
    out.push_back(Canonical(s));
  }
  return out;
}

// Builds the sessions of a schedule. Starts fall on a coarse grid, so equal
// start times are common; every session's payloads carry a copy number, so
// a replayed duplicate is told apart from the copy it replays.
class SessionMaker {
 public:
  explicit SessionMaker(uint64_t seed) : rng_(seed) {}

  Session Make(const std::string& id, uint32_t fragment, size_t pad) {
    Session s;
    s.id = id;
    s.fragment_index = fragment;
    const EventTime start =
        static_cast<EventTime>(rng_.NextBelow(24)) * kNanosPerMilli;
    const size_t records = 1 + rng_.NextBelow(4);
    const std::string copy = "c" + std::to_string(copies_++);
    for (size_t i = 0; i < records; ++i) {
      LogRecord r;
      r.time = start + static_cast<EventTime>(rng_.NextBelow(6)) *
                           kNanosPerMilli;
      r.session_id = id;
      r.txn_id = *TxnId::Parse("1-2");
      r.service = static_cast<uint32_t>(rng_.NextBelow(8));
      r.payload = copy + "-" + std::to_string(i) + std::string(pad, 'p');
      s.records.push_back(std::move(r));
    }
    std::sort(s.records.begin(), s.records.end(),
              [](const LogRecord& a, const LogRecord& b) {
                return a.time < b.time;
              });
    return s;
  }

  // A replay of `s`: same key and records, a fresh copy number.
  Session Replay(const Session& s) {
    Session copy = s;
    const std::string tag = "r" + std::to_string(copies_++) + "/";
    for (auto& r : copy.records) {
      r.payload = tag + r.payload;
    }
    return copy;
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  uint64_t copies_ = 0;
};

// SessionStore as it was built on ordered maps: insertion-ordered entries,
// (id, fragment) -> newest seq, start time -> seq.
class ReferenceStore {
 public:
  explicit ReferenceStore(size_t max_bytes) : max_bytes_(max_bytes) {}

  // `bytes` is the footprint of the very object the store receives (its
  // string capacities, not a copy's).
  void Insert(Session s, size_t bytes) {
    const uint64_t seq = next_seq_++;
    const Key key(s.id, s.fragment_index);
    by_id_[key] = seq;
    by_time_.emplace(s.MinTime(), seq);
    bytes_ += bytes;
    entries_.emplace(seq, Item{std::move(s), bytes});
    ++inserted_;
  }

  void EvictToBudget() {
    while (bytes_ > max_bytes_ && entries_.size() > 1) {
      const auto oldest = entries_.begin();
      const Session& s = oldest->second.session;
      const auto id = by_id_.find(Key(s.id, s.fragment_index));
      if (id->second == oldest->first) {
        by_id_.erase(id);
      } else {
        ++older_copies_evicted_;  // A newer copy stays reachable.
      }
      const auto range = by_time_.equal_range(s.MinTime());
      for (auto t = range.first; t != range.second; ++t) {
        if (t->second == oldest->first) {
          by_time_.erase(t);
          break;
        }
      }
      bytes_ -= oldest->second.bytes;
      ++evicted_;
      entries_.erase(oldest);
    }
  }

  // A fresh model restored from `sessions`, as SessionStore::ImportSnapshot
  // restores a fresh store.
  static ReferenceStore Import(size_t max_bytes,
                               const std::vector<Session>& sessions,
                               const std::vector<size_t>& bytes,
                               uint64_t inserted, uint64_t evicted) {
    ReferenceStore model(max_bytes);
    for (size_t i = 0; i < sessions.size(); ++i) {
      model.Insert(sessions[i], bytes[i]);
    }
    model.EvictToBudget();
    model.inserted_ = inserted;
    model.evicted_ = evicted;
    return model;
  }

  std::optional<Session> GetById(const std::string& id,
                                 uint32_t fragment) const {
    const auto it = by_id_.find(Key(id, fragment));
    if (it == by_id_.end()) {
      return std::nullopt;
    }
    return entries_.at(it->second).session;
  }

  std::vector<Session> GetAllFragments(const std::string& id) const {
    std::vector<Session> out;
    for (auto it = by_id_.lower_bound(Key(id, 0));
         it != by_id_.end() && it->first.first == id; ++it) {
      out.push_back(entries_.at(it->second).session);
    }
    return out;
  }

  bool Contains(const std::string& id, uint32_t fragment) const {
    return by_id_.count(Key(id, fragment)) != 0;
  }

  std::vector<Session> QueryByService(uint32_t service, size_t limit) const {
    std::vector<Session> out;
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (out.size() >= limit) {
        break;
      }
      const auto services = it->second.session.Services();
      if (std::binary_search(services.begin(), services.end(), service)) {
        out.push_back(it->second.session);
      }
    }
    return out;
  }

  std::vector<Session> QueryByTimeRange(EventTime lo, EventTime hi,
                                        size_t limit) {
    std::vector<Session> out;
    if (limit == 0) {
      return out;
    }
    EventTime previous_start = 0;
    for (auto it = by_time_.begin(); it != by_time_.end() && it->first < hi;
         ++it) {
      const Session& s = entries_.at(it->second).session;
      if (s.MaxTime() >= lo) {
        if (!out.empty() && it->first == previous_start) {
          ++ranges_with_equal_starts_;
        }
        previous_start = it->first;
        out.push_back(s);
        if (out.size() >= limit) {
          break;
        }
      }
    }
    return out;
  }

  std::vector<Session> Snapshot() const {
    std::vector<Session> out;
    for (const auto& [seq, item] : entries_) {
      out.push_back(item.session);
    }
    return out;
  }

  size_t sessions() const { return entries_.size(); }
  size_t bytes() const { return bytes_; }
  uint64_t inserted() const { return inserted_; }
  uint64_t evicted() const { return evicted_; }
  uint64_t older_copies_evicted() const { return older_copies_evicted_; }
  uint64_t ranges_with_equal_starts() const {
    return ranges_with_equal_starts_;
  }

 private:
  struct Item {
    Session session;
    size_t bytes = 0;
  };
  size_t max_bytes_;
  std::map<uint64_t, Item> entries_;  // seq -> entry: insertion order.
  std::map<Key, uint64_t> by_id_;     // (id, fragment) -> newest seq.
  std::multimap<EventTime, uint64_t> by_time_;
  uint64_t next_seq_ = 0;
  size_t bytes_ = 0;
  uint64_t inserted_ = 0;
  uint64_t evicted_ = 0;
  uint64_t older_copies_evicted_ = 0;
  uint64_t ranges_with_equal_starts_ = 0;
};

void ExpectStoreMatches(const SessionStore& store, ReferenceStore* model,
                        const std::map<std::string, uint32_t>& fragments) {
  const auto stats = store.stats();
  ASSERT_EQ(stats.sessions, model->sessions());
  ASSERT_EQ(stats.bytes, model->bytes());
  ASSERT_EQ(stats.inserted, model->inserted());
  ASSERT_EQ(stats.evicted, model->evicted());
  std::vector<Session> held;
  store.ForEachSession([&](const Session& s) { held.push_back(s); });
  ASSERT_EQ(CanonicalAll(held), CanonicalAll(model->Snapshot()));
  // Every id the schedule used, one fragment past its last, and an id it
  // never used.
  std::vector<std::pair<std::string, uint32_t>> ids(fragments.begin(),
                                                    fragments.end());
  ids.emplace_back("never-inserted", 0);
  for (const auto& [id, last] : ids) {
    ASSERT_EQ(CanonicalAll(store.GetAllFragments(id)),
              CanonicalAll(model->GetAllFragments(id)))
        << id;
    for (uint32_t f = 0; f <= last + 1; ++f) {
      ASSERT_EQ(store.Contains(id, f), model->Contains(id, f)) << id << "#" << f;
      const auto got = store.GetById(id, f);
      const auto want = model->GetById(id, f);
      ASSERT_EQ(got.has_value(), want.has_value()) << id << "#" << f;
      if (got.has_value()) {
        ASSERT_EQ(Canonical(*got), Canonical(*want)) << id << "#" << f;
      }
    }
  }
  for (uint32_t service = 0; service <= 8; ++service) {
    for (size_t limit : {0, 1, 10}) {
      ASSERT_EQ(CanonicalAll(store.QueryByService(service, limit)),
                CanonicalAll(model->QueryByService(service, limit)))
          << "service " << service << " limit " << limit;
    }
  }
  const EventTime ms = kNanosPerMilli;
  const std::pair<EventTime, EventTime> windows[] = {
      {0, 1},                      // Only sessions starting at 0.
      {0, 1000 * ms},              // Everything.
      {3 * ms, 3 * ms + 1},        // A single instant.
      {5 * ms, 12 * ms},           // The middle.
      {20 * ms, 40 * ms},          // The late starts.
      {-10 * ms, 0},               // Before every session.
      {40 * ms, 1000 * ms},        // After every session.
      {10 * ms, 10 * ms},          // Empty.
  };
  for (const auto& [lo, hi] : windows) {
    for (size_t limit : {0, 1, 10}) {
      ASSERT_EQ(CanonicalAll(store.QueryByTimeRange(lo, hi, limit)),
                CanonicalAll(model->QueryByTimeRange(lo, hi, limit)))
          << "[" << lo << ", " << hi << ") limit " << limit;
    }
  }
}

// What the schedules reached, summed over every model they used.
struct StoreScheduleReach {
  uint64_t older_copies_evicted = 0;
  uint64_t ranges_with_equal_starts = 0;
  uint64_t imports = 0;
  uint64_t evicted = 0;

  void Add(const ReferenceStore& model) {
    older_copies_evicted += model.older_copies_evicted();
    ranges_with_equal_starts += model.ranges_with_equal_starts();
  }
};

StoreScheduleReach RunStoreSchedule(uint64_t seed, int steps) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  SessionMaker maker(seed);
  Rng& rng = maker.rng();
  SessionStore::Options options;
  options.max_bytes = 12u << 10;
  auto store = std::make_unique<SessionStore>(options);
  ReferenceStore model(options.max_bytes);
  std::map<std::string, uint32_t> fragments;  // id -> last fragment.
  std::vector<Session> history;               // Everything inserted.
  StoreScheduleReach reach;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 6 && store->stats().sessions > 0) {
      // Restore a snapshot of the store into a fresh one, at times into a
      // smaller budget that evicts again.
      std::vector<Session> snapshot;
      store->ForEachSession([&](const Session& s) { snapshot.push_back(s); });
      std::vector<size_t> bytes;
      for (const auto& s : snapshot) {
        bytes.push_back(s.MemoryFootprint());
      }
      if (rng.NextBelow(3) == 0) {
        options.max_bytes = std::max<size_t>(4u << 10, options.max_bytes / 2);
      }
      const auto stats = store->stats();
      reach.Add(model);
      model = ReferenceStore::Import(options.max_bytes, snapshot, bytes,
                                     stats.inserted, stats.evicted);
      store = std::make_unique<SessionStore>(options);
      store->ImportSnapshot(std::move(snapshot), stats.inserted,
                            stats.evicted);
      ++reach.imports;
    } else {
      Session s;
      if (kind < 20 && !history.empty()) {
        // Replay a duplicate of something inserted before.
        s = maker.Replay(history[rng.NextBelow(history.size())]);
      } else if (kind < 40 && !fragments.empty()) {
        // The next fragment of an id already used.
        auto it = fragments.begin();
        std::advance(it, static_cast<long>(rng.NextBelow(fragments.size())));
        s = maker.Make(it->first, ++it->second, rng.NextBelow(64));
      } else {
        // A new id; one in ten big enough to evict several at once.
        const std::string id = "s" + std::to_string(fragments.size());
        fragments[id] = 0;
        s = maker.Make(id, 0, kind >= 90 ? 2048 : rng.NextBelow(64));
      }
      history.push_back(s);
      model.Insert(s, s.MemoryFootprint());
      model.EvictToBudget();
      store->Insert(std::move(s));
    }
    ExpectStoreMatches(*store, &model, fragments);
    if (::testing::Test::HasFatalFailure()) {
      break;
    }
  }
  reach.Add(model);
  reach.evicted = store->stats().evicted;
  return reach;
}

TEST(StoreIndexDifferential, MatchesTheOrderedMapReferenceAtEveryStep) {
  StoreScheduleReach total;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const auto reach = RunStoreSchedule(seed, 300);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    total.older_copies_evicted += reach.older_copies_evicted;
    total.ranges_with_equal_starts += reach.ranges_with_equal_starts;
    total.imports += reach.imports;
    total.evicted += reach.evicted;
  }
  // The schedules reach what they are meant to.
  EXPECT_GT(total.older_copies_evicted, 0u);
  EXPECT_GT(total.ranges_with_equal_starts, 0u);
  EXPECT_GT(total.imports, 0u);
  EXPECT_GT(total.evicted, 0u);
}

// --- Cold tier ---

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + "ts_index_" + tag + "_" +
              std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ColdTier's index as it was built on an ordered map, over a model of what
// the tier holds: every session accepted, in spill order, and the segments
// a restart re-discovers.
class ReferenceCold {
 public:
  // False when the key is indexed already (the tier's dedupe).
  bool Append(const Session& s) {
    if (!by_id_.emplace(Key(s.id, s.fragment_index), log_.size()).second) {
      return false;
    }
    log_.push_back(s);
    return true;
  }

  // A segment the tier learns of only at restart.
  void AddUnseenSegment(const std::vector<Session>& sessions) {
    log_.insert(log_.end(), sessions.begin(), sessions.end());
  }

  // Start(): orders from file order; the earliest copy of a key wins.
  void Restart() {
    by_id_.clear();
    for (size_t order = 0; order < log_.size(); ++order) {
      by_id_.emplace(Key(log_[order].id, log_[order].fragment_index), order);
    }
  }

  bool Contains(const std::string& id, uint32_t fragment) const {
    return by_id_.count(Key(id, fragment)) != 0;
  }

  // (fragment, order, min_time) of every fragment of `id`, ascending.
  std::vector<std::tuple<uint32_t, uint64_t, EventTime>> Fragments(
      const std::string& id) const {
    std::vector<std::tuple<uint32_t, uint64_t, EventTime>> out;
    for (auto it = by_id_.lower_bound(Key(id, 0));
         it != by_id_.end() && it->first.first == id; ++it) {
      out.emplace_back(it->first.second, it->second,
                       log_[it->second].MinTime());
    }
    return out;
  }

  std::vector<std::string> Ids() const {
    std::vector<std::string> ids;
    for (const auto& [key, order] : by_id_) {
      if (ids.empty() || ids.back() != key.first) {
        ids.push_back(key.first);
      }
    }
    return ids;
  }

  // service -> indexed sessions that touched it, service-ascending.
  std::vector<std::pair<uint32_t, uint64_t>> ServiceCounts() const {
    std::map<uint32_t, uint64_t> counts;
    for (const auto& [key, order] : by_id_) {
      for (uint32_t service : log_[order].Services()) {
        ++counts[service];
      }
    }
    return {counts.begin(), counts.end()};
  }

  // (min_time, order) of every indexed session, ascending: a RANGE over all
  // time with no limit.
  std::vector<std::pair<EventTime, uint64_t>> AllByTime() const {
    std::vector<std::pair<EventTime, uint64_t>> out;
    for (const auto& [key, order] : by_id_) {
      out.emplace_back(log_[order].MinTime(), order);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  const Session& At(uint64_t order) const { return log_[order]; }
  size_t size() const { return by_id_.size(); }
  uint64_t next_order() const { return log_.size(); }

 private:
  std::vector<Session> log_;
  std::map<Key, uint64_t> by_id_;
};

void ExpectColdMatches(ColdTier& cold, const ReferenceCold& model,
                       const std::map<std::string, uint32_t>& fragments,
                       bool read_frames) {
  ASSERT_EQ(cold.stats().sessions, model.size());
  std::vector<std::string> ids;
  cold.ForEachId([&](const std::string& id) { ids.push_back(id); });
  ASSERT_EQ(ids, model.Ids());
  std::vector<SessionKeyView> keys;
  std::vector<bool> want_held;
  for (const auto& [id, last] : fragments) {
    std::vector<std::tuple<uint32_t, uint64_t, EventTime>> got;
    for (const auto& c : cold.CollectFragments(id)) {
      ASSERT_EQ(c.id, id);
      got.emplace_back(c.fragment, c.order, c.min_time);
      if (read_frames) {
        Session s;
        ASSERT_TRUE(cold.Read(c, &s)) << id << "#" << c.fragment;
        ASSERT_EQ(Canonical(s), Canonical(model.At(c.order)));
      }
    }
    ASSERT_EQ(got, model.Fragments(id)) << id;
    for (uint32_t f = 0; f <= last + 1; ++f) {
      ASSERT_EQ(cold.Contains(id, f), model.Contains(id, f)) << id << "#" << f;
      keys.emplace_back(id, f);
      want_held.push_back(model.Contains(id, f));
    }
  }
  std::vector<bool> held;
  ASSERT_EQ(cold.ServiceCounts(keys, &held), model.ServiceCounts());
  ASSERT_EQ(held, want_held);
  std::vector<std::pair<EventTime, uint64_t>> by_time;
  for (const auto& c : cold.CollectRange(std::numeric_limits<EventTime>::min(),
                                         std::numeric_limits<EventTime>::max(),
                                         model.size() + 1)) {
    by_time.emplace_back(c.min_time, c.order);
  }
  ASSERT_EQ(by_time, model.AllByTime());
}

// The name ColdTier gives its n-th segment file.
std::string SegmentPath(const std::string& dir, uint64_t n) {
  char name[48];
  std::snprintf(name, sizeof(name), "cold-%010" PRIu64 ".seg", n);
  return dir + "/" + name;
}

void RunColdSchedule(uint64_t seed, int steps) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  ScratchDir dir("cold_" + std::to_string(seed));
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 4u << 10;
  auto cold = std::make_unique<ColdTier>(options);
  ASSERT_TRUE(cold->Start());
  ReferenceCold model;
  SessionMaker maker(seed);
  Rng& rng = maker.rng();
  std::map<std::string, uint32_t> fragments;
  std::vector<Session> history;
  uint64_t dedupes = 0;  // This incarnation's.
  bool wrote_duplicate_segment = false;
  const auto restart = [&] {
    cold.reset();
    model.Restart();
    cold = std::make_unique<ColdTier>(options);
    ASSERT_TRUE(cold->Start());
    dedupes = 0;
  };
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t kind = rng.NextBelow(100);
    const bool restarting =
        kind < 4 || (!wrote_duplicate_segment && step == steps / 2);
    if (restarting) {
      ASSERT_TRUE(cold->FlushPending());
      if (!wrote_duplicate_segment && !history.empty()) {
        // A segment the next incarnation re-discovers that repeats a key an
        // earlier segment holds (its own copy, newer) beside a new key.
        wrote_duplicate_segment = true;
        const uint64_t segments = cold->stats().segments;
        cold.reset();
        const std::string id = "s" + std::to_string(fragments.size());
        fragments[id] = 0;
        const std::vector<Session> batch = {
            maker.Replay(history[rng.NextBelow(history.size())]),
            maker.Make(id, 0, 16)};
        ColdSegmentIndex index;
        size_t file_bytes = 0;
        ASSERT_TRUE(WriteColdSegment(SegmentPath(dir.path(), segments), batch,
                                     model.next_order(), &index, &file_bytes));
        model.AddUnseenSegment(batch);
      }
      restart();
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    } else {
      Session s;
      if (kind < 20 && !history.empty()) {
        s = maker.Replay(history[rng.NextBelow(history.size())]);
      } else if (kind < 45 && !fragments.empty()) {
        auto it = fragments.begin();
        std::advance(it, static_cast<long>(rng.NextBelow(fragments.size())));
        s = maker.Make(it->first, ++it->second, rng.NextBelow(256));
      } else {
        const std::string id = "s" + std::to_string(fragments.size());
        fragments[id] = 0;
        s = maker.Make(id, 0, rng.NextBelow(256));
      }
      history.push_back(s);
      if (!model.Append(s)) {
        ++dedupes;
      }
      cold->Append(std::move(s));
      ASSERT_EQ(cold->stats().dedup_dropped, dedupes);
    }
    ExpectColdMatches(*cold, model, fragments, restarting || step % 16 == 0);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_TRUE(wrote_duplicate_segment);
}

TEST(ColdIndexDifferential, MatchesTheOrderedMapReferenceAtEveryStep) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunColdSchedule(seed, 240);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

}  // namespace
}  // namespace ts
