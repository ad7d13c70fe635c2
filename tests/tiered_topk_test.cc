// TOPK over the tiered store (src/store/tiered_reads.h). TieredTopServices
// counts each session once from the hot counts, the cold tier's summaries and
// the store's flagged twins, with no store scan. These tests hold it to the
// scan it replaced — every hot session checked against the cold index —
// after every step of seeded schedules that make twins each way they can
// arise (replayed duplicates evicted under a newer copy, restores over
// flushed segments with the tier attached before or after, shed batches),
// and hold its answer to the insert counters while writers evict under it.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_store.h"
#include "src/common/rng.h"
#include "src/common/time_util.h"
#include "src/fault/fs_fault.h"
#include "src/store/cold_tier.h"
#include "src/store/tiered_reads.h"

namespace ts {
namespace {

using Counts = std::vector<std::pair<uint32_t, uint64_t>>;

Session MakeSession(const std::string& id, uint32_t fragment,
                    const std::vector<uint32_t>& services, size_t payload) {
  Session s;
  s.id = id;
  s.fragment_index = fragment;
  EventTime t = 0;
  for (uint32_t service : services) {
    LogRecord r;
    r.time = t++;
    r.session_id = id;
    r.txn_id = *TxnId::Parse("1-2");
    r.service = service;
    r.host = service;
    r.kind = EventKind::kAnnotation;
    r.payload = std::string(payload, 'x');
    s.records.push_back(std::move(r));
  }
  return s;
}

// The scan TieredTopServices replaced, kept as the reference: hot counts plus
// cold counts, less the services of every hot session the cold tier holds.
Counts WalkReferenceTopServices(const SessionStore& hot, const ColdTier& cold,
                                size_t k) {
  std::map<uint32_t, uint64_t> counts;
  for (const auto& [service, count] :
       hot.TopServices(std::numeric_limits<size_t>::max())) {
    counts[service] += count;
  }
  for (const auto& [service, count] : cold.ServiceCounts()) {
    counts[service] += count;
  }
  hot.ForEachSession([&](const Session& s) {
    if (!cold.Contains(s.id, s.fragment_index)) {
      return;
    }
    for (uint32_t service : s.Services()) {
      const auto it = counts.find(service);
      if (it != counts.end() && --it->second == 0) {
        counts.erase(it);
      }
    }
  });
  Counts top(counts.begin(), counts.end());
  std::stable_sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  top.resize(std::min(k, top.size()));
  return top;
}

// Hot sessions the cold tier holds too, counted the reference's way.
size_t WalkReferenceTwins(const SessionStore& hot, const ColdTier& cold) {
  size_t twins = 0;
  hot.ForEachSession([&](const Session& s) {
    twins += cold.Contains(s.id, s.fragment_index) ? 1 : 0;
  });
  return twins;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + "ts_topk_" + tag + "_" +
              std::to_string(::getpid())) {
    Wipe();
  }
  ~ScratchDir() { Wipe(); }
  const std::string& path() const { return path_; }

 private:
  void Wipe() {
    EXPECT_EQ(std::system(("rm -rf '" + path_ + "'").c_str()), 0);
  }
  std::string path_;
};

// Fails every segment write while `broken` is set.
class BrokenWrites : public FsFaultInjector {
 public:
  FsFaultAction OnWrite(const char*, size_t) override {
    if (!broken.load(std::memory_order_relaxed)) {
      return {};
    }
    FsFaultAction action;
    action.kind = FsFaultAction::Kind::kFail;
    action.error = 5;  // EIO
    return action;
  }
  std::atomic<bool> broken{false};
};

void AttachCold(SessionStore* store, ColdTier* cold) {
  store->SetEvictionSink([cold](Session&& s) { cold->Append(std::move(s)); },
                         [cold] { cold->WaitForSpace(); });
}

// One seeded schedule. Each step leaves the cold tier quiescent (its spill
// thread idle: nothing pending reaches the segment target, and every flush
// has drained or shed), so the reference walk and the census read the same
// state.
void RunSchedule(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  ScratchDir dir("diff_" + std::to_string(seed));
  BrokenWrites disk;
  ScopedFsFaultInjector scoped(&disk);
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 64u << 20;  // Spill only on flush.
  cold_options.spill_retry_limit = 1;             // Shed on first failure.
  cold_options.spill_backoff_ms = 1;
  ColdTier cold(cold_options);
  ASSERT_TRUE(cold.Start());

  SessionStore::Options store_options;
  store_options.max_bytes = 6u << 10;  // ~10 sessions hot.
  auto store = std::make_unique<SessionStore>(store_options);
  AttachCold(store.get(), &cold);
  TrackColdTwins(*store, &cold);

  Rng rng(seed);
  std::vector<Session> closed;  // Every distinct session inserted so far.
  std::vector<Session> snapshot;
  uint64_t snapshot_inserted = 0;
  auto fresh_session = [&] {
    std::vector<uint32_t> services;
    const uint64_t n = 1 + rng.NextBelow(4);
    for (uint64_t i = 0; i < n; ++i) {
      services.push_back(static_cast<uint32_t>(rng.NextBelow(8)));
    }
    const uint32_t fragment = static_cast<uint32_t>(rng.NextBelow(2));
    closed.push_back(MakeSession("S" + std::to_string(closed.size()), fragment,
                                 services, 40 + rng.NextBelow(200)));
    return closed.back();
  };
  auto flush = [&] {
    for (int i = 0; i < 10'000; ++i) {
      if (cold.FlushPending()) {
        return;
      }
    }
    FAIL() << "the cold tier never drained";
  };

  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 45) {
      store->Insert(fresh_session());
    } else if (op < 65 && !closed.empty()) {
      // A replayed duplicate of a recent session: it may still be hot (two
      // hot copies; evicting the older makes the newer a twin) or cold
      // already (a twin from the insert on).
      const size_t back = std::min<size_t>(closed.size(), 24);
      store->Insert(Session(closed[closed.size() - 1 - rng.NextBelow(back)]));
    } else if (op < 75) {
      flush();
    } else if (op < 80) {
      disk.broken.store(!disk.broken.load());
    } else if (op < 88) {
      snapshot.clear();
      store->ForEachSession(
          [&](const Session& s) { snapshot.push_back(s); });
      snapshot_inserted = store->stats().inserted;
    } else if (op < 94 && !snapshot.empty()) {
      // Restart onto the snapshot: sessions evicted and flushed since it
      // was taken come back hot while the cold tier holds them too.
      flush();
      TrackColdTwins(*store, nullptr);
      store = std::make_unique<SessionStore>(store_options);
      AttachCold(store.get(), &cold);
      const bool attach_first = rng.NextBelow(2) == 0;
      if (attach_first) {
        TrackColdTwins(*store, &cold);
      }
      store->ImportSnapshot(snapshot, snapshot_inserted, 0);
      if (!attach_first) {
        TrackColdTwins(*store, &cold);
      }
    } else {
      flush();  // Shed anything a broken disk is holding, then carry on.
      store->Insert(fresh_session());
    }
    const size_t k = 1 + rng.NextBelow(10);
    ASSERT_EQ(TieredTopServices(*store, &cold, k),
              WalkReferenceTopServices(*store, cold, k))
        << "step " << step << " op " << op;
    const size_t flagged = store->stats().cold_twins;
    const size_t twins = WalkReferenceTwins(*store, cold);
    ASSERT_GE(flagged, twins) << "step " << step;
    if (cold.stats().shed_sessions == 0) {
      // Only a shed leaves a stale flag behind (until its entry is evicted).
      ASSERT_EQ(flagged, twins) << "step " << step;
    }
  }
  TrackColdTwins(*store, nullptr);
  EXPECT_EQ(store->stats().cold_twins, 0u);
}

TEST(TieredTopk, MatchesTheWalkReferenceAtEveryStep) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RunSchedule(seed);
  }
}

TEST(TieredTopk, SchedulesReachEveryKindOfTwin) {
  // The differential test above proves nothing about a twin kind its
  // schedules never make. Make two kinds by hand and pin their counts: an
  // older copy evicted under a newer hot one, and a flagged twin whose cold
  // copy is shed. A LiveNodeRestore test (live_node_test.cc) pins the
  // restored kind.
  ScratchDir dir("kinds");
  BrokenWrites disk;
  ScopedFsFaultInjector scoped(&disk);
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 64u << 20;
  cold_options.spill_retry_limit = 1;
  cold_options.spill_backoff_ms = 1;
  ColdTier cold(cold_options);
  ASSERT_TRUE(cold.Start());
  SessionStore::Options store_options;
  store_options.max_bytes = 4u << 10;
  SessionStore store(store_options);
  AttachCold(&store, &cold);
  TrackColdTwins(store, &cold);

  // An older copy evicted while a newer one stays hot.
  const Session dup = MakeSession("DUP", 0, {1, 2}, 64);
  store.Insert(Session(dup));
  store.Insert(Session(dup));
  for (int i = 0; !cold.Contains("DUP", 0); ++i) {
    ASSERT_LT(i, 100);
    store.Insert(MakeSession("F" + std::to_string(i), 0, {3}, 64));
  }
  ASSERT_TRUE(store.Contains("DUP", 0));
  EXPECT_EQ(store.stats().cold_twins, 1u);
  EXPECT_EQ(TieredTopServices(store, &cold, 10),
            WalkReferenceTopServices(store, cold, 10));

  // A shed pending copy: still flagged, but counted hot only.
  disk.broken.store(true);
  const Session shed = MakeSession("SHED", 0, {4}, 64);
  store.Insert(Session(shed));
  for (int i = 0; !cold.Contains("SHED", 0); ++i) {
    ASSERT_LT(i, 100);
    store.Insert(MakeSession("G" + std::to_string(i), 0, {3}, 64));
  }
  store.Insert(Session(shed));  // A twin from the insert on.
  const uint64_t flagged = store.stats().cold_twins;
  for (int i = 0; i < 10'000 && !cold.FlushPending(); ++i) {
  }
  ASSERT_GT(cold.stats().shed_sessions, 0u);
  ASSERT_FALSE(cold.Contains("SHED", 0));
  EXPECT_EQ(store.stats().cold_twins, flagged);
  const Counts top = TieredTopServices(store, &cold, 10);
  EXPECT_EQ(top, WalkReferenceTopServices(store, cold, 10));
  EXPECT_NE(std::find(top.begin(), top.end(), std::make_pair(4u, uint64_t{1})),
            top.end());
}

TEST(TieredTopk, CountsStayWithinTheInsertsAroundTheCall) {
  // Writers evict on nearly every insert while a reader asks for TOPK. Every
  // session carries service 1 and sessions are distinct, so service 1's
  // count is exactly the number of inserts the store had committed when the
  // census was read: never below the committed count read before the call,
  // never above the one read after it. A session moved hot -> cold between
  // separate hot and cold reads would be counted twice and break the bound.
  ScratchDir dir("race");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 8u << 10;
  ColdTier cold(cold_options);
  ASSERT_TRUE(cold.Start());
  SessionStore::Options store_options;
  store_options.max_bytes = 8u << 10;
  SessionStore store(store_options);
  AttachCold(&store, &cold);
  TrackColdTwins(store, &cold);

  constexpr int kWriters = 2;
  constexpr int kPerWriter = 3000;
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        // Every 8th session is thirty times the size of the others and
        // evicts several at once, so more sessions can move hot -> cold
        // between two reads than were inserted between them.
        store.Insert(MakeSession(
            "W" + std::to_string(w) + "-" + std::to_string(i), 0,
            {1, static_cast<uint32_t>(2 + (i % 5))}, i % 8 == 0 ? 2000 : 64));
        std::this_thread::yield();  // Lets the reader in between inserts.
      }
      running.fetch_sub(1);
    });
  }
  struct JoinOnExit {  // Also on a failed ASSERT's early return.
    std::vector<std::thread>* threads;
    ~JoinOnExit() {
      for (auto& t : *threads) {
        t.join();
      }
    }
  } join_on_exit{&writers};
  uint64_t calls = 0;
  while (running.load() > 0) {
    const uint64_t before = store.stats().inserted;
    const Counts top = TieredTopServices(store, &cold, 1);
    const uint64_t after = store.stats().inserted;
    ++calls;
    if (top.empty()) {
      ASSERT_EQ(before, 0u);
      continue;
    }
    ASSERT_EQ(top[0].first, 1u);
    ASSERT_GE(top[0].second, before) << "call " << calls;
    ASSERT_LE(top[0].second, after) << "call " << calls;
  }
  for (auto& t : writers) {
    t.join();
  }
  writers.clear();
  const Counts top = TieredTopServices(store, &cold, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].second, static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_GT(store.stats().evicted, static_cast<uint64_t>(kPerWriter));
  EXPECT_EQ(store.stats().cold_twins, 0u);  // Distinct ids: no twins.
  EXPECT_GT(calls, 1u);
}

}  // namespace
}  // namespace ts
