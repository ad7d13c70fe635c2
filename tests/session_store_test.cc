// Tests for the bounded session store behind the query interface (Figure 2).
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_store.h"

namespace ts {
namespace {

Session MakeSession(const std::string& id, EventTime start_ms, EventTime end_ms,
                    std::vector<uint32_t> services, uint32_t fragment = 0) {
  Session s;
  s.id = id;
  s.fragment_index = fragment;
  EventTime t = start_ms * kNanosPerMilli;
  const EventTime step =
      services.empty() ? 0
                       : (end_ms - start_ms) * kNanosPerMilli /
                             static_cast<EventTime>(services.size() + 1);
  for (uint32_t svc : services) {
    LogRecord r;
    r.time = t;
    r.session_id = id;
    r.txn_id = *TxnId::Parse("1");
    r.service = svc;
    s.records.push_back(std::move(r));
    t += step;
  }
  // Ensure the extent reaches end_ms.
  if (!s.records.empty()) {
    s.records.back().time = end_ms * kNanosPerMilli;
  }
  return s;
}

// Calls `fn` from Prepare for every insert and hands nothing on.
class CallbackObserver : public SessionStore::InsertObserver {
 public:
  explicit CallbackObserver(std::function<void(const Session&)> fn)
      : fn_(std::move(fn)) {}
  std::unique_ptr<Pending> Prepare(const Session& session,
                                   std::span<const uint32_t>) override {
    fn_(session);
    return nullptr;
  }
  bool Commit(std::unique_ptr<Pending>) override { return false; }

 private:
  std::function<void(const Session&)> fn_;
};

TEST(SessionStore, InsertAndGetById) {
  SessionStore store;
  store.Insert(MakeSession("A", 0, 10, {1, 2}));
  store.Insert(MakeSession("B", 5, 20, {2}));
  auto a = store.GetById("A");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->records.size(), 2u);
  EXPECT_FALSE(store.GetById("C").has_value());
  EXPECT_FALSE(store.GetById("A", /*fragment=*/1).has_value());
  EXPECT_EQ(store.stats().sessions, 2u);
  EXPECT_EQ(store.stats().inserted, 2u);
}

TEST(SessionStore, FragmentsStoredSeparatelyAndListed) {
  SessionStore store;
  store.Insert(MakeSession("A", 0, 10, {1}, 0));
  store.Insert(MakeSession("A", 100, 110, {1}, 1));
  auto fragments = store.GetAllFragments("A");
  ASSERT_EQ(fragments.size(), 2u);
  EXPECT_EQ(fragments[0].fragment_index, 0u);
  EXPECT_EQ(fragments[1].fragment_index, 1u);
  EXPECT_TRUE(store.GetById("A", 1).has_value());
}

TEST(SessionStore, QueryByServiceNewestFirstWithLimit) {
  SessionStore store;
  store.Insert(MakeSession("A", 0, 10, {7}));
  store.Insert(MakeSession("B", 10, 20, {7, 8}));
  store.Insert(MakeSession("C", 20, 30, {8}));
  auto with7 = store.QueryByService(7, 10);
  ASSERT_EQ(with7.size(), 2u);
  EXPECT_EQ(with7[0].id, "B");  // Newest first.
  EXPECT_EQ(with7[1].id, "A");
  EXPECT_EQ(store.QueryByService(7, 1).size(), 1u);
  EXPECT_TRUE(store.QueryByService(99, 10).empty());
}

TEST(SessionStore, QueryByTimeRangeIntersectsExtents) {
  SessionStore store;
  store.Insert(MakeSession("A", 0, 10, {1}));
  store.Insert(MakeSession("B", 5, 25, {1}));
  store.Insert(MakeSession("C", 30, 40, {1}));
  auto hits = store.QueryByTimeRange(8 * kNanosPerMilli, 28 * kNanosPerMilli, 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, "A");
  EXPECT_EQ(hits[1].id, "B");
  // A range after everything.
  EXPECT_TRUE(store.QueryByTimeRange(100 * kNanosPerMilli,
                                     200 * kNanosPerMilli, 10)
                  .empty());
}

TEST(SessionStore, EvictsOldestWhenOverBudget) {
  SessionStore::Options options;
  options.max_bytes = 4096;
  SessionStore store(options);
  for (int i = 0; i < 100; ++i) {
    store.Insert(MakeSession("S" + std::to_string(i), i * 10, i * 10 + 5, {1, 2, 3}));
  }
  const auto stats = store.stats();
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_LE(stats.bytes, 4096u + 2048u);  // Budget plus one entry of slack.
  // Oldest evicted, newest retained.
  EXPECT_FALSE(store.GetById("S0").has_value());
  EXPECT_TRUE(store.GetById("S99").has_value());
  // Indexes stay consistent after eviction.
  auto by_service = store.QueryByService(2, 1000);
  EXPECT_EQ(by_service.size(), stats.sessions);
}

TEST(SessionStore, TimeRangeOrderedByStartWithIntersectSemantics) {
  SessionStore store;
  // Inserted out of start-time order on purpose: results must come back
  // ordered by start time, not insertion order.
  store.Insert(MakeSession("C", 30, 40, {1}));
  store.Insert(MakeSession("A", 0, 10, {1}));
  store.Insert(MakeSession("B", 5, 25, {1}));

  // [lo, hi) intersect semantics against the closed extent [min, max]:
  //   * a session starting exactly at hi is excluded;
  //   * a session ending exactly at lo is included.
  auto hits = store.QueryByTimeRange(10 * kNanosPerMilli, 30 * kNanosPerMilli,
                                     10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, "A");  // Ends exactly at lo: included, and first.
  EXPECT_EQ(hits[1].id, "B");
  // C starts exactly at hi: excluded.

  // limit cuts the scan short but preserves start-time order.
  auto limited =
      store.QueryByTimeRange(0, 100 * kNanosPerMilli, /*limit=*/2);
  ASSERT_EQ(limited.size(), 2u);
  EXPECT_EQ(limited[0].id, "A");
  EXPECT_EQ(limited[1].id, "B");
  EXPECT_TRUE(store.QueryByTimeRange(0, 100 * kNanosPerMilli, 0).empty());
}

TEST(SessionStore, TopServicesRankedWithTieBreakAndEviction) {
  SessionStore store;
  store.Insert(MakeSession("A", 0, 10, {1, 2}));
  store.Insert(MakeSession("B", 10, 20, {2, 3}));
  store.Insert(MakeSession("C", 20, 30, {2, 3}));
  auto top = store.TopServices(10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], (std::pair<uint32_t, size_t>{2, 3}));
  EXPECT_EQ(top[1], (std::pair<uint32_t, size_t>{3, 2}));  // Tie with 1:
  EXPECT_EQ(top[2], (std::pair<uint32_t, size_t>{1, 1}));  // lower id first.
  EXPECT_EQ(store.TopServices(1).size(), 1u);
  EXPECT_TRUE(SessionStore().TopServices(5).empty());
}

TEST(SessionStore, EvictionUnindexesExactServiceSet) {
  SessionStore::Options options;
  options.max_bytes = 2048;
  SessionStore store(options);
  // The first session is the only one touching service 999; eviction must
  // remove it from that index (and leave the shared service 1 consistent).
  store.Insert(MakeSession("OLD", 0, 5, {1, 999}));
  for (int i = 0; i < 50; ++i) {
    store.Insert(MakeSession("N" + std::to_string(i), i * 10, i * 10 + 5, {1}));
  }
  ASSERT_GT(store.stats().evicted, 0u);
  ASSERT_FALSE(store.GetById("OLD").has_value());
  EXPECT_TRUE(store.QueryByService(999, 10).empty());
  EXPECT_EQ(store.QueryByService(1, 1000).size(), store.stats().sessions);
  // Repeated insert of a duplicate service in one session stays consistent.
  store.Insert(MakeSession("DUP", 600, 610, {4, 4, 4}));
  EXPECT_EQ(store.QueryByService(4, 10).size(), 1u);
}

TEST(SessionStore, InsertObserversFireUntilRemoved) {
  SessionStore store;
  std::vector<std::string> seen_a;
  std::vector<std::string> seen_b;
  CallbackObserver a([&](const Session& s) { seen_a.push_back(s.id); });
  CallbackObserver b([&](const Session& s) { seen_b.push_back(s.id); });
  store.AddInsertObserver(&a);
  store.AddInsertObserver(&b);
  store.Insert(MakeSession("X", 0, 1, {1}));
  store.RemoveInsertObserver(&a);
  store.Insert(MakeSession("Y", 1, 2, {1}));
  store.RemoveInsertObserver(&b);
  store.Insert(MakeSession("Z", 2, 3, {1}));
  EXPECT_EQ(seen_a, (std::vector<std::string>{"X"}));
  EXPECT_EQ(seen_b, (std::vector<std::string>{"X", "Y"}));
}

// Concurrent insert/evict/query stress: run under TSan/ASan, this pins the
// absence of dangling service-index reads while eviction churns the store.
TEST(SessionStore, ConcurrentInsertEvictQueryStress) {
  SessionStore::Options options;
  options.max_bytes = 64 << 10;  // Small: constant eviction under load.
  SessionStore store(options);
  std::atomic<uint64_t> observed{0};
  CallbackObserver counter([&](const Session&) {
    observed.fetch_add(1, std::memory_order_relaxed);
  });
  store.AddInsertObserver(&counter);

  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kPerWriter = 400;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        store.Insert(MakeSession("W" + std::to_string(w) + "-" +
                                     std::to_string(i),
                                 i, i + 2,
                                 {static_cast<uint32_t>(i % 7),
                                  static_cast<uint32_t>(w)}));
      }
    });
  }
  std::atomic<bool> done{false};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&store, &done, r] {
      size_t spins = 0;
      while (!done.load(std::memory_order_acquire) || spins < 100) {
        ++spins;
        for (const auto& s :
             store.QueryByService(static_cast<uint32_t>(spins % 7), 8)) {
          // Touch the payload: a dangling entry blows up under sanitizers.
          ASSERT_FALSE(s.id.empty());
        }
        (void)store.QueryByTimeRange(0, 500 * kNanosPerMilli, 8);
        (void)store.TopServices(4);
        (void)store.GetAllFragments("W" + std::to_string(r) + "-5");
        (void)store.stats();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads[static_cast<size_t>(w)].join();
  }
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) {
    threads[t].join();
  }
  const auto stats = store.stats();
  EXPECT_EQ(stats.inserted, static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(observed.load(), stats.inserted);
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_EQ(stats.sessions, stats.inserted - stats.evicted);
  // Post-churn index consistency.
  size_t by_service_total = 0;
  for (uint32_t svc = 0; svc < 7; ++svc) {
    by_service_total += store.QueryByService(svc, 10'000).size();
  }
  EXPECT_GE(by_service_total, stats.sessions);  // Sessions touch >= 1 svc.
}

// Replaying an (id, fragment) the store already holds keeps both copies;
// evicting the older one must leave the newer one reachable by id.
TEST(SessionStore, EvictingAnOlderDuplicateKeepsTheNewerReachable) {
  SessionStore::Options options;
  options.max_bytes = 2048;
  SessionStore store(options);
  store.Insert(MakeSession("DUP", 0, 5, {1}));
  store.Insert(MakeSession("DUP", 10, 15, {2}));
  for (int i = 0; store.stats().evicted == 0; ++i) {
    store.Insert(MakeSession("F" + std::to_string(i), 20 + i, 21 + i, {3}));
  }
  ASSERT_EQ(store.stats().evicted, 1u);  // Only the older DUP is gone.
  const auto dup = store.GetById("DUP");
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(dup->records.front().service, 2u);  // The newer copy.
  EXPECT_TRUE(store.Contains("DUP", 0));
  EXPECT_EQ(store.GetAllFragments("DUP").size(), 1u);
}

// Hands each session's id from Prepare to Commit and records the commits;
// asks for Published on every one.
class OrderObserver : public SessionStore::InsertObserver {
 public:
  struct Id : Pending {
    std::string id;
  };
  std::unique_ptr<Pending> Prepare(
      const Session& session, std::span<const uint32_t> services) override {
    {
      std::lock_guard<std::mutex> lock(mu_);  // Prepare runs unlocked.
      services_.emplace_back(services.begin(), services.end());
    }
    auto pending = std::make_unique<Id>();
    pending->id = session.id;
    return pending;
  }
  bool Commit(std::unique_ptr<Pending> pending) override {
    committed_.push_back(static_cast<Id&>(*pending).id);
    return true;
  }
  void Published() override { ++published_; }

  std::mutex mu_;
  std::vector<std::vector<uint32_t>> services_;  // Guarded by mu_.
  std::vector<std::string> committed_;
  std::atomic<int> published_{0};
};

TEST(SessionStore, ObserverSeesServiceSetThenCommitsInOrder) {
  SessionStore store;
  OrderObserver observer;
  store.AddInsertObserver(&observer);
  store.Insert(MakeSession("A", 0, 1, {5, 3, 5, 1}));
  store.Insert(MakeSession("B", 1, 2, {2}));
  store.RemoveInsertObserver(&observer);
  store.Insert(MakeSession("C", 2, 3, {2}));
  ASSERT_EQ(observer.services_.size(), 2u);
  EXPECT_EQ(observer.services_[0], (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_EQ(observer.services_[1], (std::vector<uint32_t>{2}));
  EXPECT_EQ(observer.committed_, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(observer.published_, 2);
}

// Commit runs under the store lock, in store insertion order: with several
// inserting threads, the commit sequence equals the order in which the
// sessions entered the store (its eviction order, read back through
// ForEachSession).
TEST(SessionStore, ConcurrentCommitsFollowInsertionOrder) {
  SessionStore store;
  OrderObserver observer;
  store.AddInsertObserver(&observer);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        store.Insert(MakeSession(
            "T" + std::to_string(t) + "-" + std::to_string(i), i, i + 1,
            {static_cast<uint32_t>(i % 5)}));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  store.RemoveInsertObserver(&observer);
  std::vector<std::string> stored;
  store.ForEachSession([&](const Session& s) { stored.push_back(s.id); });
  EXPECT_EQ(observer.committed_, stored);
  EXPECT_EQ(observer.published_, kThreads * kPerThread);
}

// Replacing an observer under concurrent inserts: every insert is seen by
// exactly one of the two, and the old one is never called once Replace
// returns.
TEST(SessionStore, ReplaceObserverUnderInsertsLosesNothing) {
  SessionStore store;
  std::atomic<int> seen_old{0};
  std::atomic<int> seen_new{0};
  std::atomic<bool> old_retired{false};
  std::atomic<int> late_calls{0};
  CallbackObserver old_observer([&](const Session&) {
    if (old_retired.load()) {
      late_calls.fetch_add(1);
    }
    seen_old.fetch_add(1);
  });
  CallbackObserver new_observer([&](const Session&) { seen_new.fetch_add(1); });
  store.AddInsertObserver(&old_observer);
  constexpr int kThreads = 2;
  constexpr int kPerThread = 2000;
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &started, t] {
      for (int i = 0; i < kPerThread; ++i) {
        store.Insert(MakeSession(
            "R" + std::to_string(t) + "-" + std::to_string(i), i, i + 1, {1}));
        started.fetch_add(1);
      }
    });
  }
  while (started.load() < kPerThread / 2) {
    std::this_thread::yield();
  }
  store.ReplaceInsertObserver(&old_observer, &new_observer);
  old_retired.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  store.RemoveInsertObserver(&new_observer);
  EXPECT_EQ(seen_old.load() + seen_new.load(), kThreads * kPerThread);
  EXPECT_EQ(late_calls.load(), 0);
}

TEST(SessionStore, ConcurrentInsertAndQuery) {
  SessionStore store;
  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      store.Insert(MakeSession("W" + std::to_string(i), i, i + 1, {1}));
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 500; ++i) {
      (void)store.QueryByService(1, 5);
      (void)store.QueryByTimeRange(0, 1'000'000'000, 5);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(store.stats().inserted, 500u);
}

}  // namespace
}  // namespace ts
