// LiveCloser: watermark-driven fragment closing for the live serving path.
// The load-bearing property is the determinism contract documented in
// live_closer.h — fragment boundaries depend only on each record's watermark
// tag, never on CloseExpired cadence.
#include "src/core/live_closer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/log/wire_format.h"

namespace ts {
namespace {

constexpr EventTime kSec = kNanosPerSecond;

LogRecord Rec(const std::string& id, EventTime t, uint32_t service = 1) {
  LogRecord r;
  r.time = t;
  r.session_id = id;
  r.txn_id = *TxnId::Parse("1");
  r.service = service;
  r.host = service;
  r.kind = EventKind::kAnnotation;
  r.payload = "p";
  return r;
}

std::string Canonical(std::vector<Session> sessions) {
  std::vector<std::string> blocks;
  for (const auto& s : sessions) {
    std::string b = s.id + "#" + std::to_string(s.fragment_index) + "@" +
                    std::to_string(s.first_epoch) + "-" +
                    std::to_string(s.last_epoch) + ":" +
                    std::to_string(s.closed_at);
    for (const auto& r : s.records) {
      b += "\n" + ToWireFormat(r);
    }
    blocks.push_back(std::move(b));
  }
  std::sort(blocks.begin(), blocks.end());
  std::string out;
  for (const auto& b : blocks) {
    out += b + "\n---\n";
  }
  return out;
}

TEST(LiveCloserTest, OutOfOrderRecordsSortedOnEmit) {
  LiveCloser closer(2 * kSec);
  std::vector<Session> closed;
  closer.Feed(Rec("S", 3 * kSec), &closed);
  closer.Feed(Rec("S", 1 * kSec), &closed);
  closer.Feed(Rec("S", 2 * kSec), &closed);
  EXPECT_TRUE(closed.empty());  // Within slack: late records join, no split.
  closer.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 1u);
  ASSERT_EQ(closed[0].records.size(), 3u);
  EXPECT_EQ(closed[0].records[0].time, 1 * kSec);
  EXPECT_EQ(closed[0].records[1].time, 2 * kSec);
  EXPECT_EQ(closed[0].records[2].time, 3 * kSec);
  EXPECT_EQ(closed[0].first_epoch, 1u);
  EXPECT_EQ(closed[0].last_epoch, 3u);
}

TEST(LiveCloserTest, WatermarkDrivenCloseOrder) {
  LiveCloser closer(2 * kSec);
  std::vector<Session> closed;
  closer.Feed(Rec("A", 1 * kSec), &closed);
  closer.Feed(Rec("B", 3 * kSec), &closed);
  // Watermark is 3s: A (last 1s) is expired, B (last 3s) is not.
  closer.CloseExpired(&closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].id, "A");
  EXPECT_EQ(closed[0].fragment_index, 0u);
  EXPECT_EQ(closer.open_sessions(), 1u);

  closed.clear();
  closer.ObserveWatermark(5 * kSec);
  closer.CloseExpired(&closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].id, "B");
  EXPECT_EQ(closer.open_sessions(), 0u);
}

TEST(LiveCloserTest, FragmentRenumberingOnIdleGap) {
  LiveCloser closer(2 * kSec);
  std::vector<Session> closed;
  closer.Feed(Rec("S", 0), &closed);
  // Another session's traffic advances the watermark past S's close point.
  closer.Feed(Rec("T", 10 * kSec), &closed);
  // S resumes: the expired fragment is emitted at Feed time, the record
  // starts fragment 1.
  closer.Feed(Rec("S", 10 * kSec + 1), &closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].id, "S");
  EXPECT_EQ(closed[0].fragment_index, 0u);
  ASSERT_EQ(closed[0].records.size(), 1u);
  EXPECT_EQ(closed[0].records[0].time, 0);

  closed.clear();
  closer.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 2u);
  uint32_t s_fragment = 0;
  for (const auto& s : closed) {
    if (s.id == "S") {
      s_fragment = s.fragment_index;
      ASSERT_EQ(s.records.size(), 1u);
      EXPECT_EQ(s.records[0].time, 10 * kSec + 1);
    }
  }
  EXPECT_EQ(s_fragment, 1u);
}

TEST(LiveCloserTest, SingleSessionGapSplitsWithoutOtherTraffic) {
  LiveCloser closer(2 * kSec);
  std::vector<Session> closed;
  closer.Feed(Rec("S", 0), &closed);
  closer.Feed(Rec("S", 5 * kSec), &closed);  // Gap > inactivity.
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].fragment_index, 0u);
  closer.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[1].fragment_index, 1u);
}

// The same record/watermark sequence must produce identical fragments no
// matter how often CloseExpired runs — this is what makes sharded output
// byte-identical across worker counts.
TEST(LiveCloserTest, FragmentsIndependentOfCloseExpiredCadence) {
  const std::vector<LogRecord> input = {
      Rec("A", 1 * kSec),          Rec("B", 1 * kSec + 5),
      Rec("A", 2 * kSec),          Rec("C", 6 * kSec),
      Rec("A", 6 * kSec + 1),      Rec("B", 6 * kSec + 2),
      Rec("C", 7 * kSec),          Rec("A", 20 * kSec),
      Rec("B", 20 * kSec + 1),     Rec("A", 20 * kSec + 2),
  };

  std::vector<Session> eager_closed;
  LiveCloser eager(2 * kSec);
  for (const auto& r : input) {
    eager.Feed(r, &eager_closed);
    eager.CloseExpired(&eager_closed);  // After every record.
  }
  eager.FlushAll(&eager_closed);

  std::vector<Session> lazy_closed;
  LiveCloser lazy(2 * kSec);
  for (const auto& r : input) {
    lazy.Feed(r, &lazy_closed);  // Never CloseExpired until the end.
  }
  lazy.FlushAll(&lazy_closed);

  EXPECT_EQ(Canonical(std::move(eager_closed)),
            Canonical(std::move(lazy_closed)));
}

TEST(LiveCloserTest, OpenBytesTracksState) {
  LiveCloser closer(2 * kSec);
  std::vector<Session> closed;
  EXPECT_EQ(closer.open_bytes(), 0u);
  closer.Feed(Rec("S", 0), &closed);
  EXPECT_GT(closer.open_bytes(), 0u);
  closer.FlushAll(&closed);
  EXPECT_EQ(closer.open_bytes(), 0u);
}

TEST(LiveCloserTest, ShedOldestUntilDropsOldestIdleFirstExactly) {
  LiveCloser closer(100 * kSec);  // Nothing closes on its own.
  std::vector<Session> closed;
  closer.Feed(Rec("A", 1 * kSec), &closed);
  closer.Feed(Rec("A", 2 * kSec), &closed);
  closer.Feed(Rec("B", 5 * kSec), &closed);
  closer.Feed(Rec("C", 9 * kSec), &closed);
  ASSERT_TRUE(closed.empty());
  EXPECT_EQ(closer.open_records(), 4u);

  // A budget one byte under the current state sheds exactly the oldest-idle
  // fragment (A, last_time 2s) and counts its records exactly.
  EXPECT_EQ(closer.ShedOldestUntil(closer.open_bytes() - 1), 1u);
  EXPECT_EQ(closer.shed_fragments(), 1u);
  EXPECT_EQ(closer.shed_records(), 2u);
  EXPECT_EQ(closer.open_records(), 2u);
  EXPECT_EQ(closer.open_sessions(), 2u);

  // Budget zero clears the rest; shed fragments are never emitted.
  EXPECT_EQ(closer.ShedOldestUntil(0), 2u);
  EXPECT_EQ(closer.open_bytes(), 0u);
  EXPECT_EQ(closer.open_records(), 0u);
  EXPECT_EQ(closer.shed_records(), 4u);
  EXPECT_EQ(closer.shed_fragments(), 3u);
  closer.FlushAll(&closed);
  EXPECT_TRUE(closed.empty());
  EXPECT_EQ(closer.records_emitted(), 0u);
}

TEST(LiveCloserTest, ShedAdvancesFragmentNumbering) {
  LiveCloser closer(1 * kSec);
  std::vector<Session> closed;
  closer.Feed(Rec("S", 1 * kSec), &closed);
  EXPECT_EQ(closer.ShedOldestUntil(0), 1u);
  // S re-appears later: numbering continues as if the shed fragment had
  // closed, so downstream consumers see no index reuse.
  closer.Feed(Rec("S", 10 * kSec), &closed);
  closer.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].id, "S");
  EXPECT_EQ(closed[0].fragment_index, 1u);
  // Exact accounting: 2 fed = 1 emitted + 0 open + 1 shed.
  EXPECT_EQ(closer.records_emitted(), 1u);
  EXPECT_EQ(closer.open_records(), 0u);
  EXPECT_EQ(closer.shed_records(), 1u);
}

TEST(LiveCloserTest, AccountingPartitionHoldsAtEveryQuiescentPoint) {
  LiveCloser closer(2 * kSec);
  std::vector<Session> closed;
  uint64_t fed = 0;
  for (int round = 0; round < 6; ++round) {
    for (int s = 0; s < 5; ++s) {
      closer.ObserveWatermark(static_cast<EventTime>(round) * 3 * kSec);
      closer.Feed(Rec("S" + std::to_string(s),
                      static_cast<EventTime>(round) * 3 * kSec),
                  &closed);
      ++fed;
    }
    closer.CloseExpired(&closed);
    if (round == 3) {
      closer.ShedOldestUntil(closer.open_bytes() / 2);
    }
    EXPECT_EQ(fed, closer.records_emitted() + closer.open_records() +
                       closer.shed_records())
        << "round " << round;
  }
  closer.FlushAll(&closed);
  EXPECT_EQ(closer.open_records(), 0u);
  EXPECT_EQ(fed, closer.records_emitted() + closer.shed_records());
}

// Restore path: an imported fragment that gets no further traffic must still
// close once the watermark passes it (import arms the expiry index).
TEST(LiveCloserTest, ImportedFragmentClosesOnWatermarkAlone) {
  LiveCloser closer(2 * kSec);
  LiveCloserState::OpenFragment fragment;
  fragment.id = "R";
  fragment.last_time = 5 * kSec;
  fragment.records = {Rec("R", 4 * kSec), Rec("R", 5 * kSec)};
  closer.ImportFragment(std::move(fragment));
  closer.SetNextFragment("R", 3);
  EXPECT_EQ(closer.expiry_candidates(), 1u);

  std::vector<Session> closed;
  closer.ObserveWatermark(7 * kSec - 1);
  closer.CloseExpired(&closed);
  EXPECT_TRUE(closed.empty());
  closer.ObserveWatermark(7 * kSec);
  closer.CloseExpired(&closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].id, "R");
  EXPECT_EQ(closed[0].fragment_index, 3u);
  EXPECT_EQ(closed[0].records.size(), 2u);
  EXPECT_EQ(closer.open_sessions(), 0u);
  EXPECT_EQ(closer.expiry_candidates(), 0u);
}

// Import over an open id replaces the fragment and keeps one candidate for
// it, re-armed at the imported last_time, even when that is earlier than the
// fragment it replaces.
TEST(LiveCloserTest, ImportOverAnOpenIdKeepsOneCandidate) {
  LiveCloser closer(2 * kSec);
  std::vector<Session> closed;
  closer.Feed(Rec("R", 9 * kSec), &closed);
  closer.Feed(Rec("Q", 9 * kSec), &closed);
  LiveCloserState::OpenFragment fragment;
  fragment.id = "R";
  fragment.last_time = 8 * kSec;
  fragment.records = {Rec("R", 8 * kSec)};
  closer.ImportFragment(std::move(fragment));
  EXPECT_EQ(closer.open_sessions(), 2u);
  EXPECT_EQ(closer.expiry_candidates(), 2u);
  closer.ObserveWatermark(10 * kSec);
  closer.CloseExpired(&closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].id, "R");
  ASSERT_EQ(closed[0].records.size(), 1u);
  EXPECT_EQ(closed[0].records[0].time, 8 * kSec);
  EXPECT_EQ(closer.expiry_candidates(), 1u);
}

// A Feed-time split keeps the expired fragment's candidate, which is already
// due: the next CloseExpired finds the new fragment through it even when a
// late record started that fragment below the candidate's key.
TEST(LiveCloserTest, SplitByALateRecordClosesOnTheNextCall) {
  LiveCloser closer(2 * kSec);
  std::vector<Session> closed;
  closer.Feed(Rec("S", 10 * kSec), &closed);
  closer.Feed(Rec("T", 20 * kSec), &closed);
  closer.Feed(Rec("S", 5 * kSec), &closed);  // Splits S; late and expired.
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].records[0].time, 10 * kSec);
  closer.CloseExpired(&closed);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[1].id, "S");
  EXPECT_EQ(closed[1].fragment_index, 1u);
  EXPECT_EQ(closed[1].records[0].time, 5 * kSec);
  EXPECT_EQ(closer.open_sessions(), 1u);
  EXPECT_EQ(closer.expiry_candidates(), 1u);
}

// Event times come off the wire and may be any int64. Expiry compares the
// idle gap without overflowing at either end of the range, under a finite
// window and under kNoIdleSplit, whose fragments close only at FlushAll.
TEST(LiveCloserTest, ExtremeTimesExpireWithoutOverflow) {
  constexpr EventTime kMin = std::numeric_limits<EventTime>::min();
  constexpr EventTime kMax = std::numeric_limits<EventTime>::max();
  const auto feed_extremes = [](LiveCloser* closer,
                                std::vector<Session>* closed) {
    closer->Feed(Rec("A", kMin), closed);
    closer->Feed(Rec("A", kMin + 1), closed);
    closer->Feed(Rec("B", kMax - 1), closed);
    closer->Feed(Rec("B", kMax), closed);
    closer->CloseExpired(closed);
  };

  LiveCloser windowed(5 * kSec);
  std::vector<Session> closed;
  feed_extremes(&windowed, &closed);
  // A is far behind the watermark (0, then kMax) at every step: each of its
  // records closes alone. B's records are one nanosecond apart, inside the
  // window, at the very top of the range.
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].id, "A");
  EXPECT_EQ(closed[0].records[0].time, kMin);
  EXPECT_EQ(closed[1].id, "A");
  EXPECT_EQ(closed[1].fragment_index, 1u);
  EXPECT_EQ(closed[1].records[0].time, kMin + 1);
  EXPECT_EQ(windowed.open_sessions(), 1u);
  windowed.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 3u);
  EXPECT_EQ(closed[2].id, "B");
  EXPECT_EQ(closed[2].records.size(), 2u);

  LiveCloser unbounded(LiveCloser::kNoIdleSplit);
  closed.clear();
  feed_extremes(&unbounded, &closed);
  EXPECT_TRUE(closed.empty());  // A gap of 2^64 - 2 ns is still no split.
  EXPECT_EQ(unbounded.open_sessions(), 2u);
  EXPECT_EQ(unbounded.expiry_visited(), 0u);
  unbounded.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 2u);
  for (const auto& s : closed) {
    EXPECT_EQ(s.fragment_index, 0u);
    EXPECT_EQ(s.records.size(), 2u);
  }
}

// CloseExpired costs O(expired), not O(open): with 10k fragments open and
// one falling due per watermark step, each call visits one candidate.
TEST(LiveCloserTest, CloseExpiredVisitsOnlyDueCandidates) {
  constexpr EventTime kMs = kNanosPerMilli;
  constexpr int kOpen = 10'000;
  LiveCloser closer(kOpen * kMs);
  std::vector<Session> closed;
  for (int i = 0; i < kOpen; ++i) {
    closer.Feed(Rec("S" + std::to_string(i), i * kMs), &closed);
  }
  closer.CloseExpired(&closed);
  ASSERT_TRUE(closed.empty());
  ASSERT_EQ(closer.expiry_visited(), 0u);
  for (int step = 0; step < 100; ++step) {
    closer.ObserveWatermark((kOpen + step) * kMs);
    closer.CloseExpired(&closed);
    ASSERT_EQ(closed.size(), static_cast<size_t>(step + 1));
    EXPECT_EQ(closed.back().id, "S" + std::to_string(step));
    EXPECT_EQ(closer.expiry_visited(), static_cast<uint64_t>(step + 1));
  }
  EXPECT_EQ(closer.open_sessions(), static_cast<size_t>(kOpen - 100));
}

// A fragment kept alive by renewed activity is re-armed lazily: its
// candidate is visited at most once per window of watermark progress, not
// once per record.
TEST(LiveCloserTest, RenewedActivityReArmsOncePerWindow) {
  LiveCloser closer(10 * kSec);
  std::vector<Session> closed;
  for (int t = 0; t < 100; ++t) {  // One record a second for 100 s.
    closer.Feed(Rec("S", t * kSec), &closed);
    closer.CloseExpired(&closed);
  }
  EXPECT_TRUE(closed.empty());
  EXPECT_LE(closer.expiry_visited(), 10u);
  EXPECT_EQ(closer.expiry_candidates(), 1u);
}

// Memory bound of the expiry index: one candidate per open fragment, however
// many distinct ids stream through, with shedding keeping the open set small
// and imports replacing open fragments.
TEST(LiveCloserTest, ExpiryIndexIsBoundedByOpenFragments) {
  LiveCloser closer(3600 * kSec);  // Nothing expires: only shedding bounds it.
  std::vector<Session> closed;
  size_t budget = 0;
  size_t max_candidates = 0;
  for (int i = 0; i < 200'000; ++i) {
    closer.Feed(Rec("id" + std::to_string(i), i), &closed);
    if (i == 1000) {
      budget = closer.open_bytes();
    }
    if (i % 97 == 96) {
      LiveCloserState::OpenFragment fragment;
      fragment.id = "id" + std::to_string(i);  // Open: replaced in place.
      fragment.last_time = i - 50;
      fragment.records = {Rec(fragment.id, i - 50)};
      closer.ImportFragment(std::move(fragment));
    }
    if (i % 64 == 0) {
      closer.CloseExpired(&closed);
      if (budget > 0) {
        closer.ShedOldestUntil(budget);
      }
    }
    ASSERT_EQ(closer.expiry_candidates(), closer.open_sessions()) << i;
    max_candidates = std::max(max_candidates, closer.expiry_candidates());
  }
  EXPECT_TRUE(closed.empty());
  EXPECT_GT(closer.shed_fragments(), 150'000u);
  EXPECT_LE(max_candidates, 1002u + 64u);
  closer.FlushAll(&closed);
  EXPECT_EQ(closer.expiry_candidates(), 0u);
}

// Differential check of the expiry index against the eager reference
// (CloseExpired after every record): random ids, out-of-order and late
// records, watermark jumps, random CloseExpired cadence, shedding, imports
// over open and new ids, and mid-stream FlushAll. After every CloseExpired no
// open fragment may be expired (exactness), and the canonical closed sets of
// the two runs must match.
TEST(LiveCloserTest, ExpiryIndexMatchesEagerReference) {
  constexpr EventTime kWindow = 2 * kSec;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    std::mt19937_64 rng(seed);
    const auto below = [&rng](uint64_t n) { return rng() % n; };
    LiveCloser lazy(kWindow);
    LiveCloser eager(kWindow);
    std::vector<Session> lazy_closed;
    std::vector<Session> eager_closed;
    const auto check_exact = [&] {
      lazy.VisitOpenFragments([&](const std::string& id, EventTime last_time,
                                  const std::vector<LogRecord>&) {
        EXPECT_GT(last_time + kWindow, lazy.watermark())
            << "seed " << seed << ": " << id << " expired but open";
      });
      ASSERT_EQ(lazy.expiry_candidates(), lazy.open_sessions());
    };
    // Shed, import and flush act on the open set, which only matches the
    // eager run's once both have closed what has expired.
    const auto sync = [&] {
      lazy.CloseExpired(&lazy_closed);
      eager.CloseExpired(&eager_closed);
      check_exact();
    };
    const uint64_t ids = 1 + below(300);
    EventTime now = 0;
    for (int op = 0; op < 4000; ++op) {
      const uint64_t dice = below(1000);
      if (dice < 900) {
        now += static_cast<EventTime>(below(kWindow / 40));
        EventTime t = now;
        if (below(10) == 0) {  // Late, sometimes past the window.
          t = std::max<EventTime>(
              0, t - static_cast<EventTime>(below(3 * kWindow)));
        }
        const LogRecord r = Rec("s" + std::to_string(below(ids)), t);
        lazy.Feed(r, &lazy_closed);
        eager.Feed(r, &eager_closed);
        eager.CloseExpired(&eager_closed);
        if (below(8) == 0) {
          lazy.CloseExpired(&lazy_closed);
          check_exact();
        }
      } else if (dice < 930) {
        now += static_cast<EventTime>(below(2 * kWindow));
        lazy.ObserveWatermark(now);
        eager.ObserveWatermark(now);
        eager.CloseExpired(&eager_closed);
      } else if (dice < 950) {
        sync();
        const size_t budget =
            static_cast<size_t>(below(lazy.open_bytes() + 1));
        EXPECT_EQ(lazy.ShedOldestUntil(budget), eager.ShedOldestUntil(budget));
      } else if (dice < 995) {
        sync();
        LiveCloserState::OpenFragment fragment;
        fragment.id = "s" + std::to_string(below(ids + 20));
        fragment.last_time = std::max<EventTime>(
            0, now - static_cast<EventTime>(below(kWindow + kWindow / 2)));
        for (uint64_t n = 1 + below(3); n > 0; --n) {
          fragment.records.push_back(
              Rec(fragment.id,
                  std::max<EventTime>(0, fragment.last_time -
                                             static_cast<EventTime>(
                                                 below(kSec)))));
        }
        fragment.records.back().time = fragment.last_time;
        lazy.ImportFragment(fragment);
        eager.ImportFragment(std::move(fragment));
        eager.CloseExpired(&eager_closed);
      } else {
        lazy.FlushAll(&lazy_closed);
        eager.FlushAll(&eager_closed);
      }
      ASSERT_EQ(lazy.expiry_candidates(), lazy.open_sessions());
    }
    lazy.CloseExpired(&lazy_closed);
    check_exact();
    lazy.FlushAll(&lazy_closed);
    eager.FlushAll(&eager_closed);
    EXPECT_EQ(lazy.sessions_emitted(), eager.sessions_emitted());
    EXPECT_EQ(lazy.shed_records(), eager.shed_records());
    EXPECT_EQ(Canonical(std::move(lazy_closed)),
              Canonical(std::move(eager_closed)))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace ts
