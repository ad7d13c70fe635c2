// Tests for the tiered session store (src/store): cold segment format
// round-trips, the damage-tolerance property (every-byte corruption and
// every-boundary truncation degrade to a cold miss — never a crash, never a
// wrong answer), restart re-discovery, byte-identity of tiered query serving
// against an unbounded reference store (also when a session sits in both
// tiers), reads racing eviction, and the RANGE response-budget regression
// over a 100k-session cold tier.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_store.h"
#include "src/common/time_util.h"
#include "src/query/query_client.h"
#include "src/query/query_protocol.h"
#include "src/query/query_server.h"
#include "src/store/cold_segment.h"
#include "src/store/cold_tier.h"
#include "src/store/tiered_digest.h"

namespace ts {
namespace {

Session MakeSession(const std::string& id, EventTime start_ns,
                    EventTime end_ns, std::vector<uint32_t> services,
                    uint32_t fragment = 0, size_t payload_bytes = 8) {
  Session s;
  s.id = id;
  s.fragment_index = fragment;
  EventTime t = start_ns;
  const EventTime step =
      services.empty()
          ? 0
          : (end_ns - start_ns) / static_cast<EventTime>(services.size() + 1);
  for (uint32_t svc : services) {
    LogRecord r;
    r.time = t;
    r.session_id = id;
    r.txn_id = *TxnId::Parse("1-2");
    r.service = svc;
    r.host = svc;
    r.kind = EventKind::kAnnotation;
    r.payload = "x=" + std::string(payload_bytes, 'a');
    s.records.push_back(std::move(r));
    t += step;
  }
  if (s.records.size() >= 2) {
    s.records.back().time = end_ns;
  }
  s.first_epoch = static_cast<Epoch>(start_ns / kNanosPerSecond);
  s.last_epoch = static_cast<Epoch>(end_ns / kNanosPerSecond);
  s.closed_at = s.last_epoch;
  return s;
}

// Fresh scratch directory per test; removed (best effort) on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + "ts_cold_" + tag + "_" +
              std::to_string(::getpid())) {
    Wipe();
  }
  ~ScratchDir() { Wipe(); }
  const std::string& path() const { return path_; }

 private:
  void Wipe() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      ADD_FAILURE() << "cannot wipe " << path_;
    }
  }
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<Session> MakeBatch() {
  return {
      MakeSession("ALPHA", 0, kNanosPerSecond, {1, 2, 3}),
      MakeSession("BETA", kNanosPerMilli, 2 * kNanosPerSecond, {2, 4}),
      MakeSession("BETA", 3 * kNanosPerSecond, 4 * kNanosPerSecond, {5}, 1),
      MakeSession("GAMMA", 500, 600, {7, 7, 2}),
  };
}

TEST(ColdTierSegment, WriteLoadReadRoundTrip) {
  ScratchDir dir("seg_rt");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0777), 0);
  const std::string path = dir.path() + "/cold-0000000000.seg";
  const std::vector<Session> batch = MakeBatch();

  ColdSegmentIndex written;
  size_t file_bytes = 0;
  ASSERT_TRUE(WriteColdSegment(path, batch, /*first_order=*/17, &written,
                               &file_bytes));
  EXPECT_GT(file_bytes, kColdSegmentTrailerBytes);
  EXPECT_EQ(written.count, batch.size());
  EXPECT_EQ(written.first_order, 17u);
  EXPECT_EQ(written.last_order, 17u + batch.size() - 1);

  ColdSegmentIndex index;
  size_t loaded_bytes = 0;
  ASSERT_TRUE(LoadColdSegmentIndex(path, &index, &loaded_bytes));
  EXPECT_EQ(loaded_bytes, file_bytes);
  ASSERT_EQ(index.entries.size(), batch.size());
  EXPECT_EQ(index.min_time, EventTime{0});
  // BETA fragment 1 has a single record at its start time, so the segment's
  // max extent is that record, not the nominal end.
  EXPECT_EQ(index.max_time, 3 * kNanosPerSecond);

  // Per-service summary counts sessions, not records ("GAMMA" touches 7
  // twice but counts once).
  const std::vector<std::pair<uint32_t, uint64_t>> expected_counts = {
      {1, 1}, {2, 3}, {3, 1}, {4, 1}, {5, 1}, {7, 1}};
  EXPECT_EQ(index.service_counts, expected_counts);

  for (size_t i = 0; i < batch.size(); ++i) {
    const ColdSegmentEntry& e = index.entries[i];
    EXPECT_EQ(e.id, batch[i].id);
    EXPECT_EQ(e.fragment, batch[i].fragment_index);
    EXPECT_EQ(e.min_time, batch[i].MinTime());
    EXPECT_EQ(e.max_time, batch[i].MaxTime());
    Session decoded;
    ASSERT_TRUE(ReadColdSession(path, e.offset, e.length, &decoded)) << i;
    EXPECT_EQ(EncodeSessionBlock(decoded), EncodeSessionBlock(batch[i])) << i;
  }
}

TEST(ColdTierSegment, TruncationAtEveryByteFailsIndexValidation) {
  ScratchDir dir("seg_trunc");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0777), 0);
  const std::string path = dir.path() + "/cold-0000000000.seg";
  ColdSegmentIndex index;
  size_t file_bytes = 0;
  ASSERT_TRUE(WriteColdSegment(path, MakeBatch(), 0, &index, &file_bytes));
  const std::string bytes = ReadFile(path);
  ASSERT_EQ(bytes.size(), file_bytes);

  const std::string probe = dir.path() + "/cold-0000000001.seg";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(probe, bytes.substr(0, len));
    ColdSegmentIndex damaged;
    size_t damaged_bytes = 0;
    EXPECT_FALSE(LoadColdSegmentIndex(probe, &damaged, &damaged_bytes))
        << "prefix of " << len << " bytes validated";
  }
}

TEST(ColdTierSegment, EveryByteCorruptionDegradesToMissNeverWrongAnswer) {
  ScratchDir dir("seg_flip");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0777), 0);
  const std::string path = dir.path() + "/cold-0000000000.seg";
  const std::vector<Session> batch = MakeBatch();
  ColdSegmentIndex index;
  size_t file_bytes = 0;
  ASSERT_TRUE(WriteColdSegment(path, batch, 0, &index, &file_bytes));
  std::string bytes = ReadFile(path);

  // What a correct answer looks like, keyed by (id, fragment).
  std::map<std::pair<std::string, uint32_t>, std::string> canonical;
  for (const auto& s : batch) {
    canonical[{s.id, s.fragment_index}] = EncodeSessionBlock(s);
  }

  const std::string probe = dir.path() + "/cold-0000000001.seg";
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5A);
    WriteFile(probe, bytes);
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5A);  // Restore.

    // The contract: the reader either rejects the damage (index validation
    // or frame CRC) or — if the flip misses everything it reads — returns
    // bytes identical to the original. Never garbage, never a crash.
    ColdSegmentIndex damaged;
    size_t damaged_bytes = 0;
    if (!LoadColdSegmentIndex(probe, &damaged, &damaged_bytes)) {
      continue;  // Degraded to a whole-segment miss.
    }
    for (const auto& e : damaged.entries) {
      Session decoded;
      if (!ReadColdSession(probe, e.offset, e.length, &decoded)) {
        continue;  // Degraded to a per-session miss.
      }
      const auto it = canonical.find({decoded.id, decoded.fragment_index});
      ASSERT_NE(it, canonical.end())
          << "flip at byte " << pos << " surfaced an unknown session";
      EXPECT_EQ(EncodeSessionBlock(decoded), it->second)
          << "flip at byte " << pos << " surfaced wrong bytes";
    }
  }

  // The restores were exact: the pristine file still validates.
  WriteFile(probe, bytes);
  ColdSegmentIndex pristine;
  size_t pristine_bytes = 0;
  EXPECT_TRUE(LoadColdSegmentIndex(probe, &pristine, &pristine_bytes));
}

TEST(ColdTierRestart, RediscoversSegmentsAndDedupes) {
  ScratchDir dir("restart");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 1;  // Every append cuts a segment quickly.

  std::vector<Session> spilled;
  for (int i = 0; i < 10; ++i) {
    spilled.push_back(MakeSession("R" + std::to_string(i),
                                  static_cast<EventTime>(i) * kNanosPerMilli,
                                  static_cast<EventTime>(i + 1) * kNanosPerMilli,
                                  {static_cast<uint32_t>(i % 3)}));
  }
  {
    ColdTier tier(options);
    ASSERT_TRUE(tier.Start());
    for (const auto& s : spilled) {
      tier.Append(Session(s));
    }
    ASSERT_TRUE(tier.FlushPending());
    const auto stats = tier.stats();
    EXPECT_EQ(stats.sessions, spilled.size());
    EXPECT_EQ(stats.pending, 0u);
    EXPECT_GE(stats.segments, 1u);
  }

  ColdTier reloaded(options);
  ASSERT_TRUE(reloaded.Start());
  const auto stats = reloaded.stats();
  EXPECT_EQ(stats.sessions, spilled.size());
  EXPECT_GE(stats.segments, 1u);
  EXPECT_EQ(stats.corrupt, 0u);
  for (const auto& s : spilled) {
    EXPECT_TRUE(reloaded.Contains(s.id, s.fragment_index));
    const auto got = reloaded.Get(s.id, s.fragment_index);
    ASSERT_TRUE(got.has_value()) << s.id;
    EXPECT_EQ(EncodeSessionBlock(*got), EncodeSessionBlock(s));
  }
  // Re-spill after restart (the replay path) dedupes against disk.
  reloaded.Append(Session(spilled[3]));
  EXPECT_EQ(reloaded.stats().dedup_dropped, 1u);
  EXPECT_EQ(reloaded.stats().sessions, spilled.size());

  std::vector<std::string> ids;
  reloaded.ForEachId([&](const std::string& id) { ids.push_back(id); });
  EXPECT_EQ(ids.size(), spilled.size());  // Distinct ids, ascending.
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

// Server + run thread + optional cold tier, torn down in reverse order.
class TieredServerFixture {
 public:
  TieredServerFixture(QueryServerOptions options,
                      SessionStore::Options store_options,
                      std::shared_ptr<ColdTier> cold) {
    store = std::make_shared<SessionStore>(store_options);
    metrics = std::make_shared<MetricsRegistry>();
    server = std::make_unique<QueryServer>(options, store, metrics);
    if (cold != nullptr) {
      this->cold = cold;
      server->SetColdTier(cold);
      store->SetEvictionSink(
          [cold](Session&& s) { cold->Append(std::move(s)); },
          [cold] { cold->WaitForSpace(); });
    }
    EXPECT_TRUE(server->Start());
    thread = std::thread([this] { server->Run(); });
  }
  ~TieredServerFixture() {
    server->Stop();
    thread.join();
  }

  QueryClient Client() {
    QueryClientOptions options;
    options.port = server->port();
    QueryClient client(options);
    EXPECT_TRUE(client.Connect());
    return client;
  }

  std::shared_ptr<SessionStore> store;
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<ColdTier> cold;
  std::unique_ptr<QueryServer> server;
  std::thread thread;
};

// Raw blocking socket: exact response bytes, no client-side decoding.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    QueryClientOptions options;
    options.port = port;
    client_ = std::make_unique<QueryClient>(options);
    EXPECT_TRUE(client_->Connect());
  }

  std::string Request(const std::string& line) {
    QueryResponse response;
    EXPECT_TRUE(client_->Execute(line, &response)) << line;
    EXPECT_TRUE(response.ok) << line << ": " << response.error;
    std::string bytes;
    for (const auto& s : response.sessions) {
      AppendSessionBlock(s, &bytes);
    }
    for (const auto& [service, count] : response.top) {
      bytes += "TOP " + std::to_string(service) + " " +
               std::to_string(count) + "\n";
    }
    if (response.truncated) {
      bytes += "#TRUNCATED\n";
    }
    bytes += FormatOk(response.count) + "\n";
    return bytes;
  }

 private:
  std::unique_ptr<QueryClient> client_;
};

TEST(ColdTierServer, TieredAnswersAreByteIdenticalToUnboundedReference) {
  // Reference: everything stays hot. Tiered: a hot window ~1/5 the data set,
  // the rest spilled cold (part durable, part still pending). Every verb must
  // serve identical bytes from either server.
  std::vector<Session> sessions;
  for (int i = 0; i < 240; ++i) {
    // Every third session shares a min_time with its neighbors, so the RANGE
    // merge's tie-break (cold before hot on equal start, eviction order among
    // cold) is exercised, not just distinct keys.
    const EventTime start = static_cast<EventTime>(i / 3) * kNanosPerMilli;
    sessions.push_back(MakeSession(
        "S" + std::to_string(i), start, start + kNanosPerMilli,
        {static_cast<uint32_t>(i % 7), 7 + static_cast<uint32_t>(i % 5)}));
    if (i % 10 == 0) {
      sessions.push_back(MakeSession("S" + std::to_string(i), start + 100,
                                     start + kNanosPerMilli, {3}, 1));
    }
  }

  ScratchDir dir("identity");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 1u << 20;  // Spill only on flush.
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  SessionStore::Options reference_store;
  reference_store.max_bytes = 1ull << 30;
  TieredServerFixture reference({}, reference_store, nullptr);
  SessionStore::Options tiered_store;
  tiered_store.max_bytes = 24u << 10;
  TieredServerFixture tiered({}, tiered_store, cold);

  for (size_t i = 0; i < sessions.size(); ++i) {
    reference.store->Insert(Session(sessions[i]));
    tiered.store->Insert(Session(sessions[i]));
    if (i == sessions.size() / 2) {
      ASSERT_TRUE(cold->FlushPending());  // First half durable on disk...
    }
  }
  ASSERT_GT(tiered.store->stats().evicted, 0u);
  ASSERT_GE(cold->stats().segments, 1u);
  ASSERT_GT(cold->stats().pending, 0u);  // ...second half still pending.

  RawConn ref_conn(reference.server->port());
  RawConn tier_conn(tiered.server->port());
  std::vector<std::string> requests = {
      "RANGE 0 999999999999 1000",
      "RANGE 20000000 50000000 97",
      "RANGE 35000000 35000001 1000",
      "TOPK 12",
      "FRAGMENTS S0",
      "FRAGMENTS S230",
      "GET MISSING",
  };
  for (int i = 0; i < 240; ++i) {
    requests.push_back("GET S" + std::to_string(i) + " 0");
  }
  for (uint32_t s = 0; s < 12; ++s) {
    requests.push_back("SERVICE " + std::to_string(s) + " 1000");
    requests.push_back("SERVICE " + std::to_string(s) + " 17");
  }
  for (const auto& request : requests) {
    EXPECT_EQ(tier_conn.Request(request), ref_conn.Request(request))
        << request;
  }
  EXPECT_GT(cold->stats().hits, 0u);

  // After a full flush (pending drained to disk) the answers must not move.
  ASSERT_TRUE(cold->FlushPending());
  EXPECT_EQ(cold->stats().pending, 0u);
  for (const auto& request : requests) {
    EXPECT_EQ(tier_conn.Request(request), ref_conn.Request(request))
        << request << " (after flush)";
  }

  // The tiered digest equals the unbounded store's chained digest.
  std::set<std::string> ids;
  reference.store->ForEachSession(
      [&](const Session& s) { ids.insert(s.id); });
  EXPECT_EQ(TieredDigest(*tiered.store, *cold, ids),
            ChainedStoreDigest(*reference.store, ids));
}

TEST(ColdTierServer, DamagedSegmentDegradesToColdMissHotStillServes) {
  ScratchDir dir("damage");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 1u << 20;
  const Session cold_session =
      MakeSession("COLD1", 0, kNanosPerMilli, {1, 2});
  const Session cold_intact =
      MakeSession("COLD2", kNanosPerMilli, 2 * kNanosPerMilli, {3});
  {
    ColdTier writer(options);
    ASSERT_TRUE(writer.Start());
    writer.Append(Session(cold_session));
    writer.Append(Session(cold_intact));
    ASSERT_TRUE(writer.FlushPending());
  }
  // Locate COLD1's frame via the index and damage one payload byte.
  const std::string path = dir.path() + "/cold-0000000000.seg";
  ColdSegmentIndex index;
  size_t file_bytes = 0;
  ASSERT_TRUE(LoadColdSegmentIndex(path, &index, &file_bytes));
  ASSERT_EQ(index.entries.size(), 2u);
  ASSERT_EQ(index.entries[0].id, "COLD1");
  std::string bytes = ReadFile(path);
  const size_t victim = index.entries[0].offset + 12;  // Inside the payload.
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0xFF);
  WriteFile(path, bytes);

  auto cold = std::make_shared<ColdTier>(options);
  ASSERT_TRUE(cold->Start());
  EXPECT_EQ(cold->stats().segments, 1u);  // Index intact: segment loads.

  TieredServerFixture tiered({}, {}, cold);
  tiered.store->Insert(MakeSession("HOT1", 0, kNanosPerMilli, {9}));

  auto client = tiered.Client();
  auto damaged = client.Get("COLD1");
  EXPECT_TRUE(damaged.ok);  // A cold miss, not an error, never a crash.
  EXPECT_TRUE(damaged.sessions.empty());
  auto intact = client.Get("COLD2");
  EXPECT_TRUE(intact.ok);
  ASSERT_EQ(intact.sessions.size(), 1u);
  EXPECT_EQ(EncodeSessionBlock(intact.sessions[0]),
            EncodeSessionBlock(cold_intact));
  auto hot = client.Get("HOT1");
  EXPECT_TRUE(hot.ok);
  ASSERT_EQ(hot.sessions.size(), 1u);  // Hot serving is unaffected.

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok);
  int64_t corrupt = -1;
  for (const auto& [name, value] : stats.stats) {
    if (name == "store_cold_corrupt") {
      corrupt = value;
    }
  }
  EXPECT_GE(corrupt, 1);  // The damage is visible in accounting.
}

TEST(ColdTierServer, WholeSegmentCorruptionIsSkippedAtStart) {
  ScratchDir dir("damage_idx");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 1u << 20;
  {
    ColdTier writer(options);
    ASSERT_TRUE(writer.Start());
    writer.Append(MakeSession("GONE", 0, kNanosPerMilli, {1}));
    ASSERT_TRUE(writer.FlushPending());
  }
  const std::string path = dir.path() + "/cold-0000000000.seg";
  std::string bytes = ReadFile(path);
  bytes[bytes.size() - 1] ^= 0x01;  // Break the trailer magic.
  WriteFile(path, bytes);

  ColdTier reloaded(options);
  ASSERT_TRUE(reloaded.Start());  // Damage is never fatal.
  EXPECT_EQ(reloaded.stats().segments, 0u);
  EXPECT_EQ(reloaded.stats().corrupt, 1u);
  EXPECT_FALSE(reloaded.Get("GONE", 0).has_value());
  // The damaged file's name stays burned: new spills pick a fresh sequence.
  reloaded.Append(MakeSession("NEW", 0, kNanosPerMilli, {1}));
  ASSERT_TRUE(reloaded.FlushPending());
  EXPECT_EQ(reloaded.stats().segments, 1u);
  EXPECT_TRUE(reloaded.Get("NEW", 0).has_value());
}

TEST(ColdTierStress, ConcurrentAppendQueryFlushIsCoherent) {
  ScratchDir dir("stress");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 8u << 10;  // Many small segments.
  ColdTier tier(options);
  ASSERT_TRUE(tier.Start());

  constexpr int kSessions = 600;
  std::thread appender([&] {
    for (int i = 0; i < kSessions; ++i) {
      tier.Append(MakeSession("X" + std::to_string(i),
                              static_cast<EventTime>(i) * 1000,
                              static_cast<EventTime>(i) * 1000 + 500,
                              {static_cast<uint32_t>(i % 5)}));
    }
  });
  std::thread flusher([&] {
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(tier.FlushPending());
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kSessions; ++i) {
        const std::string id = "X" + std::to_string((i * 7 + r) % kSessions);
        const auto got = tier.Get(id, 0);
        if (got.has_value()) {
          EXPECT_EQ(got->id, id);
        }
        tier.CollectRange(0, 1'000'000, 10);
        tier.ServiceCounts();
      }
    });
  }
  appender.join();
  flusher.join();
  for (auto& t : readers) {
    t.join();
  }
  ASSERT_TRUE(tier.FlushPending());
  const auto stats = tier.stats();
  EXPECT_EQ(stats.sessions, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.write_failures, 0u);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(tier.Contains("X" + std::to_string(i), 0)) << i;
  }
}

TEST(ColdTierStress, OversizedSegmentTargetIsClampedAndStillSpills) {
  // Regression: a segment target larger than the pending bound used to leave
  // the spill thread asleep (WantSpill never fired) while backpressure
  // blocked forever on a backlog only the spill thread could drain. The
  // target is clamped to max_pending_bytes, so the cycle cannot arise.
  ScratchDir dir("clamp");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 64u << 20;  // Far above the pending bound.
  options.max_pending_bytes = 8u << 10;
  ColdTier tier(options);
  ASSERT_TRUE(tier.Start());

  constexpr int kSessions = 40;  // ~1 KiB each: several times the bound.
  for (int i = 0; i < kSessions; ++i) {
    tier.Append(MakeSession("B" + std::to_string(i),
                            static_cast<EventTime>(i) * 1000,
                            static_cast<EventTime>(i) * 1000 + 500, {1}, 0,
                            /*payload_bytes=*/1024));
    tier.WaitForSpace();  // Must always return: the spill thread drains.
  }
  EXPECT_GE(tier.stats().segments, 1u);  // Spill fired without any flush.
  ASSERT_TRUE(tier.FlushPending());
  EXPECT_EQ(tier.stats().sessions, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(tier.stats().pending, 0u);
}

TEST(ColdTierStress, EvictionHandoffNeverLeavesASessionInvisible) {
  // Regression: victims used to leave the hot window before entering the
  // cold tier, so a concurrent GET could find an inserted session in neither
  // tier. The sink now runs inside the store's eviction critical section:
  // from the moment Insert returns, the session is continuously visible.
  ScratchDir dir("handoff");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 8u << 10;
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  SessionStore::Options store_options;
  store_options.max_bytes = 4u << 10;  // Almost every insert evicts.
  SessionStore store(store_options);
  store.SetEvictionSink([&](Session&& s) { cold->Append(std::move(s)); },
                        [&] { cold->WaitForSpace(); });

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 250;
  std::atomic<int> published[kWriters] = {};
  std::atomic<bool> stop_probing{false};
  auto id_of = [](int w, int i) {
    return "W" + std::to_string(w) + "-" + std::to_string(i);
  };

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        store.Insert(MakeSession(id_of(w, i),
                                 static_cast<EventTime>(i) * 1000,
                                 static_cast<EventTime>(i) * 1000 + 500,
                                 {static_cast<uint32_t>(w)}));
        published[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  std::thread prober([&] {
    uint64_t step = 0;
    while (!stop_probing.load(std::memory_order_acquire)) {
      for (int w = 0; w < kWriters; ++w) {
        const int n = published[w].load(std::memory_order_acquire);
        if (n == 0) {
          continue;
        }
        const int i = static_cast<int>(step * 7 + static_cast<uint64_t>(w)) % n;
        const std::string id = id_of(w, i);
        if (!store.GetById(id, 0).has_value() &&
            !cold->Get(id, 0).has_value()) {
          ADD_FAILURE() << id << " visible in neither tier";
          return;
        }
      }
      ++step;
    }
  });
  for (auto& t : writers) {
    t.join();
  }
  stop_probing.store(true, std::memory_order_release);
  prober.join();

  // Nothing was lost: every session ended in exactly the hot ∪ cold union.
  ASSERT_TRUE(cold->FlushPending());
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      EXPECT_TRUE(store.Contains(id_of(w, i), 0) ||
                  cold->Contains(id_of(w, i), 0))
          << id_of(w, i);
    }
  }
}

TEST(ColdTierStress, AbandonRacingAnActiveSpillStaysCrashEquivalent) {
  // Regression: Abandon() concurrent with an in-flight segment write used to
  // let the spill thread pop an already-cleared pending queue (UB) and
  // publish a segment after the simulated kill instant. Now the write is
  // discarded: whatever survives on disk must be exactly re-discoverable.
  for (int round = 0; round < 8; ++round) {
    ScratchDir dir("abandon" + std::to_string(round));
    ColdTierOptions options;
    options.dir = dir.path();
    options.segment_target_bytes = 1;  // Spill continuously, tiny segments.

    std::map<std::string, std::string> canonical;
    {
      ColdTier tier(options);
      ASSERT_TRUE(tier.Start());
      for (int i = 0; i < 60; ++i) {
        Session s = MakeSession("A" + std::to_string(i),
                                static_cast<EventTime>(i) * 1000,
                                static_cast<EventTime>(i) * 1000 + 500,
                                {static_cast<uint32_t>(i % 3)});
        canonical[s.id] = EncodeSessionBlock(s);
        tier.Append(std::move(s));
        if (i == 29 && round % 2 == 1) {
          // Odd rounds guarantee durable segments before the race, so the
          // reload verification below always has sessions to check; even
          // rounds leave the Abandon/spill interleaving fully open.
          ASSERT_TRUE(tier.FlushPending());
        }
      }
      tier.Abandon();  // Lands mid-write for at least some rounds.
      EXPECT_EQ(tier.stats().pending, 0u);
    }

    // The kill instant left only whole, valid segments: a restart loads them
    // all and serves back byte-identical sessions, nothing corrupt.
    ColdTier reloaded(options);
    ASSERT_TRUE(reloaded.Start());
    EXPECT_EQ(reloaded.stats().corrupt, 0u);
    EXPECT_LE(reloaded.stats().sessions, canonical.size());
    if (round % 2 == 1) {
      EXPECT_GE(reloaded.stats().sessions, 30u);
    }
    // ForEachId holds the tier lock across the callback — collect first,
    // read after, or the Get() reentry deadlocks.
    std::vector<std::string> ids;
    reloaded.ForEachId([&](const std::string& id) { ids.push_back(id); });
    for (const auto& id : ids) {
      const auto got = reloaded.Get(id, 0);
      ASSERT_TRUE(got.has_value()) << id;
      EXPECT_EQ(EncodeSessionBlock(*got), canonical.at(id)) << id;
    }
  }
}

TEST(ColdTierServer, TopkDoesNotDoubleCountPostRestoreOverlap) {
  // Post-restore a session can be hot AND durable cold at once (the snapshot
  // restored it hot while a pre-crash flush made it cold). TOPK must count
  // it once per touched service, like the unbounded reference would.
  ScratchDir dir("topk_overlap");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 1u << 20;
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  const Session both = MakeSession("BOTH", 0, kNanosPerMilli, {1, 2});
  const Session hot_only =
      MakeSession("HOT", kNanosPerMilli, 2 * kNanosPerMilli, {1});
  const Session cold_only =
      MakeSession("COLDONLY", 2 * kNanosPerMilli, 3 * kNanosPerMilli, {2});
  cold->Append(Session(both));
  cold->Append(Session(cold_only));
  ASSERT_TRUE(cold->FlushPending());

  TieredServerFixture tiered({}, {}, cold);  // Hot budget: nothing evicts.
  tiered.store->Insert(Session(both));  // "Restored" copy of a cold session.
  tiered.store->Insert(Session(hot_only));

  auto client = tiered.Client();
  QueryResponse response;
  ASSERT_TRUE(client.Execute("TOPK 10", &response));
  ASSERT_TRUE(response.ok) << response.error;
  const std::vector<std::pair<uint32_t, uint64_t>> expected = {{1, 2}, {2, 2}};
  EXPECT_EQ(response.top, expected);  // Not {1,3},{2,3}: BOTH counted once.
}

TEST(ColdTierServer, EveryVerbServesAPostRestoreOverlapOnceAsTheHotCopy) {
  // Post-restore a session can be hot AND durable cold at once. GET,
  // FRAGMENTS, SERVICE and RANGE must each serve it exactly once, as the hot
  // copy, with the bytes of an unbounded store that holds each session once.
  // The cold twin carries a different payload, so serving it would show.
  ScratchDir dir("overlap");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 1u << 20;
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  const EventTime ms = kNanosPerMilli;
  const Session both_hot = MakeSession("BOTH", ms, 2 * ms, {1, 2}, 0, 16);
  const Session both_cold = MakeSession("BOTH", ms, 2 * ms, {1, 2}, 0, 4);
  const std::vector<Session> cold_only = {
      MakeSession("C0", 0, ms, {1}),
      MakeSession("C2", 2 * ms, 3 * ms, {2}),
      MakeSession("BOTH", 5 * ms, 6 * ms, {1}, 1),
  };
  const std::vector<Session> hot_only = {
      MakeSession("BOTH", 6 * ms, 7 * ms, {2}, 2),
      MakeSession("H2", 2 * ms, 4 * ms, {2}),  // Ties C2: cold goes first.
      MakeSession("H1", 3 * ms, 4 * ms, {1}),
  };
  // Spill order: C0, the twin (tied on start time with its hot copy, so
  // RANGE meets the cold one first), C2, BOTH/1.
  cold->Append(Session(cold_only[0]));
  cold->Append(Session(both_cold));
  cold->Append(Session(cold_only[1]));
  cold->Append(Session(cold_only[2]));
  ASSERT_TRUE(cold->FlushPending());

  TieredServerFixture tiered({}, {}, cold);  // Hot budget: nothing evicts.
  tiered.store->Insert(Session(both_hot));   // The restored hot copy.
  for (const auto& s : hot_only) {
    tiered.store->Insert(Session(s));
  }
  ASSERT_TRUE(tiered.store->Contains("BOTH", 0));
  ASSERT_TRUE(cold->Contains("BOTH", 0));

  SessionStore::Options unbounded;
  unbounded.max_bytes = 1ull << 30;
  TieredServerFixture reference({}, unbounded, nullptr);
  for (const auto& s : cold_only) {
    reference.store->Insert(Session(s));
  }
  reference.store->Insert(Session(both_hot));
  for (const auto& s : hot_only) {
    reference.store->Insert(Session(s));
  }

  const std::vector<std::string> requests = {
      "GET BOTH 0",         "FRAGMENTS BOTH",          "SERVICE 1 1000",
      "SERVICE 2 1000",     "SERVICE 1 3",             "SERVICE 1 2",
      "RANGE 0 999999999 1000", "RANGE 0 999999999 3", "RANGE 1000000 1000001 10",
  };
  RawConn ref_conn(reference.server->port());
  RawConn tier_conn(tiered.server->port());
  auto client = tiered.Client();
  const std::string hot_block = EncodeSessionBlock(both_hot);
  for (const auto& request : requests) {
    EXPECT_EQ(tier_conn.Request(request), ref_conn.Request(request))
        << request;
    QueryResponse response;
    ASSERT_TRUE(client.Execute(request, &response)) << request;
    ASSERT_TRUE(response.ok) << request << ": " << response.error;
    int copies = 0;
    for (const auto& s : response.sessions) {
      if (s.id == "BOTH" && s.fragment_index == 0) {
        ++copies;
        EXPECT_EQ(EncodeSessionBlock(s), hot_block) << request;
      }
    }
    EXPECT_EQ(copies, 1) << request;
  }
}

TEST(ColdTierStress, ReadersDuringEvictionNeverRepeatOrLoseAFragment) {
  // Writers insert into a budgeted store that evicts on nearly every insert
  // while a reader queries SERVICE, RANGE and FRAGMENTS through the server.
  // No reply may hold an (id, fragment) twice, and FRAGMENTS must return
  // every fragment of its id inserted before the request was sent.
  ScratchDir dir("readers");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 8u << 10;  // Many small segments.
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());
  SessionStore::Options store_options;
  store_options.max_bytes = 8u << 10;
  TieredServerFixture tiered({}, store_options, cold);

  constexpr int kWriters = 2;
  constexpr int kFragments = 3;
  constexpr int kRounds = 300;
  constexpr int kPerRound = 10;
  // published[w] == n: writer w has inserted its first n sessions, fragment
  // f of its id k being session k * kFragments + f. Each writer stays at
  // most kPerRound sessions ahead of the reader's round, so the writes are
  // spread over the whole read loop and every round races eviction.
  std::atomic<int> published[kWriters] = {};
  std::atomic<int> reader_round{-1};
  std::atomic<bool> stop{false};
  auto id_of = [](int w, int k) {
    return "W" + std::to_string(w) + "-" + std::to_string(k);
  };
  std::vector<std::thread> writers;
  struct StopWriters {  // However the read loop ends.
    std::atomic<bool>& stop;
    std::vector<std::thread>& writers;
    ~StopWriters() {
      stop.store(true);
      for (auto& t : writers) {
        t.join();
      }
    }
  } stop_writers{stop, writers};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int n = 0; n < kRounds * kPerRound; ++n) {
        while (n >= (reader_round.load() + 1) * kPerRound) {
          if (stop.load()) {
            return;
          }
          std::this_thread::yield();
        }
        const int k = n / kFragments;
        const auto start = static_cast<EventTime>(n) * kNanosPerMilli;
        tiered.store->Insert(MakeSession(
            id_of(w, k), start, start + kNanosPerMilli / 2,
            {static_cast<uint32_t>(w), 10 + static_cast<uint32_t>(n % 4)},
            static_cast<uint32_t>(n % kFragments)));
        published[w].store(n + 1, std::memory_order_release);
      }
    });
  }

  auto client = tiered.Client();
  auto no_repeats = [](const QueryResponse& response,
                       const std::string& request) {
    std::set<std::pair<std::string, uint32_t>> seen;
    for (const auto& s : response.sessions) {
      EXPECT_TRUE(seen.emplace(s.id, s.fragment_index).second)
          << request << " repeats " << s.id << "/" << s.fragment_index;
    }
  };
  uint64_t fragments_checked = 0;
  for (int round = 0; round < kRounds; ++round) {
    reader_round.store(round);
    const int w = round % kWriters;
    const int n = published[w].load(std::memory_order_acquire);
    const EventTime recent =
        static_cast<EventTime>(std::max(0, n - 40)) * kNanosPerMilli;
    const std::vector<std::string> requests = {
        "SERVICE " + std::to_string(w) + " 50",
        "SERVICE " + std::to_string(10 + round % 4) + " 40",
        "RANGE 0 999999999999 60",
        "RANGE " + std::to_string(recent) + " 999999999999 80",
    };
    for (const auto& request : requests) {
      QueryResponse response;
      ASSERT_TRUE(client.Execute(request, &response)) << request;
      ASSERT_TRUE(response.ok) << request << ": " << response.error;
      no_repeats(response, request);
    }
    if (n == 0) {
      continue;
    }
    // An id whose fragments [0, expected) were all inserted before the
    // request went out: on even rounds one at the hot/cold boundary, on odd
    // rounds an older one.
    const int newest = (n - 1) / kFragments;
    const int k = round % 2 == 0 ? std::max(0, newest - round % 8)
                                 : (round * 7) % (newest + 1);
    const int expected = std::min(kFragments, n - k * kFragments);
    const std::string request = "FRAGMENTS " + id_of(w, k);
    QueryResponse response;
    ASSERT_TRUE(client.Execute(request, &response)) << request;
    ASSERT_TRUE(response.ok) << request << ": " << response.error;
    no_repeats(response, request);
    ASSERT_GE(response.sessions.size(), static_cast<size_t>(expected))
        << request;
    for (int f = 0; f < expected; ++f) {
      EXPECT_EQ(response.sessions[static_cast<size_t>(f)].fragment_index,
                static_cast<uint32_t>(f))
          << request;
    }
    ++fragments_checked;
  }
  EXPECT_GT(fragments_checked, 0u);
  EXPECT_GT(tiered.store->stats().evicted, 0u);
  EXPECT_GT(cold->stats().hits, 0u);
}

TEST(ColdTierRangeBudget, HundredThousandSessionColdTierStreamsWithinBudget) {
  // Satellite regression: RANGE over a big cold tier must stream candidates
  // under the response budget — reading only the frames it actually sends —
  // and answer #TRUNCATED, never materialize the whole matching set.
  ScratchDir dir("budget");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 1u << 20;
  cold_options.max_pending_bytes = 256u << 20;
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  constexpr size_t kCold = 100'000;
  for (size_t i = 0; i < kCold; ++i) {
    cold->Append(MakeSession("C" + std::to_string(i),
                             static_cast<EventTime>(i) * 1000,
                             static_cast<EventTime>(i) * 1000 + 500,
                             {static_cast<uint32_t>(i % 32)}, 0,
                             /*payload_bytes=*/4));
  }
  ASSERT_TRUE(cold->FlushPending());
  ASSERT_EQ(cold->stats().sessions, kCold);
  ASSERT_GE(cold->stats().segments, 2u);
  const uint64_t hits_before = cold->stats().hits;

  QueryServerOptions options;
  options.max_conn_buffer_bytes = 32u << 10;  // The response budget.
  TieredServerFixture tiered(options, {}, cold);
  auto client = tiered.Client();

  QueryResponse all;
  ASSERT_TRUE(client.Execute("RANGE 0 999999999999 100000", &all));
  ASSERT_TRUE(all.ok) << all.error;
  EXPECT_TRUE(all.truncated);  // 100k sessions >> 32 KiB budget.
  EXPECT_GE(all.count, 1u);
  EXPECT_LT(all.count, 2'000u);
  EXPECT_EQ(all.sessions.size(), all.count);
  for (size_t i = 0; i < all.sessions.size(); ++i) {
    // Time-ordered from the front of the tier.
    EXPECT_EQ(all.sessions[i].id, "C" + std::to_string(i));
  }
  // The budget bounded the frame reads too: only streamed sessions (plus at
  // most the one that tripped the budget) were ever materialized.
  EXPECT_LE(cold->stats().hits - hits_before, all.count + 1);

  QueryResponse limited;
  ASSERT_TRUE(client.Execute("RANGE 0 999999999999 40", &limited));
  ASSERT_TRUE(limited.ok) << limited.error;
  EXPECT_FALSE(limited.truncated);
  ASSERT_EQ(limited.sessions.size(), 40u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(limited.sessions[i].id, "C" + std::to_string(i));
  }

  // A narrow window deep inside the tier stays cheap: index-pruned, exact.
  QueryResponse window;
  ASSERT_TRUE(
      client.Execute("RANGE 50000000 50010000 1000", &window));
  ASSERT_TRUE(window.ok) << window.error;
  EXPECT_FALSE(window.truncated);
  ASSERT_EQ(window.sessions.size(), 10u);
  EXPECT_EQ(window.sessions[0].id, "C50000");
}

}  // namespace
}  // namespace ts
