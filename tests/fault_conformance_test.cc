// Crash/recovery conformance suite: the shipped live ingest path — LogServer
// over real TCP -> LiveNode (SocketIngestSource::PollBlock -> LivePipeline::
// FeedBlock, sharded -> SessionStore) — run under hundreds of seeded fault
// schedules, asserting the closed-session multiset digest and the chained
// store-query digest are byte-identical to a fault-free run, and that every
// archive record arrived exactly once (client records_in == archive size: no
// loss, no duplicates).
//
// Every schedule is a FaultPlan drawn from a seed; a failing run prints the
// seed and both plan texts, which replay the exact schedule (see
// docs/FAULT_TESTING.md). The exploratory lane reads TS_FAULT_SEED from the
// environment (CI passes $GITHUB_RUN_ID) and writes the failing plan to
// TS_FAULT_ARTIFACT so the run can be attached to a bug.
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/fault_plan.h"
#include "src/fault/scripted_injector.h"
#include "src/net/log_server.h"
#include "src/net/socket_ingest.h"
#include "src/node/live_node.h"
#include "tests/live_node_test_util.h"

namespace ts {
namespace {

uint64_t WireBytes(const std::vector<std::string>& lines) {
  uint64_t total = 0;
  for (const auto& l : lines) {
    total += l.size() + 1;
  }
  return total;
}

// One conformance run: serve `lines` through a fault-injected LogServer,
// consume through a LiveNode whose SocketIngestSource is fault-injected too,
// digest every session it closes.
RunResult RunOverFaultyTransport(
    std::shared_ptr<const std::vector<std::string>> lines,
    const FaultPlan& client_plan, const FaultPlan& server_plan,
    bool mine = false) {
  ScriptedInjector client_injector(client_plan);
  ScriptedInjector server_injector(server_plan);

  LogServerOptions server_options;
  server_options.fault_injector = &server_injector;
  LogServer server(server_options, lines);
  EXPECT_TRUE(server.Start());
  std::thread server_thread([&server] { server.Run(); });

  CloseDigest closes;
  LiveNodeOptions options = TestNodeOptions(server.port(), /*workers=*/2);
  options.ingest->attempt_limit = 0;  // The plan decides when connects work.
  options.ingest->fault_injector = &client_injector;
  options.pipeline.mine_templates = mine;
  LiveNode node(
      std::move(options),
      [&closes](const Session& s, size_t) { closes.Add(s); },
      /*log=*/nullptr);
  EXPECT_TRUE(node.Start());
  node.Run();
  node.Shutdown();
  server.Stop();
  server_thread.join();

  RunResult result;
  result.eos = !node.transport_failed();
  result.records_in = node.transport_stats().Snapshot().records_in;
  result.reconnects = node.transport_stats().Snapshot().reconnects;
  result.parse_failures = node.ingest_parse_failures();
  result.sessions = node.pipeline()->sessions_closed();
  result.session_digest = closes.xor_digest;
  result.store_digest = ChainedStoreDigest(*node.store(), closes.ids);
  const auto dict = node.pipeline()->TemplateSnapshot();
  result.templates = dict.size();
  result.template_digest = TemplateDictionaryDigest(dict);
  return result;
}

// One shared archive and fault-free baseline per suite: building them once
// keeps hundreds of schedules inside the suite's time budget. Free-text
// archives feed the template-mining lanes, with mining on in the baseline.
template <bool kFreeText>
class ArchiveSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    archive_ = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2, kFreeText);
    baseline_ = RunInMemory(*archive_, /*mine=*/kFreeText);
    ASSERT_GT(archive_->size(), 2'000u);
    ASSERT_GT(baseline_.sessions, 0u);
    ASSERT_EQ(baseline_.parse_failures, 0u);
    if (kFreeText) {
      ASSERT_GT(baseline_.templates, 0u);
    }
  }
  static void TearDownTestSuite() { archive_.reset(); }

  static const std::vector<std::string>& archive() { return *archive_; }
  static std::shared_ptr<const std::vector<std::string>> archive_ptr() {
    return archive_;
  }
  static const RunResult& baseline() { return baseline_; }

  // Runs one seeded pair of transport schedules and asserts full
  // conformance: graceful end, exactly-once delivery, zero parse failures,
  // identical digests (and, mining, an identical template dictionary).
  void CheckSeed(uint64_t seed, const std::string& profile) {
    FaultProfile resolved;
    ASSERT_TRUE(
        FaultPlan::ResolveProfile(profile, WireBytes(archive()), &resolved));
    // Independent schedules for the two sides of the connection; both derive
    // from `seed` so one number replays the pair.
    const FaultPlan client_plan =
        FaultPlan::FromSeed(seed * 2 + 1, profile, resolved);
    const FaultPlan server_plan =
        FaultPlan::FromSeed(seed * 2 + 2, profile, resolved);
    const std::string replay = std::string(kFreeText ? "mined " : "") +
                               "seed " + std::to_string(seed) +
                               " — replay with:\n--- client plan ---\n" +
                               client_plan.ToText() + "--- server plan ---\n" +
                               server_plan.ToText();

    const RunResult run = RunOverFaultyTransport(archive_ptr(), client_plan,
                                                 server_plan, kFreeText);
    ASSERT_TRUE(run.eos) << replay;
    EXPECT_EQ(run.records_in, archive().size()) << replay;
    EXPECT_EQ(run.parse_failures, 0u) << replay;
    EXPECT_EQ(run.sessions, baseline().sessions) << replay;
    EXPECT_EQ(run.session_digest, baseline().session_digest) << replay;
    EXPECT_EQ(run.store_digest, baseline().store_digest) << replay;
    EXPECT_EQ(run.templates, baseline().templates) << replay;
    EXPECT_EQ(run.template_digest, baseline().template_digest) << replay;
  }

  // Runs one seeded kill-9/restart schedule and asserts the recovered run is
  // indistinguishable from the fault-free baseline. Mining, the template
  // dictionary must match too: same ids, same hit counts, same learned text.
  void CheckCrashSeed(uint64_t seed) {
    CrashSchedule schedule;
    schedule.seed = seed;
    schedule.salt = 0xCDB4D88C6A2E9C01ULL;
    schedule.dir = ::testing::TempDir() + "ts_crash_" +
                   std::to_string(::getpid()) + "_" + (kFreeText ? "m" : "p") +
                   std::to_string(seed);
    schedule.mine = kFreeText;
    const CrashRun out = RunCrashSchedule(archive(), schedule);
    restores_ += out.restores;
    const std::string banner = std::string(kFreeText ? "mined " : "") +
                               "crash schedule seed " + std::to_string(seed) +
                               " (" + out.Banner() + ")";
    ASSERT_TRUE(out.run.eos) << banner;
    EXPECT_EQ(out.crashes, out.incarnations - 1) << banner;
    EXPECT_EQ(out.run.records_in, archive().size()) << banner;
    EXPECT_EQ(out.run.parse_failures, 0u) << banner;
    // An exact resume offset makes replay re-derive only state the snapshot
    // does not already hold.
    EXPECT_EQ(out.replayed_duplicates, 0u) << banner;
    EXPECT_EQ(out.run.sessions, baseline().sessions) << banner;
    EXPECT_EQ(out.run.session_digest, baseline().session_digest) << banner;
    EXPECT_EQ(out.run.store_digest, baseline().store_digest) << banner;
    EXPECT_EQ(out.run.templates, baseline().templates) << banner;
    EXPECT_EQ(out.run.template_digest, baseline().template_digest) << banner;
  }

  // Incarnations, over this test's crash schedules so far, that resumed from
  // a snapshot. A sweep asserts a floor on it, or the restore path could go
  // quietly untested (every incarnation cold-starting still converges).
  uint64_t restores_ = 0;

 private:
  static inline std::shared_ptr<std::vector<std::string>> archive_;
  static inline RunResult baseline_;
};

class FaultConformance : public ArchiveSuite<false> {};

TEST_F(FaultConformance, FaultFreeTransportMatchesInMemory) {
  // Schedule zero: empty plans. The socket path with injectors wired but
  // firing nothing must already match the in-memory reference.
  const RunResult run =
      RunOverFaultyTransport(archive_ptr(), FaultPlan{}, FaultPlan{});
  ASSERT_TRUE(run.eos);
  EXPECT_EQ(run.records_in, archive().size());
  EXPECT_EQ(run.reconnects, 0u);
  EXPECT_EQ(run.session_digest, baseline().session_digest);
  EXPECT_EQ(run.store_digest, baseline().store_digest);
}

TEST_F(FaultConformance, HundredMildSchedules) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    CheckSeed(seed, "mild");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The replay banner already names the seed.
    }
  }
}

TEST_F(FaultConformance, HundredAggressiveSchedules) {
  for (uint64_t seed = 100; seed < 200; ++seed) {
    CheckSeed(seed, "aggressive");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
}

TEST_F(FaultConformance, CorruptingSchedulesSurviveWithAccounting) {
  // Corruption legitimately changes bytes, so digest identity is out; the
  // contract here is weaker but still sharp: the pipeline neither crashes
  // nor wedges, the stream still ends in #EOS, nothing is double-counted
  // (records_in never exceeds the archive: corruption can only merge lines,
  // the '\n' guard means it cannot split them), and every corrupted byte is
  // visible in the injector's accounting.
  for (uint64_t seed = 500; seed < 510; ++seed) {
    FaultProfile resolved;
    ASSERT_TRUE(FaultPlan::ResolveProfile("corrupting", WireBytes(archive()),
                                          &resolved));
    const FaultPlan client_plan =
        FaultPlan::FromSeed(seed * 2 + 1, "corrupting", resolved);
    const RunResult run = RunOverFaultyTransport(archive_ptr(), client_plan,
                                                 FaultPlan{});
    ASSERT_TRUE(run.eos) << "seed " << seed << "\n" << client_plan.ToText();
    // Each corrupted byte can destroy at most one record framing (merging
    // two lines by hitting their '\n') or damage one control line (a mangled
    // #EOS is counted as a record), so the delivered count can drift from
    // the archive by at most the corruption budget in either direction.
    uint64_t corrupt_budget = 0;
    for (const auto& event : client_plan.events) {
      if (event.type == FaultType::kCorrupt) {
        corrupt_budget += event.arg;
      }
    }
    EXPECT_LE(run.records_in, archive().size() + corrupt_budget)
        << "seed " << seed;
    EXPECT_GE(run.records_in + corrupt_budget, archive().size())
        << "seed " << seed;
  }
}

TEST_F(FaultConformance, ExploratorySeedFromEnvironment) {
  // A handful of schedules derived from the environment seed, both profiles.
  uint64_t i = 0;
  RunExploratorySeeds(8, 7919, "transport schedules", [&](uint64_t seed) {
    CheckSeed(seed, i++ % 2 == 0 ? "mild" : "aggressive");
  });
}

// --- Deterministic severing (satellite S2) ---
//
// Server-side injector byte offsets count exactly the archive bytes written
// to the socket (hellos arrive on the recv path, which is not hooked on the
// server), so `at` offsets computed from line lengths sever the connection
// precisely on — or precisely inside — a chosen record.

class FaultBoundary : public ::testing::Test {
 protected:
  static uint64_t OffsetAfterRecords(const std::vector<std::string>& lines,
                                     size_t n) {
    uint64_t off = 0;
    for (size_t i = 0; i < n && i < lines.size(); ++i) {
      off += lines[i].size() + 1;
    }
    return off;
  }

  // Serves `lines` through a server whose plan kills at byte `kill_at`,
  // returns what one client sees end-to-end.
  static void RunWithServerKill(
      std::shared_ptr<const std::vector<std::string>> lines, uint64_t kill_at,
      size_t max_conn_buffer_bytes, std::vector<std::string>* received,
      uint64_t* reconnects, uint64_t* resumes) {
    FaultPlan plan;
    plan.events.push_back({FaultType::kKill, kill_at, 0});
    ScriptedInjector server_injector(plan);

    LogServerOptions server_options;
    server_options.fault_injector = &server_injector;
    server_options.max_conn_buffer_bytes = max_conn_buffer_bytes;
    LogServer server(server_options, lines);
    ASSERT_TRUE(server.Start());
    std::thread server_thread([&server] { server.Run(); });

    SocketIngestOptions client_options;
    client_options.port = server.port();
    client_options.backoff_base_ms = 1;
    client_options.backoff_max_ms = 20;
    SocketIngestSource client(client_options);
    ASSERT_TRUE(client.ReadAll(received));
    server.Stop();
    server_thread.join();

    *reconnects = client.stats().Snapshot().reconnects;
    *resumes = server.stats().Snapshot().resumes;
    EXPECT_EQ(server_injector.counters().kills, 1u);
  }
};

TEST_F(FaultBoundary, KillExactlyOnRecordBoundaryResumesExactlyOnce) {
  auto archive = MakeArchive(2'000, 1);
  ASSERT_GT(archive->size(), 100u);
  // Sever after record 49's trailing newline: the framer holds no partial
  // line, and the resume hello must ask for offset 50 exactly.
  const uint64_t cut = OffsetAfterRecords(*archive, 50);

  std::vector<std::string> received;
  uint64_t reconnects = 0, resumes = 0;
  RunWithServerKill(archive, cut, /*max_conn_buffer_bytes=*/256 << 10,
                    &received, &reconnects, &resumes);
  EXPECT_EQ(received, *archive);  // Exactly once, in order.
  EXPECT_EQ(reconnects, 1u);
  EXPECT_EQ(resumes, 1u);
}

TEST_F(FaultBoundary, KillMidRecordWithPartiallyFlushedBufferResumes) {
  auto archive = MakeArchive(2'000, 1);
  ASSERT_GT(archive->size(), 100u);
  // Sever in the middle of record 50, with a tiny send buffer so the server
  // is mid-flush (dozens of partial writes in flight) when the kill lands.
  // The client's framer must drop the truncated tail and resume at 50.
  const uint64_t cut =
      OffsetAfterRecords(*archive, 50) + (*archive)[50].size() / 2;

  std::vector<std::string> received;
  uint64_t reconnects = 0, resumes = 0;
  RunWithServerKill(archive, cut, /*max_conn_buffer_bytes=*/512, &received,
                    &reconnects, &resumes);
  EXPECT_EQ(received, *archive);  // The half-sent record arrives exactly once.
  EXPECT_EQ(reconnects, 1u);
  EXPECT_EQ(resumes, 1u);
}

// --- Full-process crash/recovery schedules (ts_ckpt) ---
//
// RunCrashSchedule (tests/live_node_test_util.h) kills and restarts a
// LiveNode 1-3 times at seeded, record-exact positions; the final
// incarnation's digests must match the fault-free in-memory baseline.

class CrashRecovery : public ArchiveSuite<false> {};

TEST_F(CrashRecovery, FirstFiftyKillRestartSchedules) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    CheckCrashSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The banner already names the seed.
    }
  }
  EXPECT_GE(restores_, 40u);
}

TEST_F(CrashRecovery, SecondFiftyKillRestartSchedules) {
  for (uint64_t seed = 50; seed < 100; ++seed) {
    CheckCrashSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
  EXPECT_GE(restores_, 40u);
}

TEST_F(CrashRecovery, ColdStartWithEmptyCheckpointDirMatchesBaseline) {
  // Seed chosen so RunCrashSchedule still kills at least once; the very first
  // incarnation necessarily restores nothing and must start from offset 0.
  CheckCrashSeed(7919);
}

TEST_F(CrashRecovery, ExploratorySeedFromEnvironment) {
  RunExploratorySeeds(4, 104'729, "crash schedules",
                      [&](uint64_t seed) { CheckCrashSeed(seed); });
}

// --- Template-mining conformance lanes (ts_parse) ---
//
// Mining runs on the single ingest thread in arrival order, so the rewritten
// stream — and with it the store contents and the learned dictionary — must
// be byte-identical no matter how the transport stutters (same arrival
// prefix => same miner state), and across kill -9/restart (the snapshot's
// 'T' frame must restore the miner exactly, or replayed records would split
// into fresh template ids and every digest below would diverge).

class TemplateFaultConformance : public ArchiveSuite<true> {};

TEST_F(TemplateFaultConformance, FaultFreeMinedTransportMatchesInMemory) {
  const RunResult run = RunOverFaultyTransport(archive_ptr(), FaultPlan{},
                                               FaultPlan{}, /*mine=*/true);
  ASSERT_TRUE(run.eos);
  EXPECT_EQ(run.records_in, archive().size());
  EXPECT_EQ(run.session_digest, baseline().session_digest);
  EXPECT_EQ(run.store_digest, baseline().store_digest);
  EXPECT_GT(run.templates, 0u);
  EXPECT_EQ(run.templates, baseline().templates);
  EXPECT_EQ(run.template_digest, baseline().template_digest);
}

TEST_F(TemplateFaultConformance, MinedMildSchedules) {
  for (uint64_t seed = 300; seed < 310; ++seed) {
    CheckSeed(seed, "mild");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The replay banner already names the seed.
    }
  }
}

TEST_F(TemplateFaultConformance, MinedAggressiveSchedules) {
  for (uint64_t seed = 310; seed < 320; ++seed) {
    CheckSeed(seed, "aggressive");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
}

class TemplateCrashRecovery : public ArchiveSuite<true> {};

TEST_F(TemplateCrashRecovery, TwentyKillRestartSchedulesRestoreMinerExactly) {
  // Every snapshot in these schedules carries the miner's 'T' frame; every
  // restart re-imports it and keeps mining the resumed stream. Identical
  // final dictionaries prove restore is exact — a miner that cold-started
  // would re-learn different ids for the replayed suffix.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    CheckCrashSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The banner already names the seed.
    }
  }
  EXPECT_GE(restores_, 15u);
}

TEST_F(TemplateCrashRecovery, ColdStartMinedScheduleMatchesBaseline) {
  // First incarnation restores nothing: the miner must build from scratch,
  // then survive the schedule's later kills via the 'T' frame.
  CheckCrashSeed(7919);
}

// --- Cold-tier (tiered store) crash conformance ---
//
// Same kill -9/restart discipline as CrashRecovery, but the hot window is
// tiny: most closed sessions are evicted into an on-disk ColdTier that
// persists across incarnations exactly like the checkpoint directory, and
// every snapshot write is preceded by the FlushPending durability barrier.
// Kills land mid-spill by construction (Kill() models the SIGKILL instant:
// whatever the spill thread had not yet made durable is lost, and the next
// incarnation re-discovers only the segments that really hit disk).
// The conformance bar: after the final incarnation reaches EOS, the tiered
// digest over hot ∪ cold is byte-identical to an unbounded fault-free
// baseline — evictions, spills, restarts and kills lose nothing and invent
// nothing. Unlike the hot-only suite, replayed duplicates are EXPECTED: a
// session evicted and made durable before a crash re-derives on replay and
// is deduplicated against the cold index instead of being re-inserted.

class ColdTierFaultConformance : public ArchiveSuite<false> {
 protected:
  void CheckColdSeed(uint64_t seed) {
    CrashSchedule schedule;
    schedule.seed = seed;
    schedule.salt = 0xCDB4D88C6A2E9C01ULL;
    schedule.dir = ::testing::TempDir() + "ts_coldcrash_" +
                   std::to_string(::getpid()) + "_" + std::to_string(seed);
    schedule.tiered = true;
    const CrashRun out = RunCrashSchedule(archive(), schedule);
    restores_ += out.restores;
    const std::string banner = "cold crash schedule seed " +
                               std::to_string(seed) + " (" + out.Banner() + ")";
    ASSERT_TRUE(out.run.eos) << banner;
    EXPECT_EQ(out.crashes, out.incarnations - 1) << banner;
    EXPECT_EQ(out.run.records_in, archive().size()) << banner;
    EXPECT_EQ(out.run.parse_failures, 0u) << banner;
    // The hot window is tiny by construction; a schedule that never spilled
    // would be testing nothing.
    EXPECT_GT(out.cold_sessions, 0u) << banner;
    EXPECT_GE(out.cold_segments, 1u) << banner;
    EXPECT_EQ(out.tiered_sessions, baseline().sessions) << banner;
    EXPECT_EQ(out.tiered_digest, baseline().store_digest) << banner;
  }
};

TEST_F(ColdTierFaultConformance, FirstTenKillRestartSchedules) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    CheckColdSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The banner already names the seed.
    }
  }
  EXPECT_GE(restores_, 8u);
}

TEST_F(ColdTierFaultConformance, SecondTenKillRestartSchedules) {
  for (uint64_t seed = 10; seed < 20; ++seed) {
    CheckColdSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
  EXPECT_GE(restores_, 8u);
}

TEST_F(ColdTierFaultConformance, ExploratorySeedFromEnvironment) {
  RunExploratorySeeds(4, 104'729, "cold-crash schedules",
                      [&](uint64_t seed) { CheckColdSeed(seed); });
}

}  // namespace
}  // namespace ts
