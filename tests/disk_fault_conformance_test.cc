// Disk-fault conformance suite: the durability layers (ts_ckpt snapshots,
// ts_store cold segments) run under seeded disk-fault schedules — ENOSPC
// windows, EIO, short and torn writes, failed fsyncs and renames — injected
// through the FsFaultInjector hooks, asserting the durable-prefix property:
// every restart lands on a fully valid snapshot plus a fully valid segment
// set, and the final tiered digest is byte-identical to a fault-free run.
//
// Layout mirrors fault_conformance_test.cc: unit tests for the scripted
// injector's byte-exact semantics, an every-failure-point atomicity sweep
// for WriteFileAtomic, degraded-mode behavior tests (checkpoint retry/drop,
// cold-tier shedding with exact accounting, prune and tmp-cleanup hygiene),
// then seeded end-to-end schedules over checkpoint/spill/restore cycles with
// an exploratory lane keyed on TS_FAULT_SEED / TS_FAULT_SCHEDULE_MULTIPLIER.
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_store.h"
#include "src/ckpt/async_checkpointer.h"
#include "src/ckpt/checkpointer.h"
#include "src/ckpt/snapshot_io.h"
#include "src/core/live_pipeline.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fs_fault.h"
#include "src/fault/scripted_disk_injector.h"
#include "src/store/cold_tier.h"
#include "tests/live_node_test_util.h"

namespace ts {
namespace {

FaultPlan ManualPlan(std::vector<FaultEvent> events) {
  FaultPlan plan;
  plan.events = std::move(events);
  return plan;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// --- ScriptedDiskInjector semantics ---

TEST(DiskFaultInjectorUnit, EnospcWindowFailsNWritesThenHeals) {
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kEnospc, 0, 2}}));
  FsFaultAction a = injector.OnWrite("f", 100);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, ENOSPC);
  a = injector.OnWrite("f", 100);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, ENOSPC);
  // The window is spent: the volume "healed".
  EXPECT_EQ(injector.OnWrite("f", 100).kind, FsFaultAction::Kind::kProceed);
  EXPECT_EQ(injector.counters().enospc_failures, 2u);
}

TEST(DiskFaultInjectorUnit, EioHitsWritesAndPreads) {
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kEio, 0, 2}}));
  FsFaultAction a = injector.OnWrite("f", 64);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  a = injector.OnPread("f", 64, 0);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  EXPECT_EQ(injector.OnPread("f", 64, 0).kind, FsFaultAction::Kind::kProceed);
  EXPECT_EQ(injector.counters().eio_failures, 2u);
}

TEST(DiskFaultInjectorUnit, ShortWriteClampsExactlyOnce) {
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kShortWrite, 0, 3}}));
  FsFaultAction a = injector.OnWrite("f", 100);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kClamp);
  EXPECT_EQ(a.max_bytes, 3u);
  injector.OnIoBytes(3);
  EXPECT_EQ(injector.OnWrite("f", 97).kind, FsFaultAction::Kind::kProceed);
  EXPECT_EQ(injector.counters().short_writes, 1u);
}

TEST(DiskFaultInjectorUnit, FsyncAndRenameWindowsAreIndependent) {
  ScriptedDiskInjector injector(ManualPlan(
      {{FaultType::kFsyncFail, 0, 1}, {FaultType::kRenameFail, 0, 1}}));
  // A write between them is untouched: the windows attack their own calls.
  EXPECT_EQ(injector.OnWrite("f", 10).kind, FsFaultAction::Kind::kProceed);
  FsFaultAction a = injector.OnFsync("f");
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  EXPECT_EQ(injector.OnFsync("f").kind, FsFaultAction::Kind::kProceed);
  a = injector.OnRename("f.tmp", "f");
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  EXPECT_EQ(injector.OnRename("f.tmp", "f").kind,
            FsFaultAction::Kind::kProceed);
  const DiskFaultCountersSnapshot counters = injector.counters();
  EXPECT_EQ(counters.fsync_failures, 1u);
  EXPECT_EQ(counters.rename_failures, 1u);
}

TEST(DiskFaultInjectorUnit, TornWriteIsByteExact) {
  // Tear at disk offset 10: an 8-byte write proceeds, the write crossing the
  // boundary is clamped to end exactly there, and the next attempt dies EIO.
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kTornWrite, 10, 0}}));
  EXPECT_EQ(injector.OnWrite("f", 8).kind, FsFaultAction::Kind::kProceed);
  injector.OnIoBytes(8);
  FsFaultAction a = injector.OnWrite("f", 8);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kClamp);
  EXPECT_EQ(a.max_bytes, 2u);
  injector.OnIoBytes(2);
  a = injector.OnWrite("f", 6);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  EXPECT_EQ(injector.counters().torn_writes, 1u);
  // Plan exhausted: back to normal.
  EXPECT_EQ(injector.OnWrite("f", 6).kind, FsFaultAction::Kind::kProceed);
}

TEST(DiskFaultInjectorUnit, NetworkEventsAreSkippedOnTheDiskSurface) {
  // A mixed plan (one grammar covers both surfaces): the kill is a no-op
  // here, the ENOSPC behind it still fires at its offset.
  ScriptedDiskInjector injector(ManualPlan(
      {{FaultType::kKill, 0, 0}, {FaultType::kEnospc, 0, 1}}));
  FsFaultAction a = injector.OnWrite("f", 16);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, ENOSPC);
  EXPECT_EQ(injector.OnWrite("f", 16).kind, FsFaultAction::Kind::kProceed);
}

TEST(DiskFaultInjectorUnit, MetricsGaugesExportCounters) {
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kEnospc, 0, 1}}));
  MetricsRegistry registry;
  injector.RegisterMetrics(&registry);
  EXPECT_EQ(injector.OnWrite("f", 1).kind, FsFaultAction::Kind::kFail);
  bool saw = false;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == "fault_disk_enospc_failures") {
      saw = true;
      EXPECT_EQ(value, 1);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(DiskFaultInjectorUnit, SeededDiskPlansAreDeterministic) {
  FaultProfile profile;
  ASSERT_TRUE(FaultPlan::ResolveProfile("disk-aggressive", 1 << 16, &profile));
  const FaultPlan a = FaultPlan::FromSeed(11, "disk-aggressive", profile);
  const FaultPlan b = FaultPlan::FromSeed(11, "disk-aggressive", profile);
  EXPECT_EQ(a.ToText(), b.ToText());
  EXPECT_FALSE(a.events.empty());
}

// --- WriteFileAtomic every-failure-point sweep (satellite) ---

// Fails the Nth occurrence of one operation kind, exactly once, and clamps
// every write to `write_chunk` bytes so a multi-KB payload takes many write
// calls — letting the sweep park a failure after a partially written tmp.
class FailNthOpInjector : public FsFaultInjector {
 public:
  enum class Op { kOpen, kWrite, kFsync, kRename };

  FailNthOpInjector(Op op, int nth, int error, size_t write_chunk)
      : op_(op), nth_(nth), error_(error), write_chunk_(write_chunk) {}

  FsFaultAction OnOpen(const char* path, bool for_write) override {
    (void)path;
    return for_write ? Step(Op::kOpen, 0) : FsFaultAction{};
  }
  FsFaultAction OnWrite(const char* path, size_t len) override {
    (void)path;
    return Step(Op::kWrite, len);
  }
  FsFaultAction OnFsync(const char* path) override {
    (void)path;
    return Step(Op::kFsync, 0);
  }
  FsFaultAction OnRename(const char* from, const char* to) override {
    (void)from;
    (void)to;
    return Step(Op::kRename, 0);
  }

  int fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  FsFaultAction Step(Op op, size_t len) {
    if (op == op_ && fired_.load(std::memory_order_relaxed) == 0 &&
        ++count_ == nth_) {
      fired_.fetch_add(1, std::memory_order_relaxed);
      FsFaultAction action;
      action.kind = FsFaultAction::Kind::kFail;
      action.error = error_;
      return action;
    }
    if (op == Op::kWrite && write_chunk_ > 0 && len > write_chunk_) {
      FsFaultAction action;
      action.kind = FsFaultAction::Kind::kClamp;
      action.max_bytes = write_chunk_;
      return action;
    }
    return {};
  }

  const Op op_;
  const int nth_;
  const int error_;
  const size_t write_chunk_;
  std::atomic<int> count_{0};
  std::atomic<int> fired_{0};
};

class DiskFaultAtomicity : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ts_diskfault_atomic_" +
           std::to_string(::getpid());
    const std::string cleanup = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cleanup.c_str()), 0);
    ASSERT_EQ(std::system(("mkdir -p '" + dir_ + "'").c_str()), 0);
  }
  void TearDown() override {
    const std::string cleanup = "rm -rf '" + dir_ + "'";
    EXPECT_EQ(std::system(cleanup.c_str()), 0);
  }
  std::string dir_;
};

std::string Payload(char fill, size_t n) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(fill + static_cast<char>(i % 23)));
  }
  return s;
}

TEST_F(DiskFaultAtomicity, EveryFailurePointLeavesOldIntactNeverTorn) {
  const std::string path = dir_ + "/file.snap";
  const std::string v1 = Payload('A', 6000);
  const std::string v2 = Payload('a', 6000);
  ASSERT_TRUE(WriteFileAtomic(path, v1));

  using Op = FailNthOpInjector::Op;
  struct Point {
    Op op;
    int nth;
    int error;
    const char* name;
  };
  // With writes clamped to 1KB chunks the 6KB payload takes ~6 write calls,
  // so the sweep covers a failure before any byte lands (write #1), in the
  // middle of the stream (#3), on the final chunk (#6), and at each of the
  // open / fsync / rename stages.
  const Point points[] = {
      {Op::kOpen, 1, EACCES, "open"},        {Op::kWrite, 1, ENOSPC, "write1"},
      {Op::kWrite, 3, EIO, "write3"},        {Op::kWrite, 6, ENOSPC, "write6"},
      {Op::kFsync, 1, EIO, "fsync"},         {Op::kRename, 1, EIO, "rename"},
  };
  for (const Point& p : points) {
    FailNthOpInjector injector(p.op, p.nth, p.error, /*write_chunk=*/1024);
    {
      ScopedFsFaultInjector scoped(&injector);
      EXPECT_FALSE(WriteFileAtomic(path, v2)) << p.name;
    }
    EXPECT_EQ(injector.fired(), 1) << p.name;
    // The old file is byte-for-byte intact under the final name, and the
    // failed attempt's temp file has been removed — nothing torn, nothing
    // leaked, exactly the state RestoreLatest and segment discovery expect.
    std::string back;
    ASSERT_TRUE(ReadFile(path, &back)) << p.name;
    EXPECT_EQ(back, v1) << p.name;
    EXPECT_FALSE(FileExists(path + ".tmp")) << p.name;
  }

  // Healed: the same write goes through and fully replaces the old bytes.
  ASSERT_TRUE(WriteFileAtomic(path, v2));
  std::string back;
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back, v2);
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(DiskFaultAtomicity, MultiPartWriteSurvivesMidStreamFailure) {
  const std::string path = dir_ + "/parts.snap";
  const std::string header = Payload('H', 64);
  const std::string body = Payload('B', 4096);
  const std::string footer = Payload('F', 64);
  ASSERT_TRUE(WriteFileAtomic(path, {header, body, footer}));
  std::string v1;
  ASSERT_TRUE(ReadFile(path, &v1));
  ASSERT_EQ(v1.size(), header.size() + body.size() + footer.size());

  FailNthOpInjector injector(FailNthOpInjector::Op::kWrite, 3, ENOSPC,
                             /*write_chunk=*/512);
  {
    ScopedFsFaultInjector scoped(&injector);
    EXPECT_FALSE(WriteFileAtomic(path, {footer, body, header}));
  }
  EXPECT_EQ(injector.fired(), 1);
  std::string back;
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back, v1);
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(DiskFaultAtomicity, ShortWritesAloneNeverFailTheWrite) {
  // A degraded disk that only ever writes tiny chunks is slow, not broken:
  // the write loop must absorb arbitrary clamping and still produce exact
  // bytes.
  const std::string path = dir_ + "/slow.snap";
  const std::string v = Payload('s', 5000);
  FailNthOpInjector injector(FailNthOpInjector::Op::kOpen, /*nth=*/1000,
                             EIO, /*write_chunk=*/7);
  {
    ScopedFsFaultInjector scoped(&injector);
    ASSERT_TRUE(WriteFileAtomic(path, v));
  }
  std::string back;
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back, v);
}

// --- Degraded-mode behavior ---

// A disk that fails every write while `broken` holds — the persistent-outage
// model the shed and degraded-checkpoint paths are built for.
class BrokenDiskInjector : public FsFaultInjector {
 public:
  FsFaultAction OnWrite(const char* path, size_t len) override {
    (void)path;
    (void)len;
    return Maybe();
  }
  FsFaultAction OnFsync(const char* path) override {
    (void)path;
    return Maybe();
  }
  std::atomic<bool> broken{true};

 private:
  FsFaultAction Maybe() {
    if (!broken.load(std::memory_order_relaxed)) {
      return {};
    }
    FsFaultAction action;
    action.kind = FsFaultAction::Kind::kFail;
    action.error = ENOSPC;
    return action;
  }
};

// Fails the next N preads (serving-path reads), then heals.
class FailPreadsInjector : public FsFaultInjector {
 public:
  FsFaultAction OnPread(const char* path, size_t len,
                        uint64_t offset) override {
    (void)path;
    (void)len;
    (void)offset;
    if (fail_left.fetch_sub(1, std::memory_order_relaxed) > 0) {
      FsFaultAction action;
      action.kind = FsFaultAction::Kind::kFail;
      action.error = EIO;
      return action;
    }
    fail_left.fetch_add(1, std::memory_order_relaxed);  // Undo the overshoot.
    return {};
  }
  std::atomic<int> fail_left{0};
};

// Fails every unlink while `broken` holds (prune-failure model).
class FailUnlinkInjector : public FsFaultInjector {
 public:
  FsFaultAction OnUnlink(const char* path) override {
    (void)path;
    if (!broken.load(std::memory_order_relaxed)) {
      return {};
    }
    FsFaultAction action;
    action.kind = FsFaultAction::Kind::kFail;
    action.error = EIO;
    return action;
  }
  std::atomic<bool> broken{true};
};

std::string MakeTempDir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + tag + "_" + std::to_string(::getpid());
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  EXPECT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  return dir;
}

Session MakeSession(const std::string& id, EventTime start_ns,
                    std::vector<uint32_t> services, uint32_t fragment = 0) {
  Session s;
  s.id = id;
  s.fragment_index = fragment;
  EventTime t = start_ns;
  for (uint32_t svc : services) {
    LogRecord r;
    r.time = t;
    r.session_id = id;
    r.txn_id = *TxnId::Parse("1-2");
    r.service = svc;
    r.host = svc;
    r.kind = EventKind::kAnnotation;
    r.payload = "x=" + std::string(64, 'a');
    s.records.push_back(std::move(r));
    t += kNanosPerMilli;
  }
  return s;
}

TEST(DiskFaultDegradation, PruneFailureIsCountedAndRetriedNextRotation) {
  const std::string dir = MakeTempDir("ts_diskfault_prune");
  CheckpointerOptions options;
  options.dir = dir;
  options.retain = 1;
  options.interval_ms = 0;
  Checkpointer ckpt(options);
  CheckpointState state;
  state.resume_offset = 1;
  ASSERT_TRUE(ckpt.Write(state));
  ASSERT_EQ(ckpt.ListSnapshots().size(), 1u);

  FailUnlinkInjector injector;
  {
    ScopedFsFaultInjector scoped(&injector);
    ASSERT_TRUE(ckpt.Write(state));  // Rotation's prune hits the bad unlink.
  }
  EXPECT_GE(ckpt.prune_failures(), 1u);
  // The victim survived (unlink failed) alongside the new snapshot...
  EXPECT_EQ(ckpt.ListSnapshots().size(), 2u);
  // ...and the next healed rotation reclaims the whole backlog: prune works
  // off the directory listing, not a remembered victim set.
  ASSERT_TRUE(ckpt.Write(state));
  EXPECT_EQ(ckpt.ListSnapshots().size(), 1u);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DiskFaultDegradation, ColdStartUnlinksStaleTmpFiles) {
  const std::string dir = MakeTempDir("ts_diskfault_tmp");
  // A crashed spill's partial write, plus an innocent bystander file the
  // cleanup must not touch.
  const std::string stale = dir + "/cold-0000000099.seg.tmp";
  const std::string bystander = dir + "/notes.txt";
  for (const std::string& path : {stale, bystander}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("leftover", f);
    std::fclose(f);
  }

  ColdTierOptions options;
  options.dir = dir;
  ColdTier cold(options);
  ASSERT_TRUE(cold.Start());
  EXPECT_EQ(cold.stats().tmp_cleaned, 1u);
  EXPECT_FALSE(FileExists(stale));
  EXPECT_TRUE(FileExists(bystander));
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DiskFaultDegradation, ColdTierShedsWithExactAccountingAndRecovers) {
  const std::string dir = MakeTempDir("ts_diskfault_shed");
  BrokenDiskInjector disk;

  ColdTierOptions options;
  options.dir = dir;
  options.segment_target_bytes = 1;  // Spill eagerly.
  options.spill_retry_limit = 2;
  options.spill_backoff_ms = 1;
  ColdTier cold(options);
  ASSERT_TRUE(cold.Start());  // Discovery runs before the disk "breaks".

  ScopedFsFaultInjector scoped(&disk);
  const int kSessions = 8;
  for (int i = 0; i < kSessions; ++i) {
    cold.Append(MakeSession("S" + std::to_string(i), i * kNanosPerMilli,
                            {static_cast<uint32_t>(i % 3)}));
  }
  // FlushPending reports each write failure promptly (the checkpoint
  // barrier aborts its snapshot on false), while the spill thread keeps
  // retrying behind it; after spill_retry_limit consecutive failures the
  // batch is shed and the flush completes — a dead disk never wedges the
  // barrier forever.
  bool flushed = false;
  for (int i = 0; i < 10'000 && !flushed; ++i) {
    flushed = cold.FlushPending();
  }
  ASSERT_TRUE(flushed);

  ColdTier::Stats stats = cold.stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.shed_batches, 1u);
  EXPECT_EQ(stats.shed_sessions, static_cast<uint64_t>(kSessions));
  EXPECT_GT(stats.shed_bytes, 0u);
  EXPECT_TRUE(stats.shedding);
  EXPECT_GE(stats.write_failures, 2u);
  // Exact accounting: every accepted append is either durable or counted
  // shed — nothing vanishes silently.
  EXPECT_EQ(stats.spilled, stats.sessions + stats.shed_sessions);
  EXPECT_EQ(stats.sessions, 0u);
  // A shed session is a plain cold miss, never a wrong answer.
  EXPECT_FALSE(cold.Contains("S0", 0));
  EXPECT_FALSE(cold.Get("S0", 0).has_value());

  // Heal the disk: new appends spill normally and the flag clears.
  disk.broken.store(false, std::memory_order_relaxed);
  cold.Append(MakeSession("HEALED", 0, {7}));
  EXPECT_TRUE(cold.FlushPending());
  stats = cold.stats();
  EXPECT_FALSE(stats.shedding);
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.spilled, stats.sessions + stats.shed_sessions);
  ASSERT_TRUE(cold.Get("HEALED", 0).has_value());
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DiskFaultDegradation, ServingPreadRetriesOnceThenCountsTheMiss) {
  const std::string dir = MakeTempDir("ts_diskfault_pread");
  ColdTierOptions options;
  options.dir = dir;
  ColdTier cold(options);
  ASSERT_TRUE(cold.Start());
  cold.Append(MakeSession("DURABLE", 0, {1, 2}));
  ASSERT_TRUE(cold.FlushPending());

  FailPreadsInjector disk;
  ScopedFsFaultInjector scoped(&disk);

  // One transient failure: the retry serves the session.
  disk.fail_left.store(1, std::memory_order_relaxed);
  ASSERT_TRUE(cold.Get("DURABLE", 0).has_value());
  ColdTier::Stats stats = cold.stats();
  EXPECT_EQ(stats.read_retries, 1u);
  EXPECT_EQ(stats.corrupt, 0u);

  // A persistent failure degrades to a counted miss — never a wrong answer,
  // never a crash, and the segment itself is untouched.
  disk.fail_left.store(2, std::memory_order_relaxed);
  EXPECT_FALSE(cold.Get("DURABLE", 0).has_value());
  stats = cold.stats();
  EXPECT_EQ(stats.read_retries, 2u);
  EXPECT_GE(stats.corrupt, 1u);

  // Healed: the same candidate serves again.
  ASSERT_TRUE(cold.Get("DURABLE", 0).has_value());
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DiskFaultDegradation, AsyncCheckpointerDegradesThenRecovers) {
  const std::string dir = MakeTempDir("ts_diskfault_ckpt");
  const auto lines = MakeArchive(/*records_per_sec=*/500, /*seconds=*/1);

  BrokenDiskInjector disk;
  ScopedFsFaultInjector scoped(&disk);

  CheckpointerOptions ckpt_options;
  ckpt_options.dir = dir;
  ckpt_options.interval_ms = 0;
  Checkpointer ckpt(ckpt_options);

  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  SessionStore store(store_options);
  LivePipelineOptions pipeline_options;
  pipeline_options.workers = 2;
  LivePipeline pipeline(pipeline_options,
                       [&](Session&& s) { store.Insert(std::move(s)); });

  AsyncCheckpointer::Options ac_options;
  ac_options.write_retry_limit = 2;
  ac_options.write_retry_backoff_ms = 1;
  AsyncCheckpointer ac(&ckpt, &pipeline, &store, ac_options);

  uint64_t fed = 0;
  for (const auto& l : *lines) {
    pipeline.FeedLine(l);
    ++fed;
  }
  pipeline.Flush();

  // Broken disk: both attempts fail, the snapshot is dropped, the episode is
  // fully counted — and ingest was never blocked on any of it.
  ASSERT_TRUE(ac.RequestCheckpoint(fed));
  ac.Drain();
  EXPECT_GE(ac.write_failures(), 2u);
  EXPECT_TRUE(ac.degraded());
  EXPECT_EQ(ac.snapshots_dropped(), 1u);
  EXPECT_EQ(ckpt.snapshots_taken(), 0u);

  MetricsRegistry registry;
  ac.RegisterMetrics(&registry);
  int64_t degraded_gauge = -1;
  int64_t failures_gauge = -1;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == "ckpt_degraded") degraded_gauge = value;
    if (name == "ckpt_write_failures") failures_gauge = value;
  }
  EXPECT_EQ(degraded_gauge, 1);
  EXPECT_GE(failures_gauge, 2);

  // Healed disk: the next cadence tick recovers without operator action.
  disk.broken.store(false, std::memory_order_relaxed);
  ASSERT_TRUE(ac.RequestCheckpoint(fed));
  ac.Drain();
  EXPECT_FALSE(ac.degraded());
  EXPECT_EQ(ckpt.snapshots_taken(), 1u);
  CheckpointState restored;
  EXPECT_TRUE(ckpt.RestoreLatest(&restored).restored);
  EXPECT_EQ(restored.resume_offset, fed);

  pipeline.Finish();
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DiskFaultDegradation, FailedDurabilityBarrierAbortsTheSnapshot) {
  const std::string dir = MakeTempDir("ts_diskfault_barrier");
  CheckpointerOptions ckpt_options;
  ckpt_options.dir = dir;
  ckpt_options.interval_ms = 0;
  Checkpointer ckpt(ckpt_options);

  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  SessionStore store(store_options);
  LivePipelineOptions pipeline_options;
  pipeline_options.workers = 1;
  LivePipeline pipeline(pipeline_options,
                       [&](Session&& s) { store.Insert(std::move(s)); });

  std::atomic<bool> barrier_ok{false};
  AsyncCheckpointer::Options ac_options;
  ac_options.write_retry_limit = 2;
  ac_options.write_retry_backoff_ms = 1;
  ac_options.before_write = [&barrier_ok] {
    return barrier_ok.load(std::memory_order_relaxed);
  };
  AsyncCheckpointer ac(&ckpt, &pipeline, &store, ac_options);

  // The cold tier can't make the preceding evictions durable: the snapshot
  // must not be published — publishing it would teach a restore to skip
  // replaying sessions that exist nowhere.
  ASSERT_TRUE(ac.RequestCheckpoint(0));
  ac.Drain();
  EXPECT_EQ(ckpt.snapshots_taken(), 0u);
  EXPECT_GE(ac.write_failures(), 2u);
  EXPECT_TRUE(ac.degraded());

  barrier_ok.store(true, std::memory_order_relaxed);
  ASSERT_TRUE(ac.RequestCheckpoint(0));
  ac.Drain();
  EXPECT_EQ(ckpt.snapshots_taken(), 1u);
  EXPECT_FALSE(ac.degraded());

  pipeline.Finish();
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// --- Seeded end-to-end schedules (the tentpole conformance property) ---
//
// Kill/restart cycles of the shipped LiveNode over the full tiered ingest
// path (RunCrashSchedule in tests/live_node_test_util.h), with each
// incarnation's durability I/O attacked by a ScriptedDiskInjector driving a
// fresh disk-aggressive plan, seeded from (schedule seed, incarnation) so
// every restart faces a new storm at new byte offsets.

// Asserts the durable-prefix property for one seed and returns the run. The
// fixture asserts over the sweep as a whole that faults fired and restarts
// restored snapshots written under them: a single seed's plan may land all
// its offsets past the bytes the run happened to move, and a single schedule
// may crash before its first snapshot lands.
CrashRun CheckDiskFaultConformance(const std::vector<std::string>& archive,
                                   const RunResult& baseline, uint64_t seed) {
  CrashSchedule schedule;
  schedule.seed = seed;
  schedule.salt = 0xD15CFA17B3A7E901ULL;
  schedule.dir = ::testing::TempDir() + "ts_diskfault_" +
                 std::to_string(::getpid()) + "_" + std::to_string(seed);
  schedule.tiered = true;
  schedule.disk_plan = [seed](int incarnation) {
    FaultProfile profile;
    EXPECT_TRUE(
        FaultPlan::ResolveProfile("disk-aggressive", 256u << 10, &profile));
    return FaultPlan::FromSeed(
        seed * 1'000'003ull + static_cast<uint64_t>(incarnation),
        "disk-aggressive", profile);
  };
  const CrashRun out = RunCrashSchedule(archive, schedule);
  const std::string banner = "disk fault schedule seed " +
                             std::to_string(seed) + " (" + out.Banner() + ")";
  EXPECT_TRUE(out.run.eos) << banner;
  if (!out.run.eos) {
    return out;
  }
  EXPECT_EQ(out.crashes, out.incarnations - 1) << banner;
  EXPECT_EQ(out.run.records_in, archive.size()) << banner;
  EXPECT_EQ(out.run.parse_failures, 0u) << banner;
  // Every restart found a fully valid snapshot set: no restore ever fell
  // back past a damaged file, because no damaged file was ever published.
  EXPECT_EQ(out.restore_fallbacks, 0u) << banner;
  EXPECT_GT(out.cold_sessions, 0u) << banner;
  EXPECT_GE(out.cold_segments, 1u) << banner;
  EXPECT_EQ(out.tiered_sessions, baseline.sessions) << banner;
  EXPECT_EQ(out.tiered_digest, baseline.store_digest) << banner;
  return out;
}

class DiskFaultConformance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    archive_ = MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2);
    baseline_ = RunInMemory(*archive_);
    ASSERT_GT(archive_->size(), 2'000u);
    ASSERT_GT(baseline_.sessions, 0u);
  }
  static void TearDownTestSuite() { archive_.reset(); }

  // Runs one seed, adding to fired_ and restores_.
  void CheckSeed(uint64_t seed) {
    const CrashRun out = CheckDiskFaultConformance(*archive_, baseline_, seed);
    fired_ += out.faults_fired;
    restores_ += out.restores;
  }

  uint64_t fired_ = 0;
  uint64_t restores_ = 0;

 private:
  static inline std::shared_ptr<std::vector<std::string>> archive_;
  static inline RunResult baseline_;
};

TEST_F(DiskFaultConformance, FirstTenSeededSchedules) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    CheckSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The banner already names the seed.
    }
  }
  // The sweep as a whole must have drawn blood and restored from snapshots
  // written under fire, or it proved nothing.
  EXPECT_GT(fired_, 0u);
  EXPECT_GE(restores_, 3u);
}

TEST_F(DiskFaultConformance, SecondTenSeededSchedules) {
  for (uint64_t seed = 10; seed < 20; ++seed) {
    CheckSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
  EXPECT_GT(fired_, 0u);
  EXPECT_GE(restores_, 3u);
}

TEST_F(DiskFaultConformance, ExploratorySeedFromEnvironment) {
  RunExploratorySeeds(4, 104'729, "disk-fault schedules",
                      [&](uint64_t seed) { CheckSeed(seed); });
}

}  // namespace
}  // namespace ts
