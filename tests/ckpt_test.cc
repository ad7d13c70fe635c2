// ts_ckpt unit + property tests: CRC32C known answers, frame round-trips,
// snapshot encode/decode, damage tolerance (truncation at every byte and
// seeded bit flips must fail validation, never crash), Checkpointer rotation
// and damaged-snapshot fallback, and capture/restore determinism across
// different worker counts (the snapshot is keyed by session id, not by shard,
// so a restart may resize the worker pool).
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_digest.h"
#include "src/analytics/session_store.h"
#include "src/ckpt/async_checkpointer.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/checkpointer.h"
#include "src/ckpt/live_checkpoint.h"
#include "src/ckpt/snapshot_io.h"
#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/core/live_pipeline.h"
#include "src/log/wire_format.h"
#include "src/parse/template_miner.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

std::vector<std::string> MakeLines(uint64_t seed, double records_per_sec,
                                   EventTime seconds) {
  GeneratorConfig config;
  config.seed = seed;
  config.duration_ns = seconds * kNanosPerSecond;
  config.target_records_per_sec = records_per_sec;
  TraceGenerator gen(config);
  std::vector<std::string> lines;
  Epoch epoch = 0;
  std::vector<LogRecord> records;
  while (gen.NextEpoch(&epoch, &records)) {
    for (const auto& r : records) {
      lines.push_back(ToWireFormat(r));
    }
  }
  return lines;
}

// A small but fully populated state: every section type present, so damage
// anywhere in the file hits a populated frame.
CheckpointState MakeState() {
  CheckpointState state;
  state.resume_offset = 1234;
  state.stream = 1;
  state.ingest_watermark = 5 * kNanosPerSecond;
  state.records = 1200;
  state.parse_failures = 34;
  state.store_inserted = 40;
  state.store_evicted = 3;

  const std::vector<std::string> lines = MakeLines(7, 500, 1);
  size_t next = 0;
  auto take_record = [&lines, &next] {
    auto parsed = ParseWireFormat(lines[next++ % lines.size()]);
    EXPECT_TRUE(parsed.has_value());
    return *parsed;
  };

  for (int i = 0; i < 3; ++i) {
    LiveCloserState::OpenFragment fragment;
    fragment.id = "open-" + std::to_string(i);
    fragment.last_time = (i + 1) * kNanosPerSecond;
    for (int r = 0; r <= i; ++r) {
      fragment.records.push_back(take_record());
    }
    state.closers.open.push_back(std::move(fragment));
  }
  for (int i = 0; i < 5; ++i) {
    state.closers.next_fragment.emplace_back("sess-" + std::to_string(i),
                                             static_cast<uint32_t>(i + 1));
  }
  for (int i = 0; i < 5; ++i) {
    Session s;
    s.id = "stored-" + std::to_string(i);
    s.fragment_index = static_cast<uint32_t>(i % 2);
    s.first_epoch = static_cast<Epoch>(i);
    s.last_epoch = static_cast<Epoch>(i + 2);
    s.closed_at = static_cast<Epoch>(i + 3);
    s.records.push_back(take_record());
    s.records.push_back(take_record());
    state.store_sessions.push_back(std::move(s));
  }
  // Miner state ('T' frame), mined from real text so groups carry wildcards.
  TemplateMiner miner;
  miner.Mine("request a12f completed in 20ms");
  miner.Mine("request 99ee completed in 7ms");
  miner.Mine("cache shard rebalanced");
  miner.Mine("");  // Catch-all hit.
  state.has_miner = true;
  state.miner = miner.Export();
  return state;
}

void ExpectStatesEqual(const CheckpointState& a, const CheckpointState& b) {
  EXPECT_EQ(a.resume_offset, b.resume_offset);
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_EQ(a.ingest_watermark, b.ingest_watermark);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.parse_failures, b.parse_failures);
  EXPECT_EQ(a.store_inserted, b.store_inserted);
  EXPECT_EQ(a.store_evicted, b.store_evicted);
  ASSERT_EQ(a.closers.open.size(), b.closers.open.size());
  for (size_t i = 0; i < a.closers.open.size(); ++i) {
    EXPECT_EQ(a.closers.open[i].id, b.closers.open[i].id);
    EXPECT_EQ(a.closers.open[i].last_time, b.closers.open[i].last_time);
    ASSERT_EQ(a.closers.open[i].records.size(),
              b.closers.open[i].records.size());
    for (size_t r = 0; r < a.closers.open[i].records.size(); ++r) {
      EXPECT_EQ(ToWireFormat(a.closers.open[i].records[r]),
                ToWireFormat(b.closers.open[i].records[r]));
    }
  }
  EXPECT_EQ(a.closers.next_fragment, b.closers.next_fragment);
  ASSERT_EQ(a.store_sessions.size(), b.store_sessions.size());
  std::string canon_a, canon_b;
  for (size_t i = 0; i < a.store_sessions.size(); ++i) {
    EXPECT_EQ(SessionDigest(a.store_sessions[i], &canon_a),
              SessionDigest(b.store_sessions[i], &canon_b));
  }
  EXPECT_EQ(a.has_miner, b.has_miner);
  EXPECT_TRUE(a.miner == b.miner);
}

// --- CRC32C ---

TEST(CkptCrc32c, KnownAnswers) {
  // RFC 3720 / iSCSI test vector.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // 32 bytes of zeros, another standard vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(CkptCrc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t part = Crc32c(data.substr(split), Crc32c(data.substr(0, split)));
    EXPECT_EQ(part, whole) << "split at " << split;
  }
}

// --- Frame container ---

TEST(CkptFrames, RoundTripAndStrictEnd) {
  std::string buffer;
  const std::vector<std::string> payloads = {"a", std::string(1000, 'x'), "",
                                             std::string("\0\n|", 3)};
  for (const auto& p : payloads) {
    AppendFrame(&buffer, p);
  }
  FrameParser parser(buffer);
  std::string_view payload;
  for (const auto& p : payloads) {
    ASSERT_TRUE(parser.Next(&payload));
    EXPECT_EQ(payload, p);
  }
  EXPECT_FALSE(parser.Next(&payload));
  EXPECT_TRUE(parser.AtEnd());
}

TEST(CkptFrames, OversizedLengthRejectedWithoutAllocating) {
  std::string buffer;
  PutU32(&buffer, 0xFFFFFFFFu);  // Length far beyond kMaxFramePayloadBytes.
  PutU32(&buffer, 0);
  FrameParser parser(buffer);
  std::string_view payload;
  EXPECT_FALSE(parser.Next(&payload));
  EXPECT_FALSE(parser.ok());
  EXPECT_FALSE(parser.AtEnd());
}

TEST(CkptFrames, ByteCursorUnderflowIsSafe) {
  std::string buffer;
  PutU32(&buffer, 7);
  ByteCursor cursor{buffer, 0};
  uint64_t v64 = 0;
  EXPECT_FALSE(cursor.GetU64(&v64));  // Only 4 bytes available.
  uint32_t v32 = 0;
  EXPECT_TRUE(cursor.GetU32(&v32));
  EXPECT_EQ(v32, 7u);
  std::string_view bytes;
  EXPECT_FALSE(cursor.GetBytes(&bytes));  // No length prefix left.
}

// --- Snapshot encode/decode ---

TEST(CkptSnapshot, EncodeDecodeRoundTrip) {
  const CheckpointState state = MakeState();
  const std::string bytes = EncodeSnapshot(state);
  CheckpointState decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded));
  ExpectStatesEqual(state, decoded);
}

TEST(CkptSnapshot, EmptyStateRoundTrips) {
  CheckpointState state;  // Cold checkpoint: offset 0, nothing open or stored.
  const std::string bytes = EncodeSnapshot(state);
  CheckpointState decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded));
  ExpectStatesEqual(state, decoded);
}

TEST(CkptSnapshot, PartsEncodingMatchesMonolithic) {
  const CheckpointState state = MakeState();
  const std::string monolithic = EncodeSnapshot(state);

  // Store section pre-encoded (the incremental-cache shape): byte-identical,
  // because the store section is the last one in the head.
  {
    CheckpointState no_store = MakeState();
    std::string store_frames;
    StoreFrameEncoder store_encoder;
    for (const auto& s : no_store.store_sessions) {
      store_encoder.Append(s, &store_frames);
    }
    const uint64_t store_count = no_store.store_sessions.size();
    no_store.store_sessions.clear();
    std::string head, tail;
    EncodeSnapshotParts(no_store, 0, store_count, &head, &tail);
    EXPECT_EQ(head + store_frames + tail, monolithic);
  }

  // Open + store sections both pre-encoded (the async-writer shape): frame
  // order differs from the monolithic layout, but the decoder accepts
  // sections in any order and the decoded state must match exactly.
  {
    CheckpointState skeleton = MakeState();
    std::string open_frames, store_frames;
    OpenFrameEncoder open_encoder;
    StoreFrameEncoder store_encoder;
    for (const auto& f : skeleton.closers.open) {
      open_encoder.Append(f.id, f.last_time, f.records, &open_frames);
    }
    for (const auto& s : skeleton.store_sessions) {
      store_encoder.Append(s, &store_frames);
    }
    const uint64_t open_count = skeleton.closers.open.size();
    const uint64_t store_count = skeleton.store_sessions.size();
    skeleton.closers.open.clear();
    skeleton.store_sessions.clear();
    std::string head, tail;
    EncodeSnapshotParts(skeleton, open_count, store_count, &head, &tail);
    CheckpointState decoded;
    ASSERT_TRUE(
        DecodeSnapshot(head + open_frames + store_frames + tail, &decoded));
    ExpectStatesEqual(state, decoded);
  }
}

TEST(CkptTemplateFrame, MinerStateRoundTripsThroughSnapshot) {
  // The 'T' frame must restore the miner exactly: same ids, same vars, same
  // internal state, so a kill -9 -> restore continues byte-identically.
  TemplateMiner miner;
  for (int i = 0; i < 500; ++i) {
    miner.Mine("user " + std::to_string(i % 17) + " fetched profile in " +
               std::to_string(i) + "ms");
  }
  CheckpointState state;
  state.has_miner = true;
  state.miner = miner.Export();
  const std::string bytes = EncodeSnapshot(state);
  CheckpointState decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded));
  ASSERT_TRUE(decoded.has_miner);
  TemplateMiner restored;
  ASSERT_TRUE(restored.Import(decoded.miner));
  std::vector<std::string_view> v1, v2;
  for (int i = 0; i < 100; ++i) {
    const std::string p =
        "user 3 fetched profile in " + std::to_string(1000 + i) + "ms";
    ASSERT_EQ(miner.Mine(p, &v1), restored.Mine(p, &v2));
    ASSERT_EQ(v1, v2);
  }
  EXPECT_TRUE(miner.Export() == restored.Export());
}

TEST(CkptTemplateFrame, AbsentMinerDecodesAsAbsent) {
  // Mining-disabled pipelines write no 'T' frame; the header says so and the
  // decode yields has_miner == false.
  const CheckpointState state;
  const std::string bytes = EncodeSnapshot(state);
  CheckpointState decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded));
  EXPECT_FALSE(decoded.has_miner);
  EXPECT_TRUE(decoded.miner.nodes.empty());
}

TEST(CkptSnapshot, TruncationAtEveryByteFailsValidation) {
  const std::string bytes = EncodeSnapshot(MakeState());
  ASSERT_GT(bytes.size(), 100u);
  // Every strict prefix — which covers every frame boundary and every torn
  // write inside a frame — must be rejected as a whole, never half-loaded.
  for (size_t len = 0; len < bytes.size(); ++len) {
    CheckpointState decoded;
    EXPECT_FALSE(DecodeSnapshot(std::string_view(bytes.data(), len), &decoded))
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(CkptSnapshot, SeededBitFlipsFailValidation) {
  std::string bytes = EncodeSnapshot(MakeState());
  Rng rng(0xC4C4C4C4ULL);
  for (int trial = 0; trial < 512; ++trial) {
    const size_t byte = static_cast<size_t>(rng.NextBelow(bytes.size()));
    const char flip = static_cast<char>(1u << rng.NextBelow(8));
    bytes[byte] ^= flip;
    CheckpointState decoded;
    EXPECT_FALSE(DecodeSnapshot(bytes, &decoded))
        << "bit flip at byte " << byte << " decoded";
    bytes[byte] ^= flip;  // Restore for the next trial.
  }
  CheckpointState decoded;
  EXPECT_TRUE(DecodeSnapshot(bytes, &decoded));  // Restores were exact.
}

TEST(CkptSnapshot, TrailingGarbageAndFrameTamperingRejected) {
  const CheckpointState state = MakeState();
  std::string bytes = EncodeSnapshot(state);
  CheckpointState decoded;

  // Valid bytes followed by a spare valid frame: the footer must be last.
  std::string trailing = bytes;
  AppendFrame(&trailing, "Z");
  EXPECT_FALSE(DecodeSnapshot(trailing, &decoded));

  // Dropping one mid-file frame breaks the header's section counts even
  // though every remaining frame still carries a valid CRC.
  FrameParser parser(bytes);
  std::string_view payload;
  ASSERT_TRUE(parser.Next(&payload));  // Header.
  const size_t first_len = 8 + payload.size();
  ASSERT_TRUE(parser.Next(&payload));  // First 'O' frame.
  const size_t second_len = 8 + payload.size();
  std::string dropped = bytes.substr(0, first_len) +
                        bytes.substr(first_len + second_len);
  EXPECT_FALSE(DecodeSnapshot(dropped, &decoded));
}

// --- Checkpointer: rotation, fallback, atomic writes ---

class CkptRotation : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ts_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    // Fresh directory per test; stale files would change rotation counts.
    std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  CheckpointState StateAtOffset(uint64_t offset) {
    CheckpointState state = MakeState();
    state.resume_offset = offset;
    return state;
  }

  std::string dir_;
};

TEST_F(CkptRotation, RetainsNewestKAndRestoresLatest) {
  CheckpointerOptions options;
  options.dir = dir_;
  options.retain = 3;
  options.interval_ms = 0;
  Checkpointer ckpt(options);
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(ckpt.Write(StateAtOffset(i * 100)));
  }
  EXPECT_EQ(ckpt.ListSnapshots().size(), 3u);

  CheckpointState state;
  const RestoreResult rr = ckpt.RestoreLatest(&state);
  EXPECT_TRUE(rr.restored);
  EXPECT_EQ(rr.fallbacks, 0u);
  EXPECT_EQ(state.resume_offset, 500u);
  // The atomic-rename protocol never leaves a temp file behind.
  EXPECT_NE(::access((rr.path + ".tmp").c_str(), F_OK), 0);
}

TEST_F(CkptRotation, DamagedNewestFallsBackToPrevious) {
  CheckpointerOptions options;
  options.dir = dir_;
  options.interval_ms = 0;
  Checkpointer ckpt(options);
  ASSERT_TRUE(ckpt.Write(StateAtOffset(100)));
  ASSERT_TRUE(ckpt.Write(StateAtOffset(200)));

  // Truncate the newest snapshot in place — a torn write that somehow
  // survived rename (e.g. media damage) rather than a crashed writer.
  const std::vector<uint64_t> seqs = ckpt.ListSnapshots();
  ASSERT_EQ(seqs.size(), 2u);
  const std::string newest = ckpt.SnapshotPath(seqs.back());
  std::string bytes;
  ASSERT_TRUE(ReadFile(newest, &bytes));
  FILE* f = std::fopen(newest.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
  std::fclose(f);

  CheckpointState state;
  const RestoreResult rr = ckpt.RestoreLatest(&state);
  EXPECT_TRUE(rr.restored);
  EXPECT_EQ(rr.fallbacks, 1u);
  EXPECT_EQ(state.resume_offset, 100u);
}

TEST_F(CkptRotation, AllSnapshotsDamagedMeansColdStartNotCrash) {
  CheckpointerOptions options;
  options.dir = dir_;
  options.interval_ms = 0;
  Checkpointer ckpt(options);
  ASSERT_TRUE(ckpt.Write(StateAtOffset(100)));
  ASSERT_TRUE(ckpt.Write(StateAtOffset(200)));
  for (uint64_t seq : ckpt.ListSnapshots()) {
    FILE* f = std::fopen(ckpt.SnapshotPath(seq).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a snapshot", f);
    std::fclose(f);
  }
  CheckpointState state;
  const RestoreResult rr = ckpt.RestoreLatest(&state);
  EXPECT_FALSE(rr.restored);
  EXPECT_EQ(rr.fallbacks, 2u);
  EXPECT_EQ(state.resume_offset, 0u);  // Cold start replays from scratch.
}

TEST_F(CkptRotation, SequenceNumbersContinueAcrossRestart) {
  CheckpointerOptions options;
  options.dir = dir_;
  options.interval_ms = 0;
  {
    Checkpointer ckpt(options);
    ASSERT_TRUE(ckpt.Write(StateAtOffset(100)));
    ASSERT_TRUE(ckpt.Write(StateAtOffset(200)));
  }
  Checkpointer reopened(options);
  ASSERT_TRUE(reopened.Write(StateAtOffset(300)));
  const std::vector<uint64_t> seqs = reopened.ListSnapshots();
  ASSERT_EQ(seqs.size(), 3u);
  // Strictly increasing: the reopened writer never reuses (and so never
  // clobbers) a sequence number from the previous incarnation.
  EXPECT_LT(seqs[0], seqs[1]);
  EXPECT_LT(seqs[1], seqs[2]);
  CheckpointState state;
  EXPECT_TRUE(reopened.RestoreLatest(&state).restored);
  EXPECT_EQ(state.resume_offset, 300u);
}

// --- Capture/restore through a live pipeline, across worker counts ---

struct DigestRun {
  uint64_t sessions = 0;
  uint64_t xor_digest = 0;
  uint64_t store_digest = 0;
};

// Feeds `lines`, checkpointing after `split` lines through the async writer,
// restoring the snapshot from disk into a second pipeline with a different
// worker count, and feeding the rest. With split == lines.size() the
// snapshot is still mid-stream (nothing is force-closed); split == 0
// degenerates to a cold start.
DigestRun RunWithHandoff(const std::vector<std::string>& lines, size_t split,
                         size_t workers_a, size_t workers_b) {
  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  CheckpointState snapshot;
  {
    static int runs = 0;
    CheckpointerOptions ckpt_options;
    ckpt_options.dir = ::testing::TempDir() + "ts_ckpt_handoff_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(runs++);
    ckpt_options.interval_ms = 0;
    const std::string cleanup = "rm -rf '" + ckpt_options.dir + "'";
    EXPECT_EQ(std::system(cleanup.c_str()), 0);
    Checkpointer ckpt(ckpt_options);
    SessionStore store_a(store_options);
    LivePipelineOptions options_a;
    options_a.workers = workers_a;
    LivePipeline pipeline_a(options_a, [&store_a](Session&& s) {
      store_a.Insert(std::move(s));
    });
    AsyncCheckpointer writer(&ckpt, &pipeline_a, &store_a,
                             AsyncCheckpointer::Options{});
    for (size_t i = 0; i < split; ++i) {
      pipeline_a.FeedLine(lines[i]);
    }
    EXPECT_TRUE(writer.RequestCheckpoint(split));
    writer.Drain();
    // Read back from disk, exactly like a real restart. pipeline_a is
    // abandoned here: its post-snapshot state is "lost in the crash" along
    // with store_a.
    EXPECT_TRUE(ckpt.RestoreLatest(&snapshot).restored);
    EXPECT_EQ(std::system(cleanup.c_str()), 0);
  }

  DigestRun result;
  SessionStore store_b(store_options);
  std::mutex mu;
  std::set<std::string> ids;
  LivePipelineOptions options_b;
  options_b.workers = workers_b;
  LivePipeline pipeline_b(options_b, [&](Session&& s) {
    thread_local std::string scratch;
    const uint64_t d = SessionDigest(s, &scratch);
    {
      std::lock_guard<std::mutex> lock(mu);
      result.xor_digest ^= d;
      ++result.sessions;
      ids.insert(s.id);
    }
    store_b.Insert(std::move(s));
  });
  RestoreLiveCheckpoint(std::move(snapshot), &pipeline_b, &store_b);
  // Sessions the snapshot already holds count toward the multiset digest.
  std::string scratch;
  store_b.ForEachSession([&](const Session& s) {
    result.xor_digest ^= SessionDigest(s, &scratch);
    ++result.sessions;
    ids.insert(s.id);
  });
  for (size_t i = split; i < lines.size(); ++i) {
    pipeline_b.FeedLine(lines[i]);
  }
  pipeline_b.Finish();
  result.store_digest = ChainedStoreDigest(store_b, ids);
  return result;
}

TEST(CkptRecoveryDeterminism, HandoffMatchesStraightRunAcrossWorkerCounts) {
  const std::vector<std::string> lines = MakeLines(21, 2'000, 2);
  ASSERT_GT(lines.size(), 1'000u);
  // Reference: no handoff at all (split at 0 into the same pipeline shape).
  const DigestRun reference =
      RunWithHandoff(lines, 0, /*workers_a=*/1, /*workers_b=*/2);
  ASSERT_GT(reference.sessions, 0u);

  const size_t splits[] = {1, lines.size() / 3, lines.size() / 2,
                           lines.size() - 1, lines.size()};
  const size_t worker_pairs[][2] = {{1, 1}, {1, 4}, {4, 1}, {3, 2}};
  for (const size_t split : splits) {
    for (const auto& pair : worker_pairs) {
      const DigestRun run = RunWithHandoff(lines, split, pair[0], pair[1]);
      EXPECT_EQ(run.sessions, reference.sessions)
          << "split " << split << " workers " << pair[0] << "->" << pair[1];
      EXPECT_EQ(run.xor_digest, reference.xor_digest)
          << "split " << split << " workers " << pair[0] << "->" << pair[1];
      EXPECT_EQ(run.store_digest, reference.store_digest)
          << "split " << split << " workers " << pair[0] << "->" << pair[1];
    }
  }
}

TEST(CkptRecoveryDeterminism, CheckpointerEndToEndThroughDisk) {
  const std::vector<std::string> lines = MakeLines(23, 1'000, 1);
  ASSERT_GT(lines.size(), 200u);

  CheckpointerOptions options;
  options.dir = ::testing::TempDir() + "ts_ckpt_e2e_" +
                std::to_string(::getpid());
  options.interval_ms = 0;
  std::string cmd = "rm -rf '" + options.dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  Checkpointer ckpt(options);

  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  {
    SessionStore store(store_options);
    LivePipelineOptions pipe_options;
    pipe_options.workers = 2;
    LivePipeline pipeline(pipe_options,
                          [&store](Session&& s) { store.Insert(std::move(s)); });
    AsyncCheckpointer writer(&ckpt, &pipeline, &store,
                             AsyncCheckpointer::Options{});
    const size_t split = lines.size() / 2;
    for (size_t i = 0; i < split; ++i) {
      pipeline.FeedLine(lines[i]);
    }
    ASSERT_TRUE(writer.RequestCheckpoint(split));
    writer.Drain();
    ASSERT_EQ(ckpt.snapshots_taken(), 1u);
  }

  CheckpointState state;
  ASSERT_TRUE(ckpt.RestoreLatest(&state).restored);
  EXPECT_EQ(state.resume_offset, lines.size() / 2);

  DigestRun resumed;
  SessionStore store(store_options);
  std::set<std::string> ids;
  std::mutex mu;
  LivePipelineOptions pipe_options;
  pipe_options.workers = 3;
  LivePipeline pipeline(pipe_options, [&](Session&& s) {
    thread_local std::string scratch;
    const uint64_t d = SessionDigest(s, &scratch);
    {
      std::lock_guard<std::mutex> lock(mu);
      resumed.xor_digest ^= d;
      ++resumed.sessions;
      ids.insert(s.id);
    }
    store.Insert(std::move(s));
  });
  RestoreLiveCheckpoint(std::move(state), &pipeline, &store);
  std::string scratch;
  store.ForEachSession([&](const Session& s) {
    resumed.xor_digest ^= SessionDigest(s, &scratch);
    ++resumed.sessions;
    ids.insert(s.id);
  });
  for (size_t i = lines.size() / 2; i < lines.size(); ++i) {
    pipeline.FeedLine(lines[i]);
  }
  pipeline.Finish();
  resumed.store_digest = ChainedStoreDigest(store, ids);

  const DigestRun reference = RunWithHandoff(lines, 0, 1, 2);
  EXPECT_EQ(resumed.sessions, reference.sessions);
  EXPECT_EQ(resumed.xor_digest, reference.xor_digest);
  EXPECT_EQ(resumed.store_digest, reference.store_digest);
}

// The async writer's full path — two-phase barrier, open-fragment visitor,
// incremental store-frame cache, scatter write — must produce snapshots a
// restart resumes from with digests identical to a crash-free run. A short
// inactivity window keeps sessions closing throughout the trace, so the
// snapshots carry non-trivial open AND store sections.
TEST(CkptRecoveryDeterminism, AsyncCheckpointerEndToEndThroughDisk) {
  const std::vector<std::string> lines = MakeLines(29, 1'500, 2);
  ASSERT_GT(lines.size(), 400u);
  const size_t split = lines.size() / 2;
  const EventTime inactivity_ns = kNanosPerSecond / 2;

  const auto run_digests = [&](SessionStore* store, DigestRun* out,
                               std::mutex* mu, std::set<std::string>* ids) {
    // Shared sink body: XOR-multiset digest + id set + store insert.
    return [=](Session&& s) {
      thread_local std::string scratch;
      const uint64_t d = SessionDigest(s, &scratch);
      {
        std::lock_guard<std::mutex> lock(*mu);
        out->xor_digest ^= d;
        ++out->sessions;
        ids->insert(s.id);
      }
      store->Insert(std::move(s));
    };
  };

  CheckpointerOptions options;
  options.dir = ::testing::TempDir() + "ts_ckpt_async_e2e_" +
                std::to_string(::getpid());
  options.interval_ms = 0;
  std::string cmd = "rm -rf '" + options.dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  Checkpointer ckpt(options);

  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  {
    SessionStore store(store_options);
    LivePipelineOptions pipe_options;
    pipe_options.workers = 2;
    pipe_options.inactivity_ns = inactivity_ns;
    LivePipeline pipeline(pipe_options,
                          [&store](Session&& s) { store.Insert(std::move(s)); });
    AsyncCheckpointer async_ckpt(&ckpt, &pipeline, &store,
                                 AsyncCheckpointer::Options{});
    // Several drained snapshots so the incremental cache advances across
    // snapshots instead of being exercised only once.
    for (size_t i = 0; i < split; ++i) {
      pipeline.FeedLine(lines[i]);
      if ((i + 1) % (split / 3) == 0) {
        pipeline.Flush();
        ASSERT_TRUE(async_ckpt.RequestCheckpoint(i + 1));
        async_ckpt.Drain();
      }
    }
    ASSERT_TRUE(async_ckpt.RequestCheckpoint(split));
    async_ckpt.Drain();
    EXPECT_GE(ckpt.snapshots_taken(), 4u);
    EXPECT_GT(store.stats().inserted, 0u);  // Store section was non-trivial.
    // The pipeline keeps running past the last snapshot; everything after it
    // is "lost in the crash".
    for (size_t i = split; i < lines.size(); ++i) {
      pipeline.FeedLine(lines[i]);
    }
  }

  CheckpointState state;
  ASSERT_TRUE(ckpt.RestoreLatest(&state).restored);
  ASSERT_EQ(state.resume_offset, split);

  DigestRun resumed;
  {
    SessionStore store(store_options);
    std::set<std::string> ids;
    std::mutex mu;
    LivePipelineOptions pipe_options;
    pipe_options.workers = 3;
    pipe_options.inactivity_ns = inactivity_ns;
    LivePipeline pipeline(
        pipe_options, run_digests(&store, &resumed, &mu, &ids));
    RestoreLiveCheckpoint(std::move(state), &pipeline, &store);
    std::string scratch;
    store.ForEachSession([&](const Session& s) {
      resumed.xor_digest ^= SessionDigest(s, &scratch);
      ++resumed.sessions;
      ids.insert(s.id);
    });
    for (size_t i = split; i < lines.size(); ++i) {
      pipeline.FeedLine(lines[i]);
    }
    pipeline.Finish();
    resumed.store_digest = ChainedStoreDigest(store, ids);
  }

  // Reference: the same trace through one crash-free pipeline.
  DigestRun reference;
  {
    SessionStore store(store_options);
    std::set<std::string> ids;
    std::mutex mu;
    LivePipelineOptions pipe_options;
    pipe_options.workers = 2;
    pipe_options.inactivity_ns = inactivity_ns;
    LivePipeline pipeline(
        pipe_options, run_digests(&store, &reference, &mu, &ids));
    for (const auto& l : lines) {
      pipeline.FeedLine(l);
    }
    pipeline.Finish();
    reference.store_digest = ChainedStoreDigest(store, ids);
  }
  ASSERT_GT(reference.sessions, 0u);
  EXPECT_EQ(resumed.sessions, reference.sessions);
  EXPECT_EQ(resumed.xor_digest, reference.xor_digest);
  EXPECT_EQ(resumed.store_digest, reference.store_digest);
}

// Store eviction between snapshots must drop evicted entries off the cache
// front: the snapshot's store section always equals the store's live content.
TEST(CkptRecoveryDeterminism, AsyncCheckpointerCacheTracksEviction) {
  const std::vector<std::string> lines = MakeLines(31, 2'000, 2);
  ASSERT_GT(lines.size(), 400u);

  CheckpointerOptions options;
  options.dir = ::testing::TempDir() + "ts_ckpt_async_evict_" +
                std::to_string(::getpid());
  options.interval_ms = 0;
  std::string cmd = "rm -rf '" + options.dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  Checkpointer ckpt(options);

  SessionStore::Options store_options;
  store_options.max_bytes = 64 << 10;  // Tight: forces continuous eviction.
  SessionStore store(store_options);
  LivePipelineOptions pipe_options;
  pipe_options.workers = 2;
  pipe_options.inactivity_ns = kNanosPerSecond / 5;  // Sessions close early.
  LivePipeline pipeline(pipe_options,
                        [&store](Session&& s) { store.Insert(std::move(s)); });
  AsyncCheckpointer async_ckpt(&ckpt, &pipeline, &store,
                               AsyncCheckpointer::Options{});
  size_t fed = 0;
  for (const auto& l : lines) {
    pipeline.FeedLine(l);
    if (++fed % (lines.size() / 5) == 0) {
      pipeline.Flush();
      ASSERT_TRUE(async_ckpt.RequestCheckpoint(fed));
      // Drained and the ingest thread is not feeding: the shards are idle, so
      // the live store is exactly the barrier-aligned store.
      async_ckpt.Drain();

      CheckpointState state;
      ASSERT_TRUE(ckpt.RestoreLatest(&state).restored);
      std::vector<uint64_t> live;
      std::string scratch;
      store.ForEachSession([&](const Session& s) {
        live.push_back(SessionDigest(s, &scratch));
      });
      ASSERT_EQ(state.store_sessions.size(), live.size());
      for (size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(SessionDigest(state.store_sessions[i], &scratch), live[i]);
      }
    }
  }
  async_ckpt.Drain();
  EXPECT_GT(store.stats().evicted, 0u);  // The scenario really evicted.
}

}  // namespace
}  // namespace ts
