// Property suite for the SWAR zero-copy ingest scan (docs/INGEST.md).
//
// Three equivalence contracts, each enforced byte-for-byte against a scalar
// reference over adversarial corpora:
//
//   1. FindByte / ScanSeparators == their byte-at-a-time references, on
//      every substring (all unaligned starts, all lengths crossing word
//      boundaries) of hostile buffers — NULs, 0x7f/0x80 lanes adjacent to
//      the needle value (the bytes where Mycroft borrow propagation flags
//      spurious lanes), runs of separators, empty inputs.
//   2. MaterializeRecord(ScanRecord(line)) == ParseWireFormat(line): accepts
//      exactly the same lines and produces identical LogRecords — on valid
//      wire lines, every prefix truncation of them, and a malformed corpus.
//   3. LineFramer::FeedViews == LineFramer::Feed at EVERY split point of a
//      wire byte stream (the LineFramerProperty pattern), including CRLF,
//      oversized lines, and mid-line connection resets; and
//      LivePipeline::FeedBlock == FeedLine on the same stream (identical
//      session digests at 1/2/4 workers).
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/arena.h"
#include "src/core/live_pipeline.h"
#include "src/log/record_batch.h"
#include "src/log/record_view.h"
#include "src/log/swar_scan.h"
#include "src/log/wire_format.h"
#include "src/net/frame_reader.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

// ---------------------------------------------------------------------------
// Corpora.

// Bytes chosen to stress the Mycroft trick around needle '|' (0x7c) and
// '\n' (0x0a): values one off from the needle, 0x00/0x7f/0x80/0xff lanes,
// and long runs of the needle itself.
std::vector<std::string> HostileBuffers() {
  std::vector<std::string> corpus = {
      "",
      "|",
      "||||||||||||||||||",
      "a|b|c|d|e|f|g",
      std::string(1, '\0'),
      std::string(9, '\0') + "|" + std::string(9, '\0'),
      "abc\x7b\x7c\x7d\x7e\x7f",          // Bytes adjacent to '|'.
      "a|}xxxxx",                          // Borrow-propagation false lane.
      "\x80\xff\x80\xff|\x80\xff",
      "seven77|eight888|nine9999|",        // Matches at lanes 7, 0 of words.
      std::string(64, 'x') + "|" + std::string(64, 'y'),
      "x|\ny|\r\nz",
  };
  // One long mixed buffer exercising every lane position.
  std::string mixed;
  for (int i = 0; i < 257; ++i) {
    mixed.push_back(static_cast<char>(i));
  }
  corpus.push_back(mixed);
  return corpus;
}

std::vector<std::string> WireCorpus() {
  std::vector<std::string> lines;
  GeneratorConfig config;
  config.seed = 4242;
  config.duration_ns = 1 * kNanosPerSecond;
  config.target_records_per_sec = 500;
  TraceGenerator gen(config);
  Epoch epoch = 0;
  std::vector<LogRecord> records;
  while (gen.NextEpoch(&epoch, &records)) {
    for (const auto& r : records) {
      lines.push_back(ToWireFormat(r));
    }
  }
  return lines;
}

// Lines ParseWireFormat must reject (plus a few it must accept in edge
// shapes), used for accept/reject parity.
std::vector<std::string> MalformedCorpus() {
  return {
      "",
      "|",
      "||||||",
      "1|s|1-2|svc-1|h-1",                      // 4 seps: too few fields.
      "1|s|1-2|svc-1|h-1|",                     // 5 seps, empty kind.
      "1|s|1-2|svc-1|h-1|START",                // 5 seps, kind, no payload.
      "1|s|1-2|svc-1|h-1|START|",               // 6 seps, empty payload.
      "1|s|1-2|svc-1|h-1|START|p",              // Valid.
      "1|s|1-2|svc-1|h-1|start|p",              // Lowercase kind.
      "1|s|1-2|svc-1|h-1|STARTX|p",             // Kind with trailing junk.
      "x|s|1-2|svc-1|h-1|START|p",              // Non-numeric time.
      "1x|s|1-2|svc-1|h-1|START|p",             // Time with trailing junk.
      "-5|s|1-2|svc-1|h-1|START|p",             // Negative time: accepted.
      "99999999999999999999|s|1-2|svc-1|h-1|START|p",  // Time overflow.
      "1||1-2|svc-1|h-1|START|p",               // Empty session id.
      "1|s||svc-1|h-1|START|p",                 // Empty txn id.
      "1|s|1-2-x|svc-1|h-1|START|p",            // Corrupt txn id.
      "1|s|1-2|h-1|svc-1|START|p",              // Swapped svc/host fields.
      "1|s|1-2|svc-|h-1|START|p",               // Prefix with no digits.
      "1|s|1-2|svc-1x|h-1|START|p",             // Service trailing junk.
      "1|s|1-2|svc-4294967296|h-1|START|p",     // Service u32 overflow.
      "1|s|1-2|svc-1|hh-1|START|p",             // Wrong host prefix.
      "1|s|1-2|svc-1|h-1|START|p|q|r",          // Pipes in payload: accepted.
      std::string("1|s\0s|1-2|svc-1|h-1|START|p", 27),  // NUL in session.
      std::string("1|s|1-2|svc-1\0|h-1|START|p", 26),   // NUL in service.
      "1|s|1-2|svc-00000001|h-1|START|p",       // >8-byte field, valid u32.
  };
}

// ---------------------------------------------------------------------------
// 1. Scanner vs scalar reference.

TEST(SwarScan, FindByteMatchesScalarOnAllSubstrings) {
  for (const std::string& buf : HostileBuffers()) {
    for (const char needle : {'|', '\n', '\0', 'x', '\x7f', '\x80'}) {
      for (size_t begin = 0; begin <= buf.size() && begin < 24; ++begin) {
        for (size_t len = 0; begin + len <= buf.size(); ++len) {
          const char* p = buf.data() + begin;
          ASSERT_EQ(FindByte(p, len, needle), FindByteScalar(p, len, needle))
              << "begin=" << begin << " len=" << len << " needle="
              << static_cast<int>(needle);
        }
      }
    }
  }
}

TEST(SwarScan, ScanSeparatorsMatchesScalarOnAllSubstrings) {
  for (const std::string& buf : HostileBuffers()) {
    for (size_t begin = 0; begin <= buf.size() && begin < 24; ++begin) {
      for (size_t len = 0; begin + len <= buf.size(); ++len) {
        const std::string_view view(buf.data() + begin, len);
        for (size_t max_seps = 1; max_seps <= RecordView::kMaxSeps;
             ++max_seps) {
          size_t got[RecordView::kMaxSeps];
          size_t want[RecordView::kMaxSeps];
          const size_t got_n = ScanSeparators(view, '|', got, max_seps);
          const size_t want_n =
              ScanSeparatorsScalar(view, '|', want, max_seps);
          ASSERT_EQ(got_n, want_n)
              << "begin=" << begin << " len=" << len << " max=" << max_seps;
          for (size_t i = 0; i < got_n; ++i) {
            ASSERT_EQ(got[i], want[i]) << "sep " << i;
          }
        }
      }
    }
  }
}

TEST(SwarScan, ScanRecordMatchesScalarOnWireCorpus) {
  for (const std::string& line : WireCorpus()) {
    const RecordView a = ScanRecord(line);
    const RecordView b = ScanRecordScalar(line);
    ASSERT_EQ(a.sep_count, b.sep_count) << line;
    for (size_t i = 0; i < a.sep_count; ++i) {
      ASSERT_EQ(a.sep[i], b.sep[i]) << line;
    }
  }
}

// Unaligned starts: the same bytes at every offset 1..7 within a page must
// scan identically (Load64 goes through memcpy; this is the regression guard
// for anyone "optimizing" it into an aligned load).
TEST(SwarScan, UnalignedStartsScanIdentically) {
  const std::string line = "599859123|XKSHSK|26-3-11|svc-204|h-17|ANNOT|q=1";
  std::vector<char> page(line.size() + 16);
  for (size_t offset = 0; offset < 8; ++offset) {
    std::memcpy(page.data() + offset, line.data(), line.size());
    const std::string_view shifted(page.data() + offset, line.size());
    const RecordView a = ScanRecord(shifted);
    const RecordView b = ScanRecordScalar(line);
    ASSERT_EQ(a.sep_count, b.sep_count) << "offset=" << offset;
    for (size_t i = 0; i < a.sep_count; ++i) {
      ASSERT_EQ(a.sep[i], b.sep[i]) << "offset=" << offset;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. MaterializeRecord vs ParseWireFormat.

void ExpectParseParity(std::string_view line, InternerPair* interners) {
  const std::optional<LogRecord> want = ParseWireFormat(line);
  LogRecord got;
  const bool ok = MaterializeRecord(ScanRecord(line), interners, &got);
  ASSERT_EQ(ok, want.has_value())
      << "accept/reject divergence on: " << std::string(line);
  if (!ok) {
    return;
  }
  EXPECT_EQ(got.time, want->time);
  EXPECT_EQ(got.session_id, want->session_id);
  EXPECT_EQ(got.txn_id, want->txn_id);
  EXPECT_EQ(got.service, want->service);
  EXPECT_EQ(got.host, want->host);
  EXPECT_EQ(got.kind, want->kind);
  EXPECT_EQ(got.payload, want->payload);
}

TEST(RecordViewParity, WireCorpusAndEveryTruncation) {
  InternerPair interners;
  for (const std::string& line : WireCorpus()) {
    ExpectParseParity(line, &interners);
    ExpectParseParity(line, nullptr);  // Uncached path must agree too.
    // Every prefix of a valid line (most are malformed): accept/reject
    // parity across all truncation points.
    for (size_t len = 0; len < line.size(); ++len) {
      ExpectParseParity(std::string_view(line.data(), len), &interners);
    }
  }
}

TEST(RecordViewParity, MalformedCorpus) {
  InternerPair interners;
  for (const std::string& line : MalformedCorpus()) {
    ExpectParseParity(line, &interners);
    ExpectParseParity(line, nullptr);
  }
}

TEST(RecordViewParity, InternerIsPrefixIsolatedAndNulSafe) {
  FieldInterner svc("svc-");
  uint32_t id = 0;
  EXPECT_TRUE(svc.Lookup("svc-7", &id));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(svc.size(), 1u);
  // Cached entry must not leak across prefixes: an interner constructed for
  // "h-" rejects "svc-7" even though the svc interner has it cached.
  FieldInterner host("h-");
  EXPECT_FALSE(host.Lookup("svc-7", &id));
  // NUL-bearing fields (which would alias the zero padding in the packed
  // key) bypass the cache and fail like the scalar parser.
  EXPECT_FALSE(svc.Lookup(std::string_view("svc-7\0", 6), &id));
  EXPECT_TRUE(svc.Lookup("svc-7", &id));
  EXPECT_EQ(id, 7u);
  // >8-byte fields parse correctly without being cached.
  EXPECT_TRUE(svc.Lookup("svc-123456789", &id) ==
              wire::ParsePrefixedU32("svc-123456789", "svc-").has_value());
  svc.Clear();
  EXPECT_EQ(svc.size(), 0u);
  EXPECT_TRUE(svc.Lookup("svc-7", &id));  // Pure cache: same answer after.
  EXPECT_EQ(id, 7u);
}

TEST(RecordViewParity, RouteKeyMatchesParsedFields) {
  for (const std::string& line : WireCorpus()) {
    EventTime time = 0;
    std::string_view session;
    ASSERT_TRUE(ExtractRouteKey(ScanRecord(line), &time, &session));
    const auto parsed = ParseWireFormat(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(time, parsed->time);
    EXPECT_EQ(session, parsed->session_id);
  }
  EventTime time = 0;
  std::string_view session;
  EXPECT_FALSE(ExtractRouteKey(ScanRecord("x|s|rest"), &time, &session));
  EXPECT_FALSE(ExtractRouteKey(ScanRecord("1||rest"), &time, &session));
  EXPECT_FALSE(ExtractRouteKey(ScanRecord("|s|rest"), &time, &session));
  EXPECT_FALSE(ExtractRouteKey(ScanRecord("nodelims"), &time, &session));
  EXPECT_FALSE(ExtractRouteKey(ScanRecord("-|s|rest"), &time, &session));
  EXPECT_FALSE(ExtractRouteKey(ScanRecord("--1|s|rest"), &time, &session));
  // Negative times route by session id like any other: a session keyed
  // before 0 must not scatter across shards.
  ASSERT_TRUE(ExtractRouteKey(ScanRecord("-1500|neg|rest"), &time, &session));
  EXPECT_EQ(time, -1500);
  EXPECT_EQ(session, "neg");
  ASSERT_TRUE(ExtractRouteKey(ScanRecord("-9223372036854775808|m|rest"), &time,
                              &session));
  EXPECT_EQ(time, std::numeric_limits<EventTime>::min());
}

// ---------------------------------------------------------------------------
// 3. Framer and pipeline equivalence.

// Both framer paths over the same byte stream split at `split`: identical
// lines, identical frame errors, identical pending bytes.
void ExpectFramerParity(const std::string& stream, size_t split,
                        size_t max_line_bytes) {
  LineFramer::Options options;
  options.max_line_bytes = max_line_bytes;
  LineFramer copying(options);
  LineFramer viewing(options);
  std::vector<std::string> copied;
  std::vector<std::string_view> viewed;
  Arena arena;

  // The view path requires data in arena-lifetime storage, as recv() into an
  // arena provides; stage both halves there.
  const std::string_view first =
      arena.Copy(std::string_view(stream).substr(0, split));
  const std::string_view second =
      arena.Copy(std::string_view(stream).substr(split));
  copying.Feed(stream.substr(0, split), &copied);
  copying.Feed(stream.substr(split), &copied);
  viewing.FeedViews(first, &arena, &viewed);
  viewing.FeedViews(second, &arena, &viewed);

  ASSERT_EQ(viewed.size(), copied.size()) << "split=" << split;
  for (size_t i = 0; i < copied.size(); ++i) {
    ASSERT_EQ(viewed[i], copied[i]) << "split=" << split << " line " << i;
  }
  EXPECT_EQ(viewing.frame_errors(), copying.frame_errors())
      << "split=" << split;
  EXPECT_EQ(viewing.pending_bytes(), copying.pending_bytes())
      << "split=" << split;
}

TEST(LineFramerProperty, FeedViewsMatchesFeedAtEverySplitPoint) {
  std::string stream;
  {
    auto corpus = WireCorpus();
    corpus.resize(4);
    for (const auto& line : corpus) {
      stream += line;
      stream += '\n';
    }
  }
  stream += "bare-no-newline-tail";
  for (size_t split = 0; split <= stream.size(); ++split) {
    ExpectFramerParity(stream, split, 1 << 20);
  }
}

TEST(LineFramerProperty, FeedViewsMatchesFeedOnHostileStream) {
  std::string stream;
  stream += "crlf-line\r\n";
  stream += "\n";             // Empty line.
  stream += "\r\n";           // CR-only line.
  stream += std::string(100, 'x') + "\n";  // Oversized (cap below).
  stream += "after-oversize\n";
  stream.append("nul\0nul\n", 8);
  stream += "tail-without-newline";
  for (size_t split = 0; split <= stream.size(); ++split) {
    ExpectFramerParity(stream, split, /*max_line_bytes=*/64);
  }
}

uint64_t DigestSessions(const std::vector<std::string>& lines,
                        bool use_blocks, size_t workers) {
  std::mutex mu;
  uint64_t digest = 0;
  uint64_t sessions = 0;
  LivePipelineOptions options;
  options.workers = workers;
  LivePipeline pipeline(options, [&](Session&& s) {
    thread_local std::string scratch;
    scratch.clear();
    // Cheap structural digest: id, fragment, record count, time span.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    for (const char c : s.id) {
      mix(static_cast<unsigned char>(c));
    }
    mix(s.fragment_index);
    mix(s.records.size());
    for (const auto& r : s.records) {
      mix(static_cast<uint64_t>(r.time));
      mix(r.payload.size());
    }
    std::lock_guard<std::mutex> lock(mu);
    digest ^= h;
    ++sessions;
  });
  if (use_blocks) {
    auto arena = std::make_shared<Arena>();
    LineBlock block;
    block.arena = arena;
    for (const auto& l : lines) {
      block.lines.push_back(arena->Copy(l));
    }
    pipeline.FeedBlock(std::move(block));
  } else {
    for (const auto& l : lines) {
      pipeline.FeedLine(l);
    }
  }
  pipeline.Finish();
  EXPECT_GT(sessions, 0u);
  return digest;
}

TEST(LivePipelineParity, FeedBlockMatchesFeedLineAcrossWorkerCounts) {
  const auto lines = WireCorpus();
  for (size_t workers : {1, 2, 4}) {
    const uint64_t via_lines = DigestSessions(lines, false, workers);
    const uint64_t via_blocks = DigestSessions(lines, true, workers);
    EXPECT_EQ(via_blocks, via_lines) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace ts
