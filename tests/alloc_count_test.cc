// Heap allocations on the record path, counted by a replacement global
// operator new. The replacement is process-wide, so this suite is its own
// executable. Counts are deterministic: nothing else runs between the marks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "src/log/record_view.h"
#include "src/log/txn_id.h"
#include "src/log/wire_format.h"
#include "src/workload/generator.h"

namespace {

std::atomic<size_t> g_allocations{0};

void* CountedAlloc(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every allocating form that pairs with the plain deletes below is replaced,
// so no block crosses between this allocator and the default one.
void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace ts {
namespace {

size_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

std::string IdOfDepth(size_t depth) {
  std::string s = "26";
  for (size_t i = 1; i < depth; ++i) {
    s += "-" + std::to_string(i * 7);
  }
  return s;
}

TEST(AllocCount, InlineTxnIdsAllocateNothing) {
  for (size_t depth = 1; depth <= TxnId::kInlineCapacity; ++depth) {
    const std::string text = IdOfDepth(depth);
    const size_t before = Allocations();
    std::optional<TxnId> parsed = TxnId::Parse(text);
    TxnId copy(*parsed);
    TxnId assigned;
    assigned = copy;
    TxnId moved(std::move(copy));
    TxnId root = parsed->Root();
    TxnId parent = depth >= 2 ? parsed->Parent() : root;
    const size_t allocations = Allocations() - before;
    EXPECT_EQ(allocations, 0u) << text;
    EXPECT_EQ(parent.depth(), depth >= 2 ? depth - 1 : 1);
    EXPECT_EQ(moved, assigned);
  }
}

TEST(AllocCount, HeapTxnIdsAllocateOnceEach) {
  // The counter sees the fallback: one exactly-sized array per deep id.
  const std::string text = IdOfDepth(TxnId::kInlineCapacity + 1);
  const size_t before = Allocations();
  std::optional<TxnId> parsed = TxnId::Parse(text);
  TxnId copy(*parsed);
  TxnId parent = parsed->Parent();  // Back to inline depth: no allocation.
  const size_t allocations = Allocations() - before;
  EXPECT_EQ(allocations, 2u);
  EXPECT_EQ(parent.HeapBytes(), 0u);
  EXPECT_EQ(copy.HeapBytes(), (TxnId::kInlineCapacity + 1) * sizeof(uint32_t));
}

TEST(AllocCount, MaterializeTable1LineAllocatesIdAndPayloadOnly) {
  // Table 1-shaped lines: 23-byte session ids and ~220-byte payloads, both
  // longer than the small-string buffer, so each costs one allocation.
  GeneratorConfig config;
  config.seed = 7;
  config.duration_ns = 2 * kNanosPerSecond;
  config.target_records_per_sec = 2'000;
  TraceGenerator gen(config);
  std::vector<std::string> lines;
  Epoch epoch;
  std::vector<LogRecord> batch;
  while (gen.NextEpoch(&epoch, &batch)) {
    for (const LogRecord& r : batch) {
      if (r.txn_id.depth() <= TxnId::kInlineCapacity) {
        ASSERT_EQ(r.session_id.size(), 23u);
        ASSERT_GT(r.payload.size(), std::string().capacity());
        lines.push_back(ToWireFormat(r));
      }
    }
  }
  ASSERT_GT(lines.size(), 1'000u);

  InternerPair interners;
  // Warm the per-connection service and host dictionaries, as a connection's
  // first lines do.
  for (const std::string& line : lines) {
    LogRecord warm;
    ASSERT_TRUE(MaterializeRecord(ScanRecord(line), &interners, &warm));
  }
  for (const std::string& line : lines) {
    const RecordView view = ScanRecord(line);
    const size_t before = Allocations();
    {
      LogRecord record;
      EXPECT_TRUE(MaterializeRecord(view, &interners, &record));
    }
    const size_t allocations = Allocations() - before;
    ASSERT_EQ(allocations, 2u) << line;
  }
}

}  // namespace
}  // namespace ts
