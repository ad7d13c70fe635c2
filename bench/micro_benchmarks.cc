// Engine micro-benchmarks (google-benchmark): the per-record costs that
// compose into TS's epoch latency — hashing, wire parsing, a shard's
// scan-and-materialize step, re-ordering, tree construction, signatures, exchange-hub transfers, live-path expiry, and
// the store's eviction churn and its inserts under a live subscription.
#include <benchmark/benchmark.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/analytics/session_store.h"
#include "src/common/retire_queue.h"

#include "src/common/rng.h"
#include "src/common/siphash.h"
#include "src/core/live_closer.h"
#include "src/core/reorder_buffer.h"
#include "src/core/trace_tree.h"
#include "src/log/record_view.h"
#include "src/log/wire_format.h"
#include "src/net/frame_reader.h"
#include "src/net/log_server.h"
#include "src/net/socket_ingest.h"
#include "src/offline/offline_sessionizer.h"
#include "src/query/query_client.h"
#include "src/query/query_server.h"
#include "src/timely/runtime.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

void BM_SipHashSessionId(benchmark::State& state) {
  const std::string id = "XKSHSKCBA53U088FXGE7LD8";
  for (auto _ : state) {
    benchmark::DoNotOptimize(SipHash24(id));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * id.size()));
}
BENCHMARK(BM_SipHashSessionId);

std::vector<LogRecord> SampleRecords(size_t n) {
  GeneratorConfig config;
  config.seed = 5;
  config.duration_ns = 30 * kNanosPerSecond;
  config.target_records_per_sec = static_cast<double>(n) / 20.0;
  TraceGenerator gen(config);
  std::vector<LogRecord> all;
  Epoch e;
  std::vector<LogRecord> batch;
  while (all.size() < n && gen.NextEpoch(&e, &batch)) {
    for (auto& r : batch) {
      all.push_back(std::move(r));
      if (all.size() == n) {
        break;
      }
    }
  }
  return all;
}

void BM_WireFormatSerialize(benchmark::State& state) {
  const auto records = SampleRecords(1024);
  size_t i = 0;
  std::string line;
  int64_t bytes = 0;
  for (auto _ : state) {
    line.clear();
    AppendWireFormat(records[i++ & 1023], &line);
    bytes += static_cast<int64_t>(line.size());
    benchmark::DoNotOptimize(line);
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_WireFormatSerialize);

void BM_WireFormatParse(benchmark::State& state) {
  const auto records = SampleRecords(1024);
  std::vector<std::string> lines;
  int64_t total = 0;
  for (const auto& r : records) {
    lines.push_back(ToWireFormat(r));
    total += static_cast<int64_t>(lines.back().size());
  }
  size_t i = 0;
  for (auto _ : state) {
    auto parsed = ParseWireFormat(lines[i++ & 1023]);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * (total / 1024));
}
BENCHMARK(BM_WireFormatParse);

void BM_ReorderBufferPush(benchmark::State& state) {
  const auto records = SampleRecords(4096);
  // Shuffle arrival order within a bounded delay.
  std::vector<LogRecord> shuffled = records;
  Rng rng(3);
  for (size_t i = 0; i + 1 < shuffled.size(); ++i) {
    const size_t j = i + rng.NextBelow(std::min<size_t>(16, shuffled.size() - i));
    std::swap(shuffled[i], shuffled[j]);
  }
  for (auto _ : state) {
    state.PauseTiming();
    ReorderBuffer buf({.slack_ns = 2 * kNanosPerSecond,
                       .slot_width_ns = 10 * kNanosPerMilli});
    std::vector<LogRecord> out;
    out.reserve(shuffled.size());
    state.ResumeTiming();
    for (const auto& r : shuffled) {
      buf.Push(r, &out);
    }
    buf.FlushAll(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(shuffled.size()));
}
BENCHMARK(BM_ReorderBufferPush);

// LiveCloser::CloseExpired per 128-record batch over range(0) session ids
// (range(0) - 128 fragments open in the steady state). Record k goes to
// session k % range(0) at time k µs and the window is one batch short of a
// full cycle, so each batch's CloseExpired emits the 128 fragments whose next
// record is one batch away: the work is constant and only the open count
// varies. An O(expired) expiry stays flat across the
// three sizes; a scan of the open map grows with them.
void BM_LiveCloserExpiry(benchmark::State& state) {
  constexpr size_t kBatch = 128;
  constexpr EventTime kStep = 1000;
  const size_t open = static_cast<size_t>(state.range(0));
  std::vector<std::string> ids(open);
  for (size_t i = 0; i < open; ++i) {
    ids[i] = "S" + std::to_string(i);
  }
  LiveCloser closer(static_cast<EventTime>(open - kBatch) * kStep);
  std::vector<Session> closed;
  LogRecord record;
  record.txn_id = *TxnId::Parse("1");
  record.kind = EventKind::kAnnotation;
  record.payload = "p";
  uint64_t k = 0;
  const auto feed_batch = [&] {
    for (size_t i = 0; i < kBatch; ++i, ++k) {
      record.session_id = ids[k % open];
      record.time = static_cast<EventTime>(k) * kStep;
      closer.Feed(record, &closed);
    }
  };
  while (k < 2 * open) {  // Warm up into the steady state.
    feed_batch();
    closer.CloseExpired(&closed);
    closed.clear();
  }
  uint64_t emitted = 0;
  const uint64_t visited_before = closer.expiry_visited();
  for (auto _ : state) {
    state.PauseTiming();
    emitted += closed.size();
    closed.clear();
    feed_batch();
    state.ResumeTiming();
    closer.CloseExpired(&closed);
    benchmark::DoNotOptimize(closed.data());
  }
  emitted += closed.size();
  const double batches = static_cast<double>(state.iterations());
  state.counters["open"] = static_cast<double>(closer.open_sessions());
  state.counters["closed_per_batch"] = static_cast<double>(emitted) / batches;
  state.counters["visited_per_batch"] =
      static_cast<double>(closer.expiry_visited() - visited_before) / batches;
}
BENCHMARK(BM_LiveCloserExpiry)->Arg(1'000)->Arg(10'000)->Arg(100'000);

// Two threads insert sessions they built into one budgeted SessionStore, as
// the live path's shard workers do, so each insert past the budget evicts the
// oldest session — built by either thread. Arg 0 lets the store destroy each
// victim where it is evicted: on whichever thread inserted (after releasing
// its lock), often freeing the other thread's blocks. Arg 1 retires each
// victim to the thread that built it (LiveNode's Retire sink), which frees
// its queue every kDrainEvery inserts, outside the lock. One iteration is
// kPerThread inserts per thread into a store already at its budget.
void BM_StoreEvictChurn(benchmark::State& state) {
  constexpr int kThreads = 2;
  constexpr int kPerThread = 4'000;
  constexpr int kDrainEvery = 64;
  constexpr int kRecords = 40;
  const bool retire = state.range(0) != 0;
  SessionStore::Options options;
  options.max_bytes = 16u << 20;
  SessionStore store(options);
  std::vector<RetireQueue<Session>> queues(kThreads);
  if (retire) {
    // Session ids start with the builder's thread index.
    store.SetEvictionSink([&queues](Session&& s) {
      queues[static_cast<size_t>(s.id[0] - '0')].Push(std::move(s));
    });
  }
  const auto build = [](int thread, uint64_t n) {
    Session s;
    s.id = std::to_string(thread) + "-session-" + std::to_string(n);
    s.records.resize(kRecords);
    for (int i = 0; i < kRecords; ++i) {
      LogRecord& r = s.records[static_cast<size_t>(i)];
      r.time = static_cast<EventTime>(n * kRecords + static_cast<uint64_t>(i));
      r.session_id = s.id;
      r.txn_id = *TxnId::Parse("1-2-3");
      r.service = static_cast<uint32_t>(i % 16);
      r.payload = "payload of record " + std::to_string(i) + " in " + s.id;
    }
    return s;
  };
  uint64_t next[kThreads] = {};
  const auto run = [&](int thread, std::latch* done) {
    for (int i = 0; i < kPerThread; ++i) {
      store.Insert(build(thread, next[thread]++));
      if (retire && i % kDrainEvery == 0) {
        queues[static_cast<size_t>(thread)].Drain();
      }
    }
    done->arrive_and_wait();  // No more evictions: free the rest here.
    queues[static_cast<size_t>(thread)].Drain();
  };
  const auto round = [&] {
    std::latch done(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(run, t, &done);
    }
    for (auto& t : threads) {
      t.join();
    }
  };
  while (store.stats().evicted == 0) {  // Fill to the budget.
    round();
  }
  const uint64_t evicted_before = store.stats().evicted;
  for (auto _ : state) {
    round();
  }
  const double inserts =
      static_cast<double>(state.iterations()) * kThreads * kPerThread;
  state.SetItemsProcessed(static_cast<int64_t>(inserts));
  state.counters["evicted_per_insert"] =
      static_cast<double>(store.stats().evicted - evicted_before) / inserts;
}
BENCHMARK(BM_StoreEvictChurn)
    ->ArgName("retire")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One thread inserts 8-record sessions into a SessionStore observed by a
// running QueryServer with one subscriber: Arg 0 subscribes with prefix=lM,
// which takes one session in 16 (perfbench's paced_close probes), Arg 1
// subscribes unfiltered. The filter runs on the inserting thread before the
// store lock, and only a taken session is serialized, so the filtered arm's
// inserts should cost little more than an unobserved store's.
// `encoded_per_insert` reads 1/16 and 1.
void BM_StoreInsertSubscribed(benchmark::State& state) {
  constexpr int kRecords = 8;
  const bool unfiltered = state.range(0) != 0;
  SessionStore::Options options;
  options.max_bytes = 8u << 20;
  auto store = std::make_shared<SessionStore>(options);
  QueryServer server(QueryServerOptions{}, store);
  if (!server.Start()) {
    state.SkipWithError("query server failed to start");
    return;
  }
  std::thread loop([&server] { server.Run(); });
  QueryClientOptions client_options;
  client_options.port = server.port();
  QueryClient client(client_options);
  if (!client.Connect() ||
      !client.SubscribeFiltered(unfiltered ? "" : "prefix=lM")) {
    server.Stop();
    loop.join();
    state.SkipWithError("subscribe failed");
    return;
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {  // Keeps the subscriber drained.
    Session s;
    uint64_t dropped = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)client.Next(&s, &dropped, /*timeout_ms=*/20);
    }
  });
  uint64_t n = 0;
  const auto build = [&n] {
    Session s;
    s.id = (n % 16 == 0 ? "lM" : "l") + std::to_string(n);
    s.records.resize(kRecords);
    for (int i = 0; i < kRecords; ++i) {
      LogRecord& r = s.records[static_cast<size_t>(i)];
      r.time = static_cast<EventTime>(n * kRecords + static_cast<uint64_t>(i));
      r.session_id = s.id;
      r.txn_id = *TxnId::Parse("1-2-3");
      r.service = static_cast<uint32_t>(i % 4);
      r.payload = "payload of record " + std::to_string(i);
    }
    ++n;
    return s;
  };
  const uint64_t encoded_before = server.counters().sessions_encoded;
  for (auto _ : state) {
    store->Insert(build());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["encoded_per_insert"] =
      static_cast<double>(server.counters().sessions_encoded -
                          encoded_before) /
      static_cast<double>(state.iterations());
  stop.store(true);
  reader.join();
  client.Close();
  server.Stop();
  loop.join();
}
BENCHMARK(BM_StoreInsertSubscribed)->ArgName("unfiltered")->Arg(0)->Arg(1);

void BM_TraceTreeBuild(benchmark::State& state) {
  const auto records = SampleRecords(20'000);
  auto sessions = OfflineSessionizer::Sessionize(records);
  // Pick a reasonably sized session.
  const Session* big = &sessions[0];
  for (const auto& s : sessions) {
    if (s.records.size() > big->records.size()) {
      big = &s;
    }
  }
  int64_t trees = 0;
  for (auto _ : state) {
    auto built = TraceTree::FromSession(*big);
    trees += static_cast<int64_t>(built.size());
    benchmark::DoNotOptimize(built);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(big->records.size()));
  state.counters["records/session"] =
      static_cast<double>(big->records.size());
}
BENCHMARK(BM_TraceTreeBuild);

// A shard worker's per-record step on Table 1-shaped lines (23-byte session
// ids, ~220-byte payloads): SWAR separator scan, then materialization into a
// fresh owning LogRecord through warm per-connection interners.
void BM_MaterializeRecord(benchmark::State& state) {
  const auto records = SampleRecords(1024);
  std::vector<std::string> lines;
  for (const auto& r : records) {
    lines.push_back(ToWireFormat(r));
  }
  InternerPair interners;
  size_t i = 0;
  for (auto _ : state) {
    LogRecord record;
    const bool ok =
        MaterializeRecord(ScanRecord(lines[i++ & 1023]), &interners, &record);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(record);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaterializeRecord);

void BM_TreeSignature(benchmark::State& state) {
  const auto records = SampleRecords(20'000);
  auto sessions = OfflineSessionizer::Sessionize(records);
  std::vector<TraceTree> trees;
  for (const auto& s : sessions) {
    for (auto& t : TraceTree::FromSession(s)) {
      trees.push_back(std::move(t));
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trees[i++ % trees.size()].SignatureKey());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeSignature);

void BM_ExchangeHubRoundTrip(benchmark::State& state) {
  ExchangeHub<uint64_t> hub(4);
  std::vector<Batch<uint64_t>> drained;
  for (auto _ : state) {
    std::vector<uint64_t> batch(256, 7);
    hub.Send(2, 0, std::move(batch));
    drained.clear();
    hub.Drain(2, drained);
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ExchangeHubRoundTrip);

void BM_GeneratorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    GeneratorConfig config;
    config.seed = 11;
    config.duration_ns = 2 * kNanosPerSecond;
    config.target_records_per_sec = 50'000;
    TraceGenerator gen(config);
    Epoch e;
    std::vector<LogRecord> batch;
    uint64_t n = 0;
    while (gen.NextEpoch(&e, &batch)) {
      n += batch.size();
    }
    state.counters["records"] = static_cast<double>(n);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_GeneratorThroughput)->Unit(benchmark::kMillisecond);

// --- Socket ingest path (ts_net): transport + framing + parse vs the
// in-memory arrival path over the same wire lines. The gap between these
// benches is the cost the paper pays for replaying "in their original text
// format over a TCP socket" rather than handing batches through memory.

std::shared_ptr<const std::vector<std::string>> SampleArchive(size_t n) {
  const auto records = SampleRecords(n);
  auto lines = std::make_shared<std::vector<std::string>>();
  for (const auto& r : records) {
    lines->push_back(ToWireFormat(r));
  }
  return lines;
}

// Baseline: parse wire lines already resident in memory (what the replayer's
// as_text mode hands to the driver).
void BM_InMemoryArrivalParse(benchmark::State& state) {
  const auto archive = SampleArchive(8192);
  int64_t bytes = 0;
  for (auto _ : state) {
    uint64_t parsed_count = 0;
    for (const auto& line : *archive) {
      auto parsed = ParseWireFormat(line);
      parsed_count += parsed.has_value();
      bytes += static_cast<int64_t>(line.size());
      benchmark::DoNotOptimize(parsed);
    }
    benchmark::DoNotOptimize(parsed_count);
  }
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(archive->size()));
}
BENCHMARK(BM_InMemoryArrivalParse)->Unit(benchmark::kMillisecond);

// Full loopback hop: LogServer -> TCP -> newline framing -> parse.
void BM_SocketIngestLoopback(benchmark::State& state) {
  const auto archive = SampleArchive(8192);
  int64_t bytes = 0;
  uint64_t stalls = 0;
  for (auto _ : state) {
    state.PauseTiming();
    LogServerOptions options;
    LogServer server(options, archive);
    if (!server.Start()) {
      state.SkipWithError("cannot start loopback server");
      return;
    }
    std::thread thread([&server] { server.Run(); });
    SocketIngestOptions copts;
    copts.port = server.port();
    SocketIngestSource client(copts);
    std::vector<std::string> lines;
    lines.reserve(archive->size());
    state.ResumeTiming();

    client.ReadAll(&lines);
    uint64_t parsed_count = 0;
    for (const auto& line : lines) {
      auto parsed = ParseWireFormat(line);
      parsed_count += parsed.has_value();
      benchmark::DoNotOptimize(parsed);
    }

    state.PauseTiming();
    bytes += static_cast<int64_t>(client.stats().Snapshot().bytes_in);
    stalls += server.stats().Snapshot().backpressure_stalls;
    server.Stop();
    thread.join();
    if (parsed_count != archive->size()) {
      state.SkipWithError("socket ingest lost records");
      return;
    }
    state.ResumeTiming();
  }
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(archive->size()));
  state.counters["backpressure_stalls"] = static_cast<double>(stalls);
}
BENCHMARK(BM_SocketIngestLoopback)->Unit(benchmark::kMillisecond);

// Framing alone: split a large wire buffer into TCP-sized chunks.
void BM_LineFramerThroughput(benchmark::State& state) {
  const auto archive = SampleArchive(8192);
  std::string wire;
  for (const auto& line : *archive) {
    wire += line;
    wire += '\n';
  }
  const size_t kChunk = 16 << 10;
  for (auto _ : state) {
    LineFramer framer;
    std::vector<std::string> lines;
    lines.reserve(archive->size());
    for (size_t off = 0; off < wire.size(); off += kChunk) {
      framer.Feed(std::string_view(wire).substr(off, kChunk), &lines);
    }
    benchmark::DoNotOptimize(lines);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(wire.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(archive->size()));
}
BENCHMARK(BM_LineFramerThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ts

BENCHMARK_MAIN();
