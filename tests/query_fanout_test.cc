// Massive-fan-out torture suite for the subscription path.
//
// The serving contract under fan-out: with hundreds of concurrent
// subscribers — filtered and unfiltered, fast and deliberately stalled —
// every connection's ledger balances exactly:
//
//   delivered(conn) + sum(#DROPPED counts on conn) == closes matching
//                                                     conn's filter
//
// and the server evaluates each subscription filter at most once per closed
// session per distinct filter (the memoized fan-out), not once per
// subscriber. Runs under TSan in CI (see the tsan job's filter), so the
// fan-out path is also exercised for races, not just accounting.
#include <sys/resource.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_store.h"
#include "src/common/time_util.h"
#include "src/net/net_util.h"
#include "src/query/query_client.h"
#include "src/query/query_protocol.h"
#include "src/query/query_server.h"

namespace ts {
namespace {

Session MakeSession(const std::string& id, EventTime start_ns,
                    std::vector<uint32_t> services) {
  Session s;
  s.id = id;
  s.fragment_index = 0;
  EventTime t = start_ns;
  for (uint32_t svc : services) {
    LogRecord r;
    r.time = t;
    r.session_id = id;
    r.txn_id = *TxnId::Parse("1-2");
    r.service = svc;
    r.host = svc;
    r.kind = EventKind::kAnnotation;
    r.payload = "x=aaaaaaaa";
    s.records.push_back(std::move(r));
    t += kNanosPerMilli;
  }
  s.first_epoch = static_cast<Epoch>(start_ns / kNanosPerSecond);
  s.last_epoch = s.first_epoch + 1;
  s.closed_at = s.last_epoch;
  return s;
}

// The size the kernel really grants a socket buffer pinned the way the query
// server and client pin theirs (Linux doubles the request for bookkeeping).
int GrantedSockBuf(int option, int bytes) {
  FdGuard fd(::socket(AF_INET, SOCK_STREAM, 0));
  EXPECT_TRUE(option == SO_SNDBUF ? SetSendBufferSize(fd.get(), bytes)
                                  : SetRecvBufferSize(fd.get(), bytes));
  int granted = 0;
  socklen_t len = sizeof(granted);
  EXPECT_EQ(getsockopt(fd.get(), SOL_SOCKET, option, &granted, &len), 0);
  return granted;
}

// Raises RLIMIT_NOFILE enough for the client herd + server sides. Returns
// false if the hard limit is too low (the test then skips, not fails).
bool EnsureFdBudget(rlim_t want) {
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) {
    return false;
  }
  if (lim.rlim_cur >= want) {
    return true;
  }
  if (lim.rlim_max != RLIM_INFINITY && lim.rlim_max < want) {
    return false;
  }
  lim.rlim_cur = want;
  return setrlimit(RLIMIT_NOFILE, &lim) == 0;
}

struct SubscriberPlan {
  enum class Kind { kAll, kService, kPrefix };
  Kind kind = Kind::kAll;
  uint32_t service = 0;
  std::string prefix;
  bool stalled = false;

  std::string FilterToken() const {
    switch (kind) {
      case Kind::kAll:
        return "";
      case Kind::kService:
        return "service=" + std::to_string(service);
      case Kind::kPrefix:
        return "prefix=" + prefix;
    }
    return "";
  }

  bool Matches(const Session& s) const {
    switch (kind) {
      case Kind::kAll:
        return true;
      case Kind::kService:
        for (const auto& r : s.records) {
          if (r.service == service) {
            return true;
          }
        }
        return false;
      case Kind::kPrefix:
        return s.id.compare(0, prefix.size(), prefix) == 0;
    }
    return false;
  }
};

TEST(QueryFanout, FiveHundredSubscribersAccountExactly) {
  constexpr size_t kClients = 520;
  constexpr size_t kSessions = 4500;
  constexpr int kStalledRcvBuf = 16 << 10;
  if (!EnsureFdBudget(4096)) {
    GTEST_SKIP() << "RLIMIT_NOFILE too low for " << kClients << " clients";
  }

  QueryServerOptions options;
  // Small per-connection budgets so the stalled subscribers actually drop:
  // the contract is exact accounting, not lossless delivery.
  options.max_conn_buffer_bytes = 8u << 10;
  options.conn_sock_buf_bytes = 16u << 10;

  // kSessions deterministic sessions to close. Ids carry one of 7 prefixes
  // and each session touches 2 of 8 services, so every filter matches a
  // strict, precomputable subset.
  std::vector<Session> closed;
  closed.reserve(kSessions);
  for (size_t j = 0; j < kSessions; ++j) {
    closed.push_back(MakeSession(
        "P" + std::to_string(j % 7) + "-" + std::to_string(j),
        static_cast<EventTime>(j) * kNanosPerMilli,
        {static_cast<uint32_t>(j % 5), 5 + static_cast<uint32_t>(j % 3)}));
  }
  // The herd: a deterministic mix of unfiltered, service-filtered and
  // prefix-filtered subscribers; every 13th, of every kind, is stalled
  // behind a pinned 16 KiB receive buffer and never reads until the drain
  // phase. (A much smaller receive window makes the drain crawl.)
  std::vector<SubscriberPlan> plans(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    SubscriberPlan& plan = plans[i];
    switch (i % 4) {
      case 0:
      case 1:
        plan.kind = SubscriberPlan::Kind::kAll;
        break;
      case 2:
        plan.kind = SubscriberPlan::Kind::kService;
        plan.service = static_cast<uint32_t>(i % 5);
        break;
      case 3:
        plan.kind = SubscriberPlan::Kind::kPrefix;
        plan.prefix = "P" + std::to_string(i % 7) + "-";
        break;
    }
    plan.stalled = (i % 13) == 0;
  }

  // Drops are certain by construction: every stalled subscriber is owed
  // more bytes — its filter's share of the closes — than its connection can
  // park anywhere: the server's staging budget, the server socket's send
  // buffer and the client socket's receive buffer, as granted by the kernel.
  std::vector<size_t> block_bytes;
  block_bytes.reserve(kSessions);
  size_t owed_bytes = 0;
  for (const auto& s : closed) {
    block_bytes.push_back(EncodeSessionBlock(s).size());
    owed_bytes += block_bytes.back();
  }
  const size_t parkable_bytes =
      options.max_conn_buffer_bytes +
      static_cast<size_t>(
          GrantedSockBuf(SO_SNDBUF, options.conn_sock_buf_bytes)) +
      static_cast<size_t>(GrantedSockBuf(SO_RCVBUF, kStalledRcvBuf));
  ASSERT_GT(owed_bytes, 2 * parkable_bytes);
  std::set<SubscriberPlan::Kind> stalled_kinds;
  for (size_t i = 0; i < kClients; ++i) {
    if (!plans[i].stalled) {
      continue;
    }
    stalled_kinds.insert(plans[i].kind);
    size_t plan_owed = 0;
    for (size_t j = 0; j < kSessions; ++j) {
      plan_owed += plans[i].Matches(closed[j]) ? block_bytes[j] : 0;
    }
    ASSERT_GT(plan_owed, parkable_bytes)
        << "stalled client " << i << " filter '" << plans[i].FilterToken()
        << "'";
  }
  ASSERT_EQ(stalled_kinds.size(), 3u);  // Unfiltered, service and prefix.

  auto store = std::make_shared<SessionStore>(SessionStore::Options{});
  auto metrics = std::make_shared<MetricsRegistry>();
  QueryServer server(options, store, metrics);
  ASSERT_TRUE(server.Start());
  std::thread server_thread([&] { server.Run(); });

  std::vector<std::unique_ptr<QueryClient>> clients(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    const SubscriberPlan& plan = plans[i];
    QueryClientOptions client_options;
    client_options.port = server.port();
    if (plan.stalled) {
      client_options.sock_buf_bytes = kStalledRcvBuf;
    }
    clients[i] = std::make_unique<QueryClient>(client_options);
    ASSERT_TRUE(clients[i]->Connect()) << "client " << i;
    ASSERT_TRUE(clients[i]->SubscribeFiltered(plan.FilterToken()))
        << "client " << i << " filter '" << plan.FilterToken() << "'";
  }
  ASSERT_EQ(server.subscriber_count(), kClients);

  // Close them all.
  for (const auto& s : closed) {
    store->Insert(Session(s));
  }

  std::vector<uint64_t> expected(kClients, 0);
  for (size_t i = 0; i < kClients; ++i) {
    for (const auto& s : closed) {
      expected[i] += plans[i].Matches(s) ? 1 : 0;
    }
  }

  // Settle: the server has finished fanning out once every matching close is
  // accounted as streamed or dropped. Aggregate across all subscribers.
  uint64_t expected_total = 0;
  for (uint64_t e : expected) {
    expected_total += e;
  }
  const auto settle_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    const auto& counters = server.counters();
    if (counters.sessions_streamed + counters.sessions_dropped >=
        expected_total) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), settle_deadline)
        << "fan-out stalled: streamed=" << counters.sessions_streamed
        << " dropped=" << counters.sessions_dropped
        << " expected=" << expected_total;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Drain every connection in parallel (8 reader threads over disjoint
  // client subsets) and balance each ledger exactly.
  std::vector<uint64_t> delivered(kClients, 0);
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  constexpr size_t kReaderThreads = 8;
  for (size_t t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = t; i < kClients; i += kReaderThreads) {
        QueryClient& client = *clients[i];
        const auto drain_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        bool dead = false;
        while (!dead && delivered[i] + client.total_dropped() < expected[i]) {
          if (std::chrono::steady_clock::now() > drain_deadline) {
            ++failures;
            break;
          }
          Session s;
          uint64_t dropped = 0;
          switch (client.Next(&s, &dropped, /*timeout_ms=*/1000)) {
            case QueryClient::Event::kSession:
              ++delivered[i];
              if (!plans[i].Matches(s)) {
                ++failures;  // A session this filter must never see.
              }
              break;
            case QueryClient::Event::kDropped:
            case QueryClient::Event::kTimeout:
              break;
            case QueryClient::Event::kClosed:
            case QueryClient::Event::kError:
              ++failures;
              dead = true;
              break;
          }
        }
      }
    });
  }
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);

  // The exact accounting identity, per connection.
  for (size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(delivered[i] + clients[i]->total_dropped(), expected[i])
        << "client " << i << " filter '" << plans[i].FilterToken()
        << "' stalled=" << plans[i].stalled;
  }

  // Stalled subscribers with tiny buffers really did shed (the test would
  // vacuously pass if nothing ever dropped) — every one of them.
  uint64_t total_dropped = 0;
  for (size_t i = 0; i < kClients; ++i) {
    total_dropped += clients[i]->total_dropped();
    if (plans[i].stalled) {
      EXPECT_GT(clients[i]->total_dropped(), 0u) << "stalled client " << i;
    }
  }
  EXPECT_GT(total_dropped, 0u);

  // Filter memoization: each close evaluates each *distinct* filter at most
  // once — 12 distinct filter tokens here (5 service + 7 prefix), not 520
  // subscribers' worth. Unfiltered fan-out costs no evaluation at all.
  const uint64_t filter_evals = server.counters().filter_evals;
  EXPECT_GT(filter_evals, 0u);
  EXPECT_LE(filter_evals, kSessions * 12);

  for (auto& client : clients) {
    client->Close();
  }
  server.Stop();
  server_thread.join();
}

TEST(QueryFanout, MixedFiltersSmallScaleSmoke) {
  // A fast, always-on sibling of the torture test: 6 subscribers, one of
  // each flavor pair, exact accounting with no drops expected.
  auto store = std::make_shared<SessionStore>(SessionStore::Options{});
  QueryServer server({}, store);
  ASSERT_TRUE(server.Start());
  std::thread server_thread([&] { server.Run(); });

  const std::vector<std::string> filters = {"",          "",
                                            "service=1", "service=9",
                                            "prefix=A",  "prefix=ZZ"};
  std::vector<std::unique_ptr<QueryClient>> clients;
  for (const auto& filter : filters) {
    QueryClientOptions client_options;
    client_options.port = server.port();
    clients.push_back(std::make_unique<QueryClient>(client_options));
    ASSERT_TRUE(clients.back()->Connect());
    ASSERT_TRUE(clients.back()->SubscribeFiltered(filter));
  }

  store->Insert(MakeSession("A-1", 0, {1, 2}));
  store->Insert(MakeSession("B-1", kNanosPerMilli, {2, 3}));

  const std::vector<uint64_t> expected = {2, 2, 1, 0, 1, 0};
  for (size_t i = 0; i < clients.size(); ++i) {
    uint64_t got = 0;
    Session s;
    uint64_t dropped = 0;
    while (got < expected[i] &&
           clients[i]->Next(&s, &dropped, /*timeout_ms=*/5000) ==
               QueryClient::Event::kSession) {
      ++got;
    }
    EXPECT_EQ(got, expected[i]) << "filter '" << filters[i] << "'";
    // And nothing extra trails behind the expected deliveries.
    EXPECT_EQ(clients[i]->Next(&s, &dropped, /*timeout_ms=*/100),
              QueryClient::Event::kTimeout)
        << "filter '" << filters[i] << "'";
    EXPECT_EQ(clients[i]->total_dropped(), 0u);
  }

  server.Stop();
  server_thread.join();
}

}  // namespace
}  // namespace ts
