// ts_net end-to-end tests over real loopback sockets: byte-for-byte round
// trips, stream partitioning, fragmentation under tiny buffers, mid-record
// server kill with reconnect-and-resume, and connect retry.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/log/wire_format.h"
#include "src/net/log_server.h"
#include "src/net/socket_ingest.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

std::shared_ptr<std::vector<std::string>> MakeArchive(double records_per_sec,
                                                      EventTime seconds) {
  GeneratorConfig config;
  config.seed = 99;
  config.duration_ns = seconds * kNanosPerSecond;
  config.target_records_per_sec = records_per_sec;
  TraceGenerator gen(config);
  auto lines = std::make_shared<std::vector<std::string>>();
  Epoch epoch = 0;
  std::vector<LogRecord> records;
  while (gen.NextEpoch(&epoch, &records)) {
    for (const auto& r : records) {
      lines->push_back(ToWireFormat(r));
    }
  }
  return lines;
}

// Runs a LogServer on a background thread; joins on destruction.
class ServerRunner {
 public:
  ServerRunner(const LogServerOptions& options,
               std::shared_ptr<const std::vector<std::string>> lines)
      : server_(options, std::move(lines)) {}
  ~ServerRunner() { Stop(); }

  bool Start() {
    if (!server_.Start()) {
      return false;
    }
    thread_ = std::thread([this] { server_.Run(); });
    return true;
  }

  void Stop() {
    server_.Stop();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  LogServer& server() { return server_; }
  uint16_t port() const { return server_.port(); }

 private:
  LogServer server_;
  std::thread thread_;
};

SocketIngestOptions ClientOptions(uint16_t port) {
  SocketIngestOptions options;
  options.port = port;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 50;
  return options;
}

// One PollBlock, its lines copied out onto *received.
SocketIngestSource::Poll PollInto(SocketIngestSource* client,
                                  std::vector<std::string>* received,
                                  int timeout_ms) {
  LineBlock block;
  const auto poll = client->PollBlock(&block, timeout_ms);
  received->insert(received->end(), block.lines.begin(), block.lines.end());
  return poll;
}

TEST(NetTransport, LoopbackRoundTripByteForByte) {
  auto archive = MakeArchive(3'000, 3);
  ASSERT_GT(archive->size(), 1'000u);

  LogServerOptions options;
  ServerRunner runner(options, archive);
  ASSERT_TRUE(runner.Start());

  SocketIngestSource client(ClientOptions(runner.port()));
  std::vector<std::string> received;
  ASSERT_TRUE(client.ReadAll(&received));
  runner.Stop();

  // The socket path must deliver the archive byte-for-byte: same records, in
  // order, nothing duplicated, dropped, or reframed.
  ASSERT_EQ(received.size(), archive->size());
  EXPECT_EQ(received, *archive);
  EXPECT_EQ(client.records_received(), archive->size());

  const auto client_stats = client.stats().Snapshot();
  EXPECT_EQ(client_stats.records_in, archive->size());
  EXPECT_EQ(client_stats.reconnects, 0u);
  EXPECT_EQ(client_stats.frame_errors, 0u);
  const auto server_stats = runner.server().stats().Snapshot();
  EXPECT_EQ(server_stats.accepts, 1u);
  EXPECT_EQ(server_stats.records_out, archive->size());
  EXPECT_EQ(server_stats.bytes_out, client_stats.bytes_in);
  EXPECT_EQ(runner.server().connections_completed(), 1u);
}

TEST(NetTransport, ServesRoundRobinStreamPartitions) {
  auto archive = MakeArchive(2'000, 2);
  const size_t kStreams = 3;

  LogServerOptions options;
  options.num_streams = kStreams;
  ServerRunner runner(options, archive);
  ASSERT_TRUE(runner.Start());

  size_t total = 0;
  for (size_t s = 0; s < kStreams; ++s) {
    auto copts = ClientOptions(runner.port());
    copts.stream = s;
    copts.num_streams = kStreams;
    SocketIngestSource client(copts);
    std::vector<std::string> received;
    ASSERT_TRUE(client.ReadAll(&received));
    // Stream s must hold exactly the records at archive indices s, s+3, ...
    std::vector<std::string> expected;
    for (size_t i = s; i < archive->size(); i += kStreams) {
      expected.push_back((*archive)[i]);
    }
    EXPECT_EQ(received, expected) << "stream " << s;
    total += received.size();
  }
  EXPECT_EQ(total, archive->size());
}

TEST(NetTransport, FragmentedDeliveryUnderTinyBuffers) {
  auto archive = MakeArchive(2'000, 2);

  LogServerOptions options;
  options.max_conn_buffer_bytes = 512;  // Forces thousands of partial writes.
  ServerRunner runner(options, archive);
  ASSERT_TRUE(runner.Start());

  auto copts = ClientOptions(runner.port());
  copts.read_chunk_bytes = 7;  // Nearly every record spans several reads.
  SocketIngestSource client(copts);
  std::vector<std::string> received;
  ASSERT_TRUE(client.ReadAll(&received));
  runner.Stop();

  EXPECT_EQ(received, *archive);
  // A 512-byte server budget against a fast producer must have stalled.
  EXPECT_GE(runner.server().stats().Snapshot().backpressure_stalls, 1u);
}

TEST(NetTransport, ServerKillMidStreamReconnectAndResume) {
  // Large enough (~30 MB on the wire) that the kernel cannot have buffered
  // the whole remainder — the kill is guaranteed to cut the stream short of
  // #EOS, forcing a real reconnect-and-resume.
  auto archive = MakeArchive(20'000, 5);
  ASSERT_GT(archive->size(), 50'000u);

  LogServerOptions options;
  auto first = std::make_unique<ServerRunner>(options, archive);
  ASSERT_TRUE(first->Start());
  const uint16_t port = first->port();

  auto copts = ClientOptions(port);
  // Cap the per-poll batch so the prefix loop below cannot race through the
  // whole archive inside one drain-to-EAGAIN call on a fast loopback.
  copts.max_records_per_poll = 100;
  SocketIngestSource client(copts);

  // Pull a prefix, then kill the server abruptly: the client is mid-stream
  // (usually mid-record) with no #EOS in sight.
  std::vector<std::string> received;
  while (received.size() < 500) {
    const auto poll = PollInto(&client, &received, /*timeout_ms=*/200);
    ASSERT_NE(poll, SocketIngestSource::Poll::kEndOfStream);
    ASSERT_NE(poll, SocketIngestSource::Poll::kFailed);
  }
  first->Stop();
  first.reset();

  // Let the client drain whatever the kernel already buffered, discover the
  // drop, and start its backoff loop against a dead port before the
  // replacement server binds. (Records already in flight still count.)
  for (int i = 0; i < 3; ++i) {
    const auto poll = PollInto(&client, &received, /*timeout_ms=*/10);
    ASSERT_NE(poll, SocketIngestSource::Poll::kEndOfStream);
    ASSERT_NE(poll, SocketIngestSource::Poll::kFailed);
  }
  ASSERT_LT(received.size(), archive->size());

  LogServerOptions retry = options;
  retry.port = port;
  ServerRunner replacement(retry, archive);
  ASSERT_TRUE(replacement.Start());
  ASSERT_TRUE(client.ReadAll(&received));
  replacement.Stop();

  // Exactly-once delivery across the kill: the resume offset skips what the
  // client already has, and the framer dropped the truncated tail.
  EXPECT_EQ(received, *archive);
  EXPECT_GE(client.stats().Snapshot().reconnects, 1u);
  EXPECT_GE(replacement.server().stats().Snapshot().resumes, 1u);
}

TEST(NetTransport, ConnectRetriesUntilServerAppears) {
  auto archive = MakeArchive(500, 1);

  // Reserve a port, then release it so the client's first attempts fail.
  uint16_t port = 0;
  {
    FdGuard probe(ListenTcp("127.0.0.1", 0, &port));
    ASSERT_TRUE(probe.valid());
  }

  auto copts = ClientOptions(port);
  SocketIngestSource client(copts);
  std::vector<std::string> received;
  // A few polls against nothing: all idle, backing off.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(PollInto(&client, &received, 10), SocketIngestSource::Poll::kIdle);
  }
  EXPECT_TRUE(received.empty());

  LogServerOptions options;
  options.port = port;
  ServerRunner runner(options, archive);
  ASSERT_TRUE(runner.Start());
  ASSERT_TRUE(client.ReadAll(&received));
  EXPECT_EQ(received, *archive);
  EXPECT_EQ(client.stats().Snapshot().reconnects, 0u);  // Never connected before.
}

TEST(NetTransport, FailsAfterAttemptLimit) {
  uint16_t port = 0;
  {
    FdGuard probe(ListenTcp("127.0.0.1", 0, &port));
    ASSERT_TRUE(probe.valid());
  }
  auto copts = ClientOptions(port);
  copts.attempt_limit = 3;
  SocketIngestSource client(copts);
  std::vector<std::string> received;
  EXPECT_FALSE(client.ReadAll(&received));
  EXPECT_TRUE(received.empty());
}

// A raw hand-rolled server that cuts the connection exactly half-way through a
// record, then serves the remainder on the next connection — the worst-case
// framing + resume scenario, byte-deterministic.
TEST(NetTransport, DeterministicMidRecordCut) {
  const std::vector<std::string> lines = {
      "1|AAA|1|svc-1|h-1|ANNOT|one",
      "2|BBB|1|svc-1|h-1|ANNOT|two",
      "3|CCC|1|svc-1|h-1|ANNOT|three",
      "4|DDD|1|svc-1|h-1|ANNOT|four",
  };
  uint16_t port = 0;
  FdGuard listener(ListenTcp("127.0.0.1", 0, &port));
  ASSERT_TRUE(listener.valid());

  std::atomic<uint64_t> resume_offset{~0ull};
  std::thread server([&] {
    auto read_hello = [](int fd) {
      std::string hello;
      char c;
      while (::read(fd, &c, 1) == 1 && c != '\n') {
        hello.push_back(c);
      }
      return hello;
    };
    auto accept_one = [&]() {
      pollfd pfd{listener.get(), POLLIN, 0};
      ::poll(&pfd, 1, 5'000);
      return ::accept(listener.get(), nullptr, nullptr);
    };

    // Connection 1: hello, then two full records and half of the third.
    int fd = accept_one();
    ASSERT_GE(fd, 0);
    EXPECT_EQ(read_hello(fd), "TS1 0 0");
    std::string payload = lines[0] + "\n" + lines[1] + "\n" +
                          lines[2].substr(0, lines[2].size() / 2);
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(payload.size()));
    ::close(fd);  // Abrupt: no #EOS, record 3 truncated mid-line.

    // Connection 2: the client must resume at offset 2 (complete records).
    fd = accept_one();
    ASSERT_GE(fd, 0);
    const std::string hello = read_hello(fd);
    uint64_t offset = ~0ull;
    std::sscanf(hello.c_str(), "TS1 0 %llu",
                reinterpret_cast<unsigned long long*>(&offset));
    resume_offset.store(offset);
    payload.clear();
    for (size_t i = offset; i < lines.size(); ++i) {
      payload += lines[i] + "\n";
    }
    payload += "#EOS\n";
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(payload.size()));
    ::close(fd);
  });

  auto copts = ClientOptions(port);
  SocketIngestSource client(copts);
  std::vector<std::string> received;
  ASSERT_TRUE(client.ReadAll(&received));
  server.join();

  EXPECT_EQ(resume_offset.load(), 2u);
  EXPECT_EQ(received, lines);  // Exactly once, despite the mid-record cut.
  EXPECT_EQ(client.stats().Snapshot().reconnects, 1u);
}

}  // namespace
}  // namespace ts
