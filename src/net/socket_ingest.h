// SocketIngestSource: the TS-side consumer of a LogServer stream.
//
// Connects to host:port, sends the "TS1 <stream> <offset>" hello, then reads
// wire-format lines with incremental newline framing (a read() may end
// mid-record; the partial tail is carried across reads). Distinguishes a
// graceful end of stream (the server's trailing "#EOS" control line) from a
// transport failure (connection drops without it): failures trigger
// reconnection with exponential backoff plus decorrelating jitter, resuming
// from the count of records already delivered, so a log-server restart
// mid-record costs no duplicates and no losses (§5's pipeline keeps archived
// logs replayable; the offset makes the client idempotent across retries).
//
// Single-fd client: poll(2) with a caller-supplied timeout, no epoll needed.
#ifndef SRC_NET_SOCKET_INGEST_H_
#define SRC_NET_SOCKET_INGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/log/record_batch.h"
#include "src/net/frame_reader.h"
#include "src/net/net_util.h"
#include "src/net/transport_stats.h"

namespace ts {

struct SocketIngestOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t stream = 0;       // Which server-side stream partition to consume.
  size_t num_streams = 1;  // Informational; the server validates stream < N.

  // Reconnect policy: exponential backoff with full jitter, i.e. each wait is
  // uniform in [0, min(backoff_max, backoff_base * 2^attempt)]. Jitter keeps
  // 1263 clients of a restarted log server from reconnecting in lock-step.
  int64_t backoff_base_ms = 20;
  int64_t backoff_max_ms = 2000;
  // Give up after this many consecutive failed connect attempts (0 = forever).
  int attempt_limit = 200;

  size_t read_chunk_bytes = 64 << 10;
  size_t max_line_bytes = 1 << 20;
  // Upper bound on records one PollBlock call may emit (0 = unlimited).
  // Bounds the ingest batch a worker must swallow per step; surplus bytes
  // stay in the kernel buffer and backpressure the server via TCP flow
  // control.
  size_t max_records_per_poll = 0;
  // Start consuming at this record offset instead of 0: the first hello asks
  // the server for "TS1 <stream> <resume_offset>". A restored checkpoint
  // (ts_ckpt) passes the offset its snapshot was barrier-aligned at, so the
  // records replayed after a crash are exactly the ones whose effects the
  // snapshot does not contain.
  uint64_t resume_offset = 0;
  // PollBlock: start a fresh ingest arena once the current one has absorbed
  // this many recv bytes. Bounds how much memory an undrained block can pin.
  size_t arena_rotate_bytes = 256 << 10;
  uint64_t jitter_seed = 1;  // Deterministic jitter for reproducible tests.
  // ts_fault seam: may refuse connects, fail or clamp reads, and corrupt
  // received bytes. Null (the default) costs one untaken branch per syscall.
  FaultInjector* fault_injector = nullptr;
};

class SocketIngestSource {
 public:
  enum class Poll {
    kRecords,      // The block holds at least one record.
    kIdle,         // Nothing arrived within the timeout (or still backing off).
    kEndOfStream,  // Graceful #EOS received and every record delivered.
    kFailed,       // Attempt limit exhausted; the source is dead.
  };

  explicit SocketIngestSource(const SocketIngestOptions& options);
  ~SocketIngestSource();
  SocketIngestSource(const SocketIngestSource&) = delete;
  SocketIngestSource& operator=(const SocketIngestSource&) = delete;

  // Pulls whatever is available, waiting up to timeout_ms for the first
  // byte: recv()s straight into a source-owned arena and fills `block` with
  // views of the complete wire lines in it (control and blank lines
  // filtered; records_received() counts exactly the lines delivered). The
  // arena is shared with the block by reference and rotated between calls
  // once it passes arena_rotate_bytes, so holding a block alive pins at most
  // one rotation's worth of recv bytes. `block` is cleared first; any
  // previous views in it must already be drained.
  Poll PollBlock(LineBlock* block, int timeout_ms);

  // Convenience: blocks until end of stream, appending a copy of every line
  // to *lines. Returns true on a graceful end, false if the source failed
  // permanently.
  bool ReadAll(std::vector<std::string>* lines);

  uint64_t records_received() const { return records_received_; }
  const TransportStats& stats() const { return stats_; }

 private:
  enum class State { kDisconnected, kConnecting, kConnected, kDone, kFailed };

  // Moves through connect/backoff machinery; returns true once connected.
  bool EnsureConnected(int64_t deadline_ms);
  void ScheduleReconnect();
  int64_t NowMs() const;

  SocketIngestOptions options_;
  State state_ = State::kDisconnected;
  FdGuard fd_;
  LineFramer framer_;
  ArenaRef arena_;  // PollBlock recv target; rotated at arena_rotate_bytes.
  bool ever_connected_ = false;
  bool hello_sent_ = false;
  size_t hello_off_ = 0;
  std::string hello_;
  bool eos_seen_ = false;
  // Completed records including any restored resume_offset; the offset the
  // next (re)connect hello asks the server to resume from.
  uint64_t records_received_ = 0;
  int attempts_ = 0;               // Consecutive failed connects.
  int64_t next_attempt_ms_ = 0;    // Earliest wall time for the next connect.
  uint64_t jitter_state_ = 0;
  TransportStats stats_;
};

}  // namespace ts

#endif  // SRC_NET_SOCKET_INGEST_H_
