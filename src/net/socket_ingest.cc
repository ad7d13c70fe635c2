#include "src/net/socket_ingest.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>

namespace ts {
namespace {

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

void SleepMs(int64_t ms) {
  if (ms > 0) {
    ::poll(nullptr, 0, static_cast<int>(ms));
  }
}

}  // namespace

SocketIngestSource::SocketIngestSource(const SocketIngestOptions& options)
    : options_(options),
      framer_(LineFramer::Options{options.max_line_bytes}),
      records_received_(options.resume_offset),
      jitter_state_(options.jitter_seed * 0x9E3779B97F4A7C15ull | 1) {}

SocketIngestSource::~SocketIngestSource() = default;

int64_t SocketIngestSource::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SocketIngestSource::ScheduleReconnect() {
  state_ = State::kDisconnected;
  fd_.Close();
  hello_sent_ = false;
  hello_off_ = 0;
  // Drop the truncated tail of any record cut off mid-line; the resume offset
  // only counts complete records, so the server re-sends that record whole.
  framer_.Reset();
  if (options_.attempt_limit > 0 && attempts_ >= options_.attempt_limit) {
    state_ = State::kFailed;
    return;
  }
  // Exponential backoff, full jitter: uniform in [0, min(max, base * 2^n)].
  int64_t ceiling = options_.backoff_base_ms;
  for (int i = 0; i < attempts_ && ceiling < options_.backoff_max_ms; ++i) {
    ceiling *= 2;
  }
  if (ceiling > options_.backoff_max_ms) {
    ceiling = options_.backoff_max_ms;
  }
  const int64_t wait =
      ceiling > 0 ? static_cast<int64_t>(XorShift64(&jitter_state_) %
                                         static_cast<uint64_t>(ceiling + 1))
                  : 0;
  next_attempt_ms_ = NowMs() + wait;
  ++attempts_;
}

bool SocketIngestSource::EnsureConnected(int64_t deadline_ms) {
  while (state_ != State::kConnected) {
    if (state_ == State::kFailed || state_ == State::kDone) {
      return false;
    }
    const int64_t now = NowMs();
    if (state_ == State::kDisconnected) {
      if (now < next_attempt_ms_) {
        SleepMs(std::min(next_attempt_ms_, deadline_ms) - now);
        if (NowMs() < next_attempt_ms_) {
          return false;  // Deadline hit while still backing off.
        }
      }
      if (!FaultOnConnect(options_.fault_injector)) {
        ScheduleReconnect();  // Injected refusal window: back off and retry.
        continue;
      }
      const int fd = ConnectTcpNonBlocking(options_.host, options_.port);
      if (fd < 0) {
        ScheduleReconnect();
        continue;
      }
      fd_ = FdGuard(fd);
      state_ = State::kConnecting;
    }
    // kConnecting: wait for the socket to become writable, then check SO_ERROR.
    pollfd pfd{fd_.get(), POLLOUT, 0};
    const int64_t wait = deadline_ms - NowMs();
    const int r = ::poll(&pfd, 1, wait < 0 ? 0 : static_cast<int>(wait));
    if (r == 0) {
      return false;  // Connect still in flight at the deadline.
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (r < 0 ||
        getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ScheduleReconnect();
      continue;
    }
    state_ = State::kConnected;
    stats_.IncConnects();
    if (ever_connected_) {
      stats_.IncReconnects();
    }
    ever_connected_ = true;
    attempts_ = 0;
    char hello[64];
    std::snprintf(hello, sizeof(hello), "TS1 %zu %llu\n", options_.stream,
                  static_cast<unsigned long long>(records_received_));
    hello_ = hello;
    hello_off_ = 0;
    hello_sent_ = false;
  }

  while (!hello_sent_) {
    size_t want = hello_.size() - hello_off_;
    const FaultAction fault = FaultOnSend(options_.fault_injector, want);
    if (fault.kind == FaultAction::Kind::kFail) {
      if (fault.error == EINTR) {
        continue;
      }
      if (fault.error == EAGAIN || fault.error == EWOULDBLOCK) {
        return true;  // Retry on the next poll, like a real EAGAIN below.
      }
      ScheduleReconnect();  // Injected kill mid-hello.
      return false;
    }
    if (fault.kind == FaultAction::Kind::kClamp) {
      want = std::max<size_t>(std::min(want, fault.max_bytes), 1);
    }
    const ssize_t n =
        ::send(fd_.get(), hello_.data() + hello_off_, want, MSG_NOSIGNAL);
    if (n > 0) {
      FaultOnIoBytes(options_.fault_injector, static_cast<uint64_t>(n));
      stats_.AddBytesOut(static_cast<uint64_t>(n));
      hello_off_ += static_cast<size_t>(n);
      hello_sent_ = hello_off_ == hello_.size();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;  // A 64-byte hello virtually never blocks; retry next poll.
    }
    ScheduleReconnect();
    return false;
  }
  return true;
}

SocketIngestSource::Poll SocketIngestSource::PollBlock(LineBlock* block,
                                                       int timeout_ms) {
  const int64_t deadline = NowMs() + timeout_ms;
  block->clear();
  if (arena_ == nullptr || arena_->bytes_used() > options_.arena_rotate_bytes) {
    arena_ = std::make_shared<Arena>();
  }
  block->arena = arena_;
  size_t emitted = 0;
  std::vector<std::string_view> framed;

  while (true) {
    if (state_ == State::kDone) {
      return emitted > 0 ? Poll::kRecords : Poll::kEndOfStream;
    }
    if (state_ == State::kFailed) {
      return emitted > 0 ? Poll::kRecords : Poll::kFailed;
    }
    if (!EnsureConnected(deadline)) {
      if (state_ == State::kFailed && emitted == 0) {
        return Poll::kFailed;
      }
      return emitted > 0 ? Poll::kRecords : Poll::kIdle;
    }

    pollfd pfd{fd_.get(), POLLIN, 0};
    const int64_t wait = deadline - NowMs();
    const int r = ::poll(&pfd, 1, wait < 0 ? 0 : static_cast<int>(wait));
    if (r == 0) {
      return emitted > 0 ? Poll::kRecords : Poll::kIdle;
    }
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      ScheduleReconnect();
      continue;
    }

    bool dropped = false;
    while (true) {
      // recv() straight into the block's arena: the chunk tail is offered
      // first so short reads never strand chunk remainders, and the framed
      // views alias these bytes with no copy.
      size_t got = 0;
      char* buf = arena_->ReserveUpTo(/*min_bytes=*/4096,
                                      options_.read_chunk_bytes, &got);
      size_t want = got;
      const FaultAction fault = FaultOnRecv(options_.fault_injector, want);
      if (fault.kind == FaultAction::Kind::kFail) {
        if (fault.error == EINTR) {
          continue;
        }
        if (fault.error == EAGAIN || fault.error == EWOULDBLOCK) {
          break;  // Behaves like a drained socket; poll again.
        }
        dropped = true;  // Injected kill: reconnect and resume.
        break;
      }
      if (fault.kind == FaultAction::Kind::kClamp) {
        want = std::max<size_t>(std::min(want, fault.max_bytes), 1);
      }
      const ssize_t n = ::recv(fd_.get(), buf, want, 0);
      if (n > 0) {
        FaultOnIoBytes(options_.fault_injector, static_cast<uint64_t>(n));
        FaultOnRecvData(options_.fault_injector, buf, static_cast<size_t>(n));
        stats_.AddBytesIn(static_cast<uint64_t>(n));
        arena_->Commit(static_cast<size_t>(n));
        framed.clear();
        framer_.FeedViews(std::string_view(buf, static_cast<size_t>(n)),
                          arena_.get(), &framed);
        for (std::string_view line : framed) {
          if (!line.empty() && line[0] == '#') {
            if (line == "#EOS") {
              eos_seen_ = true;
            }
            continue;  // Control lines never reach the parser.
          }
          if (line.empty()) {
            continue;
          }
          ++records_received_;
          stats_.AddRecordsIn(1);
          block->lines.push_back(line);
          ++emitted;
        }
        if (eos_seen_) {
          state_ = State::kDone;
          fd_.Close();
          return emitted > 0 ? Poll::kRecords : Poll::kEndOfStream;
        }
        if (options_.max_records_per_poll > 0 &&
            emitted >= options_.max_records_per_poll) {
          return Poll::kRecords;  // Batch cap hit; the rest waits its turn.
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      // read()==0 or a hard error: the server vanished without #EOS.
      dropped = true;
      break;
    }
    if (dropped) {
      ScheduleReconnect();
      // The views already in `block` stay valid (the arena outlives the
      // reconnect), but this block now spans connections; the reset flag set
      // by ScheduleReconnect rides on the NEXT block, which is fine — the
      // dictionaries are a pure cache, so reset timing is output-neutral.
      continue;
    }
    if (emitted > 0) {
      return Poll::kRecords;  // Drained to EAGAIN with records in hand.
    }
  }
}

bool SocketIngestSource::ReadAll(std::vector<std::string>* lines) {
  LineBlock block;
  while (true) {
    const Poll poll = PollBlock(&block, /*timeout_ms=*/200);
    lines->insert(lines->end(), block.lines.begin(), block.lines.end());
    if (poll == Poll::kEndOfStream) {
      return true;
    }
    if (poll == Poll::kFailed) {
      return false;
    }
  }
}

}  // namespace ts
