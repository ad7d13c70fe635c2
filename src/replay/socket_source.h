// SocketArrivalSource: adapts a live TCP stream (src/net's SocketIngestSource)
// to the ArrivalSource interface the IngestDriver consumes, so a timely worker
// ingests from a real log server exactly the way it ingests from the
// in-memory replayer. One instance serves one worker — the paper assigns each
// worker its own subset of the 1263 logging-process streams, which the log
// server exposes as stream partitions.
//
// This source is unpaced: every ArrivalsFor() call drains whatever the socket
// has delivered (waiting up to poll_timeout_ms for the first byte), and the
// driver flushes its re-order buffer by event-time watermark instead of by
// arrival clock.
#ifndef SRC_REPLAY_SOCKET_SOURCE_H_
#define SRC_REPLAY_SOCKET_SOURCE_H_

#include <vector>

#include "src/net/socket_ingest.h"
#include "src/replay/arrival_source.h"

namespace ts {

class SocketArrivalSource : public ArrivalSource {
 public:
  struct Options {
    SocketIngestOptions socket;
    // How long one ArrivalsFor() call waits for the first byte before handing
    // the worker back an empty batch (the worker keeps stepping other work).
    int poll_timeout_ms = 20;
  };

  explicit SocketArrivalSource(const Options& options)
      : options_(options), source_(options.socket) {}

  Fetch ArrivalsFor(size_t worker, Epoch epoch,
                    std::vector<Arrival>* out) override;

  bool paced() const override { return false; }

  // True once the source gave up reconnecting (attempt limit exhausted). The
  // stream still terminates — ArrivalsFor reports kEndOfStream — but the run
  // should be flagged as truncated.
  bool failed() const { return failed_; }

  const TransportStats& stats() const { return source_.stats(); }
  uint64_t records_received() const { return source_.records_received(); }

 private:
  Options options_;
  SocketIngestSource source_;
  LineBlock block_;  // Views into the source's arena, copied out per poll.
  bool failed_ = false;
};

}  // namespace ts

#endif  // SRC_REPLAY_SOCKET_SOURCE_H_
