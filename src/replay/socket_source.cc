#include "src/replay/socket_source.h"

namespace ts {

ArrivalSource::Fetch SocketArrivalSource::ArrivalsFor(size_t /*worker*/,
                                                      Epoch /*epoch*/,
                                                      std::vector<Arrival>* out) {
  const SocketIngestSource::Poll poll =
      source_.PollBlock(&block_, options_.poll_timeout_ms);
  for (std::string_view line : block_.lines) {
    Arrival a;
    a.line = std::string(line);
    out->push_back(std::move(a));
  }
  switch (poll) {
    case SocketIngestSource::Poll::kRecords:
    case SocketIngestSource::Poll::kIdle:
      return Fetch::kOk;
    case SocketIngestSource::Poll::kFailed:
      failed_ = true;
      return Fetch::kEndOfStream;
    case SocketIngestSource::Poll::kEndOfStream:
      return Fetch::kEndOfStream;
  }
  return Fetch::kEndOfStream;
}

}  // namespace ts
