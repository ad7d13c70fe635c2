#include "src/store/cold_segment.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/snapshot_io.h"
#include "src/fault/fs_fault.h"

namespace ts {
namespace {

// Smallest possible frame: 8-byte header + 1-byte tag.
constexpr uint32_t kMinFrameBytes = 9;

uint64_t LoadU64LE(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

// pread the exact byte range [offset, offset+len) into buf. False on any
// error or short read (a truncated file must read as damage, not garbage).
// `path` is for the fault hooks only.
bool PreadExact(int fd, const char* path, void* buf, size_t len,
                uint64_t offset) {
  char* out = static_cast<char*>(buf);
  size_t done = 0;
  while (done < len) {
    size_t want = len - done;
    const FsFaultAction fault = FsFaultOnPread(path, want, offset + done);
    if (fault.kind == FsFaultAction::Kind::kFail) {
      return false;
    }
    if (fault.kind == FsFaultAction::Kind::kClamp) {
      want = std::max<size_t>(std::min(want, fault.max_bytes), 1);
    }
    const ssize_t n =
        ::pread(fd, out + done, want, static_cast<off_t>(offset + done));
    if (n > 0) {
      FsFaultOnIoBytes(static_cast<uint64_t>(n));
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // EOF before len, or a hard error.
  }
  return true;
}

class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

bool WriteColdSegment(const std::string& path,
                      const std::vector<Session>& sessions,
                      uint64_t first_order, ColdSegmentIndex* index,
                      size_t* file_bytes) {
  if (sessions.empty()) {
    return false;
  }
  *index = ColdSegmentIndex{};
  index->entries.reserve(sessions.size());

  std::string frames;
  StoreFrameEncoder encoder;
  std::map<uint32_t, uint64_t> service_counts;
  for (const auto& session : sessions) {
    ColdSegmentEntry entry;
    entry.id = session.id;
    entry.fragment = session.fragment_index;
    entry.offset = frames.size();
    encoder.Append(session, &frames);
    entry.length = static_cast<uint32_t>(frames.size() - entry.offset);
    entry.min_time = session.MinTime();
    entry.max_time = session.MaxTime();
    entry.services = session.Services();
    for (uint32_t s : entry.services) {
      ++service_counts[s];
    }
    if (index->entries.empty()) {
      index->min_time = entry.min_time;
      index->max_time = entry.max_time;
    } else {
      index->min_time = std::min(index->min_time, entry.min_time);
      index->max_time = std::max(index->max_time, entry.max_time);
    }
    index->entries.push_back(std::move(entry));
  }
  index->count = sessions.size();
  index->first_order = first_order;
  index->last_order = first_order + sessions.size() - 1;
  index->service_counts.assign(service_counts.begin(), service_counts.end());

  std::string payload;
  payload.push_back(kColdIndexTag);
  PutU32(&payload, kColdIndexVersion);
  PutU64(&payload, index->count);
  PutU64(&payload, static_cast<uint64_t>(index->min_time));
  PutU64(&payload, static_cast<uint64_t>(index->max_time));
  PutU64(&payload, index->first_order);
  PutU64(&payload, index->last_order);
  PutU32(&payload, static_cast<uint32_t>(index->service_counts.size()));
  for (const auto& [service, count] : index->service_counts) {
    PutU32(&payload, service);
    PutU64(&payload, count);
  }
  for (const auto& entry : index->entries) {
    PutBytes(&payload, entry.id);
    PutU32(&payload, entry.fragment);
    PutU64(&payload, entry.offset);
    PutU32(&payload, entry.length);
    PutU64(&payload, static_cast<uint64_t>(entry.min_time));
    PutU64(&payload, static_cast<uint64_t>(entry.max_time));
    PutU32(&payload, static_cast<uint32_t>(entry.services.size()));
    for (uint32_t s : entry.services) {
      PutU32(&payload, s);
    }
  }

  std::string tail;
  const uint64_t index_offset = frames.size();
  AppendFrame(&tail, payload);
  PutU64(&tail, index_offset);
  tail.append(kColdSegmentMagic, kColdSegmentMagicLen);

  *file_bytes = frames.size() + tail.size();
  return WriteFileAtomic(path, {frames, tail});
}

bool LoadColdSegmentIndex(const std::string& path, ColdSegmentIndex* index,
                          size_t* file_bytes) {
  if (FsFaultOnOpen(path.c_str(), /*for_write=*/false).kind ==
      FsFaultAction::Kind::kFail) {
    return false;
  }
  const int raw_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw_fd < 0) {
    return false;
  }
  FdCloser fd(raw_fd);
  struct stat st{};
  if (::fstat(fd.get(), &st) != 0 || st.st_size < 0) {
    return false;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  // Minimum: one session frame + one index frame + trailer.
  if (size < 2 * kMinFrameBytes + kColdSegmentTrailerBytes) {
    return false;
  }
  unsigned char trailer[kColdSegmentTrailerBytes];
  if (!PreadExact(fd.get(), path.c_str(), trailer, sizeof(trailer),
                  size - kColdSegmentTrailerBytes)) {
    return false;
  }
  if (std::memcmp(trailer + 8, kColdSegmentMagic, kColdSegmentMagicLen) != 0) {
    return false;
  }
  const uint64_t index_offset = LoadU64LE(trailer);
  const uint64_t frames_end = size - kColdSegmentTrailerBytes;
  if (index_offset < kMinFrameBytes || index_offset >= frames_end) {
    return false;
  }
  const uint64_t index_frame_len = frames_end - index_offset;
  if (index_frame_len < kMinFrameBytes ||
      index_frame_len > kMaxFramePayloadBytes + 8) {
    return false;
  }
  std::string buf(static_cast<size_t>(index_frame_len), '\0');
  if (!PreadExact(fd.get(), path.c_str(), buf.data(), buf.size(),
                  index_offset)) {
    return false;
  }
  FrameParser parser(buf);
  std::string_view payload;
  if (!parser.Next(&payload) || !parser.AtEnd() || payload.empty() ||
      payload[0] != kColdIndexTag) {
    return false;
  }
  *index = ColdSegmentIndex{};
  ByteCursor cursor{payload, 1};
  uint32_t version = 0;
  uint64_t min_time = 0, max_time = 0;
  uint32_t n_services = 0;
  if (!cursor.GetU32(&version) || version != kColdIndexVersion ||
      !cursor.GetU64(&index->count) || index->count == 0 ||
      !cursor.GetU64(&min_time) || !cursor.GetU64(&max_time) ||
      !cursor.GetU64(&index->first_order) ||
      !cursor.GetU64(&index->last_order) ||
      index->last_order - index->first_order + 1 != index->count ||
      !cursor.GetU32(&n_services)) {
    return false;
  }
  index->min_time = static_cast<EventTime>(min_time);
  index->max_time = static_cast<EventTime>(max_time);
  index->service_counts.reserve(
      std::min<size_t>(n_services, cursor.remaining() / 12));
  uint32_t prev_service = 0;
  for (uint32_t i = 0; i < n_services; ++i) {
    uint32_t service = 0;
    uint64_t count = 0;
    if (!cursor.GetU32(&service) || !cursor.GetU64(&count) ||
        (i > 0 && service <= prev_service)) {
      return false;  // Summary must be strictly service-ascending.
    }
    prev_service = service;
    index->service_counts.emplace_back(service, count);
  }
  // A lying count field must not drive a giant reserve; every entry costs at
  // least 33 encoded bytes, so bound by what the payload could possibly hold.
  index->entries.reserve(
      std::min<size_t>(index->count, cursor.remaining() / 33 + 1));
  for (uint64_t i = 0; i < index->count; ++i) {
    ColdSegmentEntry entry;
    std::string_view id;
    uint64_t entry_min = 0, entry_max = 0;
    uint32_t n_entry_services = 0;
    if (!cursor.GetBytes(&id) || !cursor.GetU32(&entry.fragment) ||
        !cursor.GetU64(&entry.offset) || !cursor.GetU32(&entry.length) ||
        !cursor.GetU64(&entry_min) || !cursor.GetU64(&entry_max) ||
        !cursor.GetU32(&n_entry_services)) {
      return false;
    }
    if (entry.length < kMinFrameBytes || entry.offset > index_offset ||
        entry.length > index_offset - entry.offset) {
      return false;  // Frame must sit entirely inside the frame region.
    }
    entry.id = std::string(id);
    entry.min_time = static_cast<EventTime>(entry_min);
    entry.max_time = static_cast<EventTime>(entry_max);
    entry.services.reserve(
        std::min<size_t>(n_entry_services, cursor.remaining() / 4));
    uint32_t prev = 0;
    for (uint32_t j = 0; j < n_entry_services; ++j) {
      uint32_t service = 0;
      if (!cursor.GetU32(&service) || (j > 0 && service <= prev)) {
        return false;
      }
      prev = service;
      entry.services.push_back(service);
    }
    index->entries.push_back(std::move(entry));
  }
  if (cursor.remaining() != 0) {
    return false;
  }
  *file_bytes = static_cast<size_t>(size);
  return true;
}

bool ReadColdSession(const std::string& path, uint64_t offset, uint32_t length,
                     Session* out) {
  if (length < kMinFrameBytes || length > kMaxFramePayloadBytes + 8) {
    return false;
  }
  if (FsFaultOnOpen(path.c_str(), /*for_write=*/false).kind ==
      FsFaultAction::Kind::kFail) {
    return false;
  }
  const int raw_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw_fd < 0) {
    return false;
  }
  FdCloser fd(raw_fd);
  std::string buf(length, '\0');
  if (!PreadExact(fd.get(), path.c_str(), buf.data(), buf.size(), offset)) {
    return false;
  }
  FrameParser parser(buf);
  std::string_view payload;
  if (!parser.Next(&payload) || !parser.AtEnd()) {
    return false;
  }
  return DecodeStoreFramePayload(payload, out);
}

}  // namespace ts
