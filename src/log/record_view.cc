#include "src/log/record_view.h"

#include <cstring>

#include "src/log/swar_scan.h"
#include "src/log/wire_format.h"

namespace ts {
namespace {

constexpr char kSep = '|';

template <size_t (*Scan)(std::string_view, char, size_t*, size_t)>
RecordView ScanWith(std::string_view line) {
  RecordView view;
  view.line = line;
  size_t seps[RecordView::kMaxSeps];
  view.sep_count = static_cast<uint8_t>(
      Scan(line, kSep, seps, RecordView::kMaxSeps));
  for (size_t i = 0; i < view.sep_count; ++i) {
    view.sep[i] = static_cast<uint32_t>(seps[i]);
  }
  return view;
}

// Shape check mirroring six NextField calls in ParseWireFormat:
//  - ≥6 separators: all six fields exist (any may be empty), payload follows.
//  - exactly 5: the text after the fifth separator, if nonempty, is the kind
//    field and the payload is empty; if empty, the sixth NextField fails.
//  - fewer: some NextField ran out of input.
// On success writes the six field views; payload comes from the view.
bool ExtractFields(const RecordView& view, std::string_view fields[6],
                   std::string_view* payload) {
  if (view.sep_count == RecordView::kMaxSeps) {
    for (size_t i = 0; i < 6; ++i) {
      fields[i] = view.field(i);
    }
    *payload = view.payload();
    return true;
  }
  if (view.sep_count == 5) {
    std::string_view tail = view.line.substr(view.sep[4] + 1);
    if (tail.empty()) {
      return false;
    }
    for (size_t i = 0; i < 5; ++i) {
      fields[i] = view.field(i);
    }
    fields[5] = tail;
    *payload = view.line.substr(view.line.size());  // Empty, non-null data.
    return true;
  }
  return false;
}

}  // namespace

RecordView ScanRecord(std::string_view line) {
  return ScanWith<&ScanSeparators>(line);
}

RecordView ScanRecordScalar(std::string_view line) {
  return ScanWith<&ScanSeparatorsScalar>(line);
}

bool ExtractRouteKey(const RecordView& view, EventTime* time,
                     std::string_view* session_id) {
  if (view.sep_count < 2) {
    return false;
  }
  const size_t p0 = view.sep[0];
  const size_t p1 = view.sep[1];
  if (p0 == 0 || p1 == p0 + 1) {
    return false;
  }
  // Unsigned accumulation: wraps (defined) instead of signed overflow on
  // absurd digit runs; identical to the historical value for any time that
  // fits in int64, which is all the watermark contract ever promised.
  // A leading '-' is taken as ParseI64 takes it: times may be negative.
  const bool negative = view.line[0] == '-';
  if (negative && p0 == 1) {
    return false;
  }
  uint64_t t = 0;
  for (size_t i = negative ? 1 : 0; i < p0; ++i) {
    const char c = view.line[i];
    if (c < '0' || c > '9') {
      return false;
    }
    t = t * 10 + static_cast<uint64_t>(c - '0');
  }
  *time = static_cast<EventTime>(negative ? 0 - t : t);
  *session_id = view.line.substr(p0 + 1, p1 - p0 - 1);
  return true;
}

size_t PayloadOffset(const RecordView& view) {
  if (view.sep_count < RecordView::kMaxSeps) {
    return std::string_view::npos;
  }
  return view.sep[5] + 1;
}

bool FieldInterner::Lookup(std::string_view field, uint32_t* out) {
  // NUL bytes would alias the zero padding in the packed key; such fields
  // never parse anyway, so they take (and fail) the direct path.
  const bool cacheable =
      field.size() <= sizeof(uint64_t) &&
      std::memchr(field.data(), '\0', field.size()) == nullptr;
  uint64_t key = 0;
  if (cacheable) {
    std::memcpy(&key, field.data(), field.size());
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      *out = it->second;
      return true;
    }
  }
  auto parsed = wire::ParsePrefixedU32(field, prefix_);
  if (!parsed) {
    return false;
  }
  if (cacheable) {
    cache_.emplace(key, *parsed);
  }
  *out = *parsed;
  return true;
}

bool MaterializeRecord(const RecordView& view, InternerPair* interners,
                       LogRecord* out) {
  std::string_view fields[6];
  std::string_view payload;
  if (!ExtractFields(view, fields, &payload)) {
    return false;
  }
  auto time = wire::ParseI64(fields[0]);
  if (!time || fields[1].empty()) {
    return false;
  }
  uint32_t svc = 0;
  uint32_t host = 0;
  if (interners != nullptr) {
    if (!interners->svc.Lookup(fields[3], &svc) ||
        !interners->host.Lookup(fields[4], &host)) {
      return false;
    }
  } else {
    auto svc_parsed = wire::ParsePrefixedU32(fields[3], "svc-");
    auto host_parsed = wire::ParsePrefixedU32(fields[4], "h-");
    if (!svc_parsed || !host_parsed) {
      return false;
    }
    svc = *svc_parsed;
    host = *host_parsed;
  }
  auto kind = wire::ParseKind(fields[5]);
  if (!kind) {
    return false;
  }
  auto txn = TxnId::Parse(fields[2]);
  if (!txn) {
    return false;
  }
  out->time = *time;
  out->session_id.assign(fields[1].data(), fields[1].size());
  out->txn_id = std::move(*txn);
  out->service = svc;
  out->host = host;
  out->kind = *kind;
  out->payload.assign(payload.data(), payload.size());
  return true;
}

}  // namespace ts
