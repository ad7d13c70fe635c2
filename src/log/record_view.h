// Zero-copy view of one wire-format line, plus the single point where a view
// becomes an owning LogRecord.
//
// A RecordView is the columnar ingest representation: the line bytes live in
// an ingest arena (see src/common/arena.h) and the view carries the offsets
// of the first six '|' separators, found once by the SWAR scanner on the
// ingest thread. Shard workers read fields through the accessors and parse
// numerics lazily in MaterializeRecord — nothing between recv() and the
// closer copies line bytes. Views are only valid while the batch holding the
// arena reference is alive; nobody may keep one past batch drain
// (docs/INGEST.md).
//
// Parity contract: MaterializeRecord(Scan(line)) must accept exactly the
// lines ParseWireFormat(line) accepts and produce an identical LogRecord —
// the property suite and fuzz_line_scanner enforce this byte-for-byte.
#ifndef SRC_LOG_RECORD_VIEW_H_
#define SRC_LOG_RECORD_VIEW_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "src/common/time_util.h"
#include "src/log/record.h"

namespace ts {

struct RecordView {
  static constexpr size_t kMaxSeps = 6;

  std::string_view line;  // Whole line, no trailing newline.
  // Offsets of the first ≤6 '|' bytes. Payload bytes may contain '|'; only
  // the first six ever delimit, so the scan stops there.
  uint32_t sep[kMaxSeps] = {0, 0, 0, 0, 0, 0};
  uint8_t sep_count = 0;

  // Field accessors are only meaningful up to sep_count; callers follow the
  // same shape checks MaterializeRecord applies.
  std::string_view field(size_t i) const {
    const size_t begin = i == 0 ? 0 : sep[i - 1] + 1;
    const size_t end = i < sep_count ? sep[i] : line.size();
    return line.substr(begin, end - begin);
  }
  // Payload: everything past the sixth separator (requires sep_count == 6).
  std::string_view payload() const { return line.substr(sep[5] + 1); }
};

// Builds a view via the SWAR separator scan. `line` must not contain '\n'
// (the framer already split on it) and must be < 4GiB (framer caps lines at
// 1MiB). ScanRecordScalar is the byte-at-a-time reference.
RecordView ScanRecord(std::string_view line);
RecordView ScanRecordScalar(std::string_view line);

// Route-key extraction over a pre-scanned view: the event time (first field,
// an optional '-' then digits, wrap-around accumulation) and the session id
// (second field). Shared by the line and block paths so routing cannot
// diverge between them.
bool ExtractRouteKey(const RecordView& view, EventTime* time,
                     std::string_view* session_id);

// Offset of the payload field, or npos when the line has < 6 separators
// (malformed; template mining skips it deterministically).
size_t PayloadOffset(const RecordView& view);

// Per-connection dictionary memoizing one prefixed field → id parse
// ("svc-204" → 204 under prefix "svc-"). The prefix is fixed at construction
// so a field cached under one prefix can never satisfy a lookup under
// another (a swapped-field line must keep failing exactly like the scalar
// parser). Content-addressed over the raw field bytes — same bytes always
// map to the same id — so it is semantically a pure cache: clearing it at
// any moment, in particular on reconnect when a new producer may renumber
// its services, cannot change any output, only cold-start cost. Fields
// longer than 8 bytes or containing NUL skip the cache and parse directly.
class FieldInterner {
 public:
  explicit FieldInterner(std::string_view prefix) : prefix_(prefix) {}

  // Memoized parse of `field` as prefix+u32. Returns false when the field
  // does not parse; failures are not cached (they stay rare and re-fail
  // identically).
  bool Lookup(std::string_view field, uint32_t* out);

  void Clear() { cache_.clear(); }
  size_t size() const { return cache_.size(); }

 private:
  std::string_view prefix_;
  // Key = field bytes (≤8) packed little-endian into a uint64, zero-padded.
  // The length is implied by the padding: NUL-containing fields are excluded
  // from the cache, so padding zeros are unambiguous.
  std::unordered_map<uint64_t, uint32_t> cache_;
};

// Both dictionaries a connection needs; cleared together on reconnect.
struct InternerPair {
  FieldInterner svc{"svc-"};
  FieldInterner host{"h-"};
  void Clear() {
    svc.Clear();
    host.Clear();
  }
};

// The single materialization point: validates the view with semantics
// byte-identical to ParseWireFormat and copies the surviving fields into an
// owning LogRecord. Returns false on exactly the lines ParseWireFormat
// rejects. `interners` may be null (uncached numeric parse).
bool MaterializeRecord(const RecordView& view, InternerPair* interners,
                       LogRecord* out);

}  // namespace ts

#endif  // SRC_LOG_RECORD_VIEW_H_
