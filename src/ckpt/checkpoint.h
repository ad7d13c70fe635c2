// CheckpointState: everything a killed sessionizer needs to resume
// exactly-once, and its (de)serialization to the framed snapshot format.
//
// A snapshot is barrier-aligned: it is taken at an arrival-stream position N
// (the resume offset) where every shard has processed exactly the first N
// records and every session that closes at or below the barrier watermark has
// been inserted into the store. The state is therefore a pure function of the
// arrival prefix (the live pipeline's determinism contract), and restarting
// from it plus replaying records [N, ...) via the log server's
// "TS1 <stream> <offset>" hello reproduces a crash-free run byte-for-byte.
//
// Frame layout (see snapshot_io.h for the frame container):
//
//   'H' header   magic "TSCKPT", version, resume offset, watermark, counters,
//                section counts (used to detect missing frames)
//   'O' open     one open session fragment (id, last_time, records as wire
//                format lines) — one frame per fragment
//   'C' counters a chunk of (session id -> next fragment index) entries
//   'S' store    one stored session (id, fragment, epochs, records) — one
//                frame per session, oldest-inserted first
//   'T' templates the template-miner dictionary (src/parse) at the barrier —
//                at most one frame, present only when mining is enabled, so
//                a restore reproduces the exact template ids for the replayed
//                suffix
//   'E' footer   total frame count; its presence proves the file is complete
//
// Records travel as text wire-format lines (the same canonical bytes the
// transport uses), so the snapshot round-trips exactly for anything that
// arrived off the wire.
#ifndef SRC_CKPT_CHECKPOINT_H_
#define SRC_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/analytics/session_store.h"
#include "src/core/live_pipeline.h"
#include "src/core/session.h"

namespace ts {

// Version 2 added the template-frame count to the header and the 'T' frame.
// Older snapshots fail validation and are skipped (a cold start), which is
// correct — the log server replays from offset 0.
inline constexpr uint32_t kCheckpointVersion = 2;

struct CheckpointState {
  // Ingest position: records consumed from the log server at the barrier —
  // the offset the restart's hello resumes from.
  uint64_t resume_offset = 0;
  // Which server-side stream partition the offset refers to.
  uint64_t stream = 0;
  // Global prefix-max event-time watermark at the barrier;
  // LiveCloser::kNoWatermark when no record had been seen.
  EventTime ingest_watermark = LiveCloser::kNoWatermark;
  // Counter continuity for the restarted process's gauges and report.
  uint64_t records = 0;          // Parsed records up to the barrier.
  uint64_t parse_failures = 0;
  uint64_t store_inserted = 0;   // SessionStore lifetime counters.
  uint64_t store_evicted = 0;

  LiveCloserState closers;        // Open fragments + fragment numbering.
  std::vector<Session> store_sessions;  // Insertion order, oldest first.
  // Template-miner dictionary at the barrier ('T' frame; mining runs only).
  bool has_miner = false;
  TemplateMinerState miner;
};

// Encodes single stored sessions as framed 'S' records — byte-identical to
// what EncodeSnapshot emits for a `store_sessions` entry. Reuses its scratch
// buffers across calls. Lets AsyncCheckpointer serialize straight off the
// live store (and cache the frames incrementally) instead of deep-copying
// every session into a CheckpointState.
class StoreFrameEncoder {
 public:
  void Append(const Session& session, std::string* out);

 private:
  std::string payload_;
  std::string scratch_;
};

// Same idea for open fragments: emits one framed 'O' record, byte-identical
// to what EncodeSnapshot emits for a `closers.open` entry. Feeds straight off
// LiveCloser::VisitOpenFragments during the barrier pause, so the open
// section — usually the bulk of a live snapshot — is serialized exactly once,
// with no intermediate deep copy.
class OpenFrameEncoder {
 public:
  void Append(std::string_view id, EventTime last_time,
              const std::vector<LogRecord>& records, std::string* out);

 private:
  std::string payload_;
  std::string scratch_;
};

// Serializes `state` into framed snapshot bytes.
std::string EncodeSnapshot(const CheckpointState& state);

// Split encoding for writers that already hold the big sections as encoded
// frames: `open_count` 'O' frames (OpenFrameEncoder) and `store_count` 'S'
// frames (StoreFrameEncoder), logically appended after any
// `state.closers.open` / `state.store_sessions` (which are encoded into
// `head` as usual). The concatenation head | <open frames> | <store frames> |
// tail is byte-equivalent to EncodeSnapshot on an equivalent state — the
// decoder accepts section frames in any order — but the (potentially tens of
// MB) sections never pass through another assembly buffer:
// Checkpointer::Write streams the spans straight to the file.
void EncodeSnapshotParts(const CheckpointState& state, uint64_t open_count,
                         uint64_t store_count, std::string* head,
                         std::string* tail);

// Strict full validation + decode. Returns false — leaving *state unspecified
// but never crashing or reading out of bounds — on any damage: bad magic or
// version, CRC mismatch, truncation at or inside any frame, section counts
// that disagree with the frames present, unparseable embedded records, a
// missing footer, or trailing bytes after it.
bool DecodeSnapshot(std::string_view bytes, CheckpointState* state);

// Decodes one 'S' frame payload (tag byte included) back into a Session —
// the exact inverse of StoreFrameEncoder::Append's payload. Returns false on
// any damage without reading out of bounds; *out is unspecified on failure.
// Exported for the cold tier (src/store), the snapshot container's second
// consumer: cold segments are sequences of these same frames.
bool DecodeStoreFramePayload(std::string_view payload, Session* out);

}  // namespace ts

#endif  // SRC_CKPT_CHECKPOINT_H_
