// The unit of zero-copy transfer from the ingest edge into the pipeline.
//
// A LineBlock is a batch of framed lines whose bytes live in a shared ingest
// arena: the framer writes recv() bytes (and any partial-line carry) into the
// arena and emits views. The pipeline re-slices those views into per-shard
// batches that keep the arena alive by reference; when the last batch drains,
// the block's bytes go away wholesale (docs/INGEST.md).
#ifndef SRC_LOG_RECORD_BATCH_H_
#define SRC_LOG_RECORD_BATCH_H_

#include <string_view>
#include <vector>

#include "src/common/arena.h"

namespace ts {

struct LineBlock {
  // Backing storage for every view in `lines`. May be shared with the
  // producer's still-filling arena; holders only read.
  ArenaRef arena;
  // One entry per framed line, newline stripped (CR too), in arrival order.
  // Entries may be empty (blank line on the wire).
  std::vector<std::string_view> lines;

  bool empty() const { return lines.empty(); }
  void clear() {
    arena.reset();
    lines.clear();
  }
};

}  // namespace ts

#endif  // SRC_LOG_RECORD_BATCH_H_
