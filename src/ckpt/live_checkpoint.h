// Glue between the Checkpointer and the live pipeline objects. Snapshots are
// taken by AsyncCheckpointer alone — periodic ones and LiveNode's final one
// on shutdown — which fills a CheckpointState from a collected barrier with
// FillFromPipelineCheckpoint. RestoreLiveCheckpoint loads one into a freshly
// constructed LivePipeline + SessionStore; LiveNode::Start, the crash and
// checkpoint suites and perfbench all restore through it.
#ifndef SRC_CKPT_LIVE_CHECKPOINT_H_
#define SRC_CKPT_LIVE_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "src/analytics/session_store.h"
#include "src/ckpt/checkpoint.h"
#include "src/core/live_pipeline.h"

namespace ts {

// Merges a collected PipelineCheckpoint into `state` (counters, watermark,
// closer state). Base counters from a restored snapshot are the caller's to
// add on top.
inline void FillFromPipelineCheckpoint(PipelineCheckpoint&& pipeline_state,
                                       CheckpointState* state) {
  state->ingest_watermark = pipeline_state.ingest_watermark;
  state->records = pipeline_state.records;
  state->parse_failures = pipeline_state.parse_failures;
  state->closers = std::move(pipeline_state.closers);
  state->has_miner = pipeline_state.has_miner;
  state->miner = std::move(pipeline_state.miner);
}

// A synchronous deep copy of the same barrier-aligned state, for
// perfbench's pb_trace, which writes it with Checkpointer::Write. Every
// program path snapshots through AsyncCheckpointer instead, which serializes
// the open fragments and store frames without copying them. Runs on the
// ingest thread, before Finish(), with `resume_offset` equal to the count of
// records already fed.
inline CheckpointState CaptureLiveCheckpoint(LivePipeline* pipeline,
                                             const SessionStore& store,
                                             uint64_t resume_offset,
                                             uint64_t stream = 0) {
  CheckpointState state;
  state.resume_offset = resume_offset;
  state.stream = stream;
  std::vector<LiveCloserState::OpenFragment> open;
  PipelineCheckpoint pipeline_state = pipeline->CollectCheckpoint(
      pipeline->BeginCheckpoint(),
      [&store, &state] {
        const SessionStore::Stats stats = store.stats();
        state.store_inserted = stats.inserted;
        state.store_evicted = stats.evicted;
        state.store_sessions.reserve(stats.sessions);
        store.ForEachSession(
            [&state](const Session& s) { state.store_sessions.push_back(s); });
      },
      [&open](const std::string& id, EventTime last_time,
              const std::vector<LogRecord>& records) {
        open.push_back({id, last_time, records});
      });
  FillFromPipelineCheckpoint(std::move(pipeline_state), &state);
  state.closers.open = std::move(open);
  return state;
}

// Restores a snapshot into a fresh store + pipeline. Must run before the
// pipeline's first Feed*/Flush and before query-server insert observers can
// fire meaningfully (restored sessions do not re-notify subscribers).
inline void RestoreLiveCheckpoint(CheckpointState&& state,
                                  LivePipeline* pipeline,
                                  SessionStore* store) {
  store->ImportSnapshot(std::move(state.store_sessions), state.store_inserted,
                        state.store_evicted);
  PipelineCheckpoint pipeline_state;
  pipeline_state.ingest_watermark = state.ingest_watermark;
  pipeline_state.closers = std::move(state.closers);
  pipeline_state.has_miner = state.has_miner;
  pipeline_state.miner = std::move(state.miner);
  pipeline->RestoreCheckpoint(std::move(pipeline_state));
}

}  // namespace ts

#endif  // SRC_CKPT_LIVE_CHECKPOINT_H_
