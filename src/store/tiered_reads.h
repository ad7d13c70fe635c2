// Tiered reads: every read over the hot SessionStore ∪ the on-disk ColdTier.
//
// This is the one place the tier merge rule lives. The query server's verbs,
// the tiered digest and the live node's replay guard all read through it:
//
//   - Hot is read before cold. Eviction moves a session hot -> cold inside
//     the store lock, so reading in this order can see a session in both
//     tiers but never in neither; the reverse order could miss one that
//     moved between the two reads.
//   - On an (id, fragment) held by both tiers — a concurrent eviction, or a
//     post-restore overlap (the snapshot restored it hot while a pre-crash
//     flush already made it durable cold) — the hot copy wins and the cold
//     one is skipped.
//   - Every cold session precedes every hot one in insertion order (see
//     cold_tier.h), so RANGE orders by (min_time, spill order) with cold
//     first on equal start times, and SERVICE (newest first) serves hot
//     before cold. Both then reproduce the bytes an unbounded store serves.
//   - Cold is collected index-only, over-collected by the hot result count
//     (so deduped twins cannot leave an answer short), and a cold frame is
//     read only when its session is emitted: a budgeted reply never
//     materializes more of the tier than it sends.
//
// `cold` may be null (no cold tier): every function then reads hot only.
// Thread-safe as the two tiers are.
#ifndef SRC_STORE_TIERED_READS_H_
#define SRC_STORE_TIERED_READS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analytics/session_store.h"
#include "src/core/session.h"
#include "src/store/cold_tier.h"

namespace ts {

// Receives sessions in answer order; returns false to stop the read (the
// caller's response budget is spent).
using SessionVisitor = std::function<bool(const Session&)>;

// Exact lookup by (id, fragment).
std::optional<Session> TieredGet(const SessionStore& hot, ColdTier* cold,
                                 const std::string& id, uint32_t fragment);

// Every fragment of `id`, fragment-ascending.
std::vector<Session> TieredFragments(const SessionStore& hot, ColdTier* cold,
                                     const std::string& id);

// True when (id, fragment) is held by either tier.
bool TieredContains(const SessionStore& hot, const ColdTier* cold,
                    const std::string& id, uint32_t fragment);

// Makes `hot` flag its twins — entries `cold` holds too — so that
// TieredTopServices can count each session once without a scan. Walks the
// store once; null detaches. Call wherever the tier is attached to the
// store, before or after a restore into it, and detach before the tier goes
// away. From then on the tier must gain keys only through the store's
// eviction sink.
void TrackColdTwins(SessionStore& hot, const ColdTier* cold);

// The `k` services touched by the most sessions over all history, as
// (service, session count) descending by count, ties to the lower service.
//
// Twin rule: hot counts + cold counts - the services of every twin, where a
// twin is a hot entry whose (id, fragment) the cold tier also holds (a
// post-restore overlap, or an older duplicate evicted while a newer copy
// stayed hot). The store flags twins where they arise (TrackColdTwins), and
// all three terms are read in one store-lock critical section (lock order
// store -> cold), so a concurrent eviction is never counted twice. Cost:
// O(#services + #twins), one cold-lock acquisition, no store scan; a flagged
// twin whose cold copy was shed is re-checked and counted hot only.
std::vector<std::pair<uint32_t, uint64_t>> TieredTopServices(
    const SessionStore& hot, const ColdTier* cold, size_t k);

// The most recently closed sessions that touched `service`, newest first,
// until `limit` are emitted or `emit` returns false.
void TieredByService(const SessionStore& hot, ColdTier* cold,
                     uint32_t service, size_t limit,
                     const SessionVisitor& emit);

// Sessions intersecting [lo, hi) by start time, until `limit` are emitted or
// `emit` returns false.
void TieredByRange(const SessionStore& hot, ColdTier* cold, EventTime lo,
                   EventTime hi, size_t limit, const SessionVisitor& emit);

}  // namespace ts

#endif  // SRC_STORE_TIERED_READS_H_
