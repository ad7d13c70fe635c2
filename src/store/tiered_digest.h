// TieredDigest: ChainedStoreDigest's equal for a hot + cold tiered store.
//
// The fault-conformance contract says the bytes a query client receives per
// session id are a pure function of the arrival stream. With a cold tier in
// play those bytes come from the *union* of the hot window and the cold
// segments, merged fragment-ascending with the hot copy preferred on overlap
// — TieredFragments (src/store/tiered_reads.h), exactly what the query
// server answers FRAGMENTS with. Digesting that merge in sorted-id order
// with the same chaining as ChainedStoreDigest makes a tiered store
// byte-comparable against an unbounded fault-free baseline.
#ifndef SRC_STORE_TIERED_DIGEST_H_
#define SRC_STORE_TIERED_DIGEST_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/analytics/session_digest.h"
#include "src/analytics/session_store.h"
#include "src/core/session.h"
#include "src/store/cold_tier.h"
#include "src/store/tiered_reads.h"

namespace ts {

// Chained digest over hot ∪ cold, comparable to ChainedStoreDigest of an
// unbounded store holding the same sessions. `ids` must cover both tiers
// (union of store ids and ColdTier::ForEachId). When `sessions` is set it
// receives the number of merged (id, fragment) pairs.
inline uint64_t TieredDigest(const SessionStore& store, ColdTier& cold,
                             const std::set<std::string>& ids,
                             uint64_t* sessions = nullptr) {
  std::string canon;
  uint64_t digest = 0;
  uint64_t merged_count = 0;
  for (const auto& id : ids) {
    const std::vector<Session> merged = TieredFragments(store, &cold, id);
    for (const auto& s : merged) {
      digest ^= SessionDigest(s, &canon);
      digest = SipHash24(digest);
    }
    merged_count += merged.size();
  }
  if (sessions != nullptr) {
    *sessions = merged_count;
  }
  return digest;
}

}  // namespace ts

#endif  // SRC_STORE_TIERED_DIGEST_H_
