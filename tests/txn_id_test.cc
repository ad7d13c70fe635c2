// Model test for TxnId's inline storage: random ids from depth 0 to three
// times the inline capacity, so both sides of the inline/heap boundary, are
// checked against a plain std::vector<uint32_t> reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/log/txn_id.h"

namespace ts {
namespace {

using Model = std::vector<uint32_t>;

constexpr size_t kInline = TxnId::kInlineCapacity;
constexpr size_t kMaxDepth = 3 * kInline;

// Components mix small values (so random ids share prefixes and tie often)
// with the u32 extremes.
uint32_t RandomComponent(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return 0;
    case 1:
      return std::numeric_limits<uint32_t>::max();
    case 2:
      return static_cast<uint32_t>(rng.Next());
    default:
      return static_cast<uint32_t>(rng.NextBelow(4));
  }
}

Model RandomModel(Rng& rng, size_t depth) {
  Model m(depth);
  for (auto& c : m) {
    c = RandomComponent(rng);
  }
  return m;
}

// Depths cycle through every value in [0, kMaxDepth], boundary included.
std::vector<Model> RandomModels(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Model> models;
  for (size_t i = 0; i < count; ++i) {
    models.push_back(RandomModel(rng, i % (kMaxDepth + 1)));
  }
  return models;
}

std::string ModelString(const Model& m) {
  std::string s;
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) {
      s.push_back('-');
    }
    s += std::to_string(m[i]);
  }
  return s;
}

// FNV-1a over the components: the hash TxnIdHash has always computed.
size_t ModelHash(const Model& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t c : m) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}

void ExpectMatches(const TxnId& id, const Model& m) {
  ASSERT_EQ(id.depth(), m.size());
  EXPECT_EQ(id.empty(), m.empty());
  EXPECT_EQ(id.IsRoot(), m.size() == 1);
  EXPECT_TRUE(std::ranges::equal(id.path(), m)) << ModelString(m);
  EXPECT_EQ(id.HeapBytes(), m.size() > kInline ? m.size() * sizeof(uint32_t) : 0);
  if (!m.empty()) {
    EXPECT_EQ(id.root(), m.front());
    EXPECT_EQ(id.sibling_index(), m.back());
  }
}

TEST(TxnIdModel, ParseAndToStringRoundTripAtEveryDepth) {
  for (const Model& m : RandomModels(1, 600)) {
    const TxnId built(m);
    ExpectMatches(built, m);
    const std::string s = ModelString(m);
    EXPECT_EQ(built.ToString(), s);
    if (m.empty()) {
      EXPECT_FALSE(TxnId::Parse(s).has_value());  // Parse rejects "".
      continue;
    }
    auto parsed = TxnId::Parse(s);
    ASSERT_TRUE(parsed.has_value()) << s;
    ExpectMatches(*parsed, m);
    EXPECT_EQ(parsed->ToString(), s);
  }
}

TEST(TxnIdModel, ParseRejectsMalformedAtEveryDepth) {
  Rng rng(2);
  for (size_t depth = 1; depth <= kMaxDepth; ++depth) {
    const std::string s = ModelString(RandomModel(rng, depth));
    std::vector<std::string> bad = {s + "-", "-" + s, s + "-x", s + "-4294967296",
                                    s + "--1", s + ".1", s + " "};
    if (depth > 1) {
      const size_t dash = s.find('-');
      bad.push_back(s.substr(0, dash) + "-" + s.substr(dash));  // "a--b".
      bad.push_back(s.substr(0, dash) + "-99999999999" + s.substr(dash));
    }
    for (const std::string& b : bad) {
      EXPECT_FALSE(TxnId::Parse(b).has_value()) << b;
    }
  }
}

TEST(TxnIdModel, OrderEqualityAndHashMatchVector) {
  // Extend random prefixes so the pool holds equal ids, proper prefixes and
  // ids that first differ on either side of the boundary.
  Rng rng(3);
  std::vector<Model> models = RandomModels(4, 40);
  for (size_t i = 0; i < 160; ++i) {
    Model m = models[rng.NextBelow(models.size())];
    m.resize(rng.NextBelow(m.size() + 1));
    const size_t extra = rng.NextBelow(kMaxDepth - m.size() + 1);
    for (size_t j = 0; j < extra; ++j) {
      m.push_back(static_cast<uint32_t>(rng.NextBelow(3)));
    }
    models.push_back(std::move(m));
  }
  std::vector<TxnId> ids;
  for (const Model& m : models) {
    ids.emplace_back(m);
  }
  const TxnIdHash hash;
  for (size_t i = 0; i < models.size(); ++i) {
    EXPECT_EQ(hash(ids[i]), ModelHash(models[i]));
    for (size_t j = 0; j < models.size(); ++j) {
      EXPECT_EQ(ids[i] <=> ids[j], models[i] <=> models[j])
          << ModelString(models[i]) << " vs " << ModelString(models[j]);
      EXPECT_EQ(ids[i] == ids[j], models[i] == models[j]);
    }
  }
}

TEST(TxnIdModel, ParentRootAndAncestryMatchVector) {
  const std::vector<Model> models = RandomModels(5, 300);
  for (const Model& m : models) {
    const TxnId id(m);
    if (m.size() >= 2) {
      ExpectMatches(id.Parent(), Model(m.begin(), m.end() - 1));
    }
    if (!m.empty()) {
      ExpectMatches(id.Root(), Model{m.front()});
    }
  }
  for (size_t i = 0; i + 1 < models.size(); ++i) {
    // A prefix of the next model is an ancestor; the pairs of random models
    // are mostly not.
    const Model& m = models[i + 1];
    for (size_t len = 0; len <= m.size(); ++len) {
      const Model prefix(m.begin(), m.begin() + static_cast<ptrdiff_t>(len));
      EXPECT_EQ(TxnId(prefix).IsAncestorOf(TxnId(m)), len < m.size());
    }
    const Model& a = models[i];
    const bool proper_prefix =
        a.size() < m.size() && std::equal(a.begin(), a.end(), m.begin());
    EXPECT_EQ(TxnId(a).IsAncestorOf(TxnId(m)), proper_prefix);
  }
}

TEST(TxnIdModel, CopyMoveAndSelfAssignAcrossInlineAndHeap) {
  Rng rng(6);
  const Model shallow = RandomModel(rng, kInline);      // Largest inline id.
  const Model deep = RandomModel(rng, kInline + 1);     // Smallest heap id.
  const Model deeper = RandomModel(rng, 3 * kInline);
  const Model tiny = RandomModel(rng, 1);
  const std::pair<const Model*, const Model*> cases[] = {
      {&tiny, &shallow}, {&tiny, &deep}, {&deep, &shallow}, {&deep, &deeper}};
  for (const auto& [from, to] : cases) {
    for (const auto& [src, dst] : {std::pair(from, to), std::pair(to, from)}) {
      const TxnId source(*src);

      TxnId copied(source);
      ExpectMatches(copied, *src);
      TxnId copy_assigned(*dst);
      copy_assigned = source;
      ExpectMatches(copy_assigned, *src);
      ExpectMatches(source, *src);

      TxnId moved_from(*src);
      TxnId moved(std::move(moved_from));
      ExpectMatches(moved, *src);
      ExpectMatches(moved_from, {});  // NOLINT(bugprone-use-after-move)
      moved_from = TxnId(*dst);       // A moved-from id is reusable.
      ExpectMatches(moved_from, *dst);

      TxnId move_source(*src);
      TxnId move_assigned(*dst);
      move_assigned = std::move(move_source);
      ExpectMatches(move_assigned, *src);
      ExpectMatches(move_source, {});  // NOLINT(bugprone-use-after-move)

      TxnId self(*src);
      TxnId& alias = self;
      self = alias;
      ExpectMatches(self, *src);
      self = std::move(alias);
      ExpectMatches(self, *src);
    }
  }
}

}  // namespace
}  // namespace ts
