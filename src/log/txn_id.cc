#include "src/log/txn_id.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>

#include "src/common/status.h"

namespace ts {

TxnId::TxnId(std::span<const uint32_t> path) {
  in_.size = 0;
  uint32_t* items = Allocate(path.size());
  if (!path.empty()) {
    std::memcpy(items, path.data(), path.size() * sizeof(uint32_t));
  }
}

TxnId::TxnId(TxnId&& other) noexcept {
  std::memcpy(static_cast<void*>(this), &other, sizeof(TxnId));
  other.in_.size = 0;
}

TxnId& TxnId::operator=(const TxnId& other) {
  if (this != &other) {
    Release();
    uint32_t* items = Allocate(other.depth());
    std::copy_n(other.data(), other.depth(), items);
  }
  return *this;
}

TxnId& TxnId::operator=(TxnId&& other) noexcept {
  if (this != &other) {
    Release();
    std::memcpy(static_cast<void*>(this), &other, sizeof(TxnId));
    other.in_.size = 0;
  }
  return *this;
}

uint32_t* TxnId::Allocate(size_t n) {
  TS_CHECK(n <= std::numeric_limits<uint32_t>::max());
  if (n <= kInlineCapacity) {
    in_.size = static_cast<uint32_t>(n);
    return in_.items;
  }
  heap_.items = new uint32_t[n];
  heap_.size = static_cast<uint32_t>(n);
  return heap_.items;
}

void TxnId::Release() noexcept {
  if (on_heap()) {
    delete[] heap_.items;
  }
  in_.size = 0;
}

std::optional<TxnId> TxnId::Parse(std::string_view s) {
  if (s.empty()) {
    return std::nullopt;
  }
  // Size the id once from the dash count so parsing writes in place.
  TxnId id;
  uint32_t* items =
      id.Allocate(1 + static_cast<size_t>(std::count(s.begin(), s.end(), '-')));
  size_t n = 0;
  size_t start = 0;
  while (start <= s.size()) {
    size_t dash = s.find('-', start);
    if (dash == std::string_view::npos) {
      dash = s.size();
    }
    if (dash == start) {
      return std::nullopt;  // Empty component ("1--2", leading/trailing dash).
    }
    const char* first = s.data() + start;
    const char* last = s.data() + dash;
    auto [ptr, ec] = std::from_chars(first, last, items[n]);
    if (ec != std::errc() || ptr != last) {
      return std::nullopt;
    }
    ++n;
    if (dash == s.size()) {
      break;
    }
    start = dash + 1;
  }
  return id;
}

std::string TxnId::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void TxnId::AppendTo(std::string* out) const {
  char buf[12];  // u32 max is 10 digits.
  const std::span<const uint32_t> p = path();
  for (size_t i = 0; i < p.size(); ++i) {
    if (i > 0) {
      out->push_back('-');
    }
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), p[i]);
    out->append(buf, static_cast<size_t>(ptr - buf));
  }
}

TxnId TxnId::Parent() const {
  TS_CHECK(depth() >= 2);
  return TxnId(path().first(depth() - 1));
}

TxnId TxnId::Root() const {
  TS_CHECK(!empty());
  return TxnId(path().first(1));
}

bool TxnId::IsAncestorOf(const TxnId& other) const {
  if (depth() >= other.depth()) {
    return false;
  }
  return std::equal(data(), data() + depth(), other.data());
}

bool operator==(const TxnId& a, const TxnId& b) {
  return std::ranges::equal(a.path(), b.path());
}

std::strong_ordering operator<=>(const TxnId& a, const TxnId& b) {
  const std::span<const uint32_t> x = a.path();
  const std::span<const uint32_t> y = b.path();
  return std::lexicographical_compare_three_way(x.begin(), x.end(), y.begin(),
                                                y.end());
}

size_t TxnIdHash::operator()(const TxnId& id) const {
  // FNV-1a over the components; adequate for in-process container use.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t c : id.path()) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}

}  // namespace ts
