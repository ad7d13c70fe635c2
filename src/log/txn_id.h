// Hierarchical transaction identifiers.
//
// The paper's logging infrastructure assigns IDs that reflect call nesting: a
// record for transaction "26-3-11-5-1" is the 1st child of the 5th child of ... of
// root transaction 26 within its session (§2.1). The sessionizer exploits this to
// rebuild trace trees without needing explicit parent pointers, and to infer
// missing interior nodes ("transaction ID of 2-10 implies there is a root
// transaction 2 and nine other siblings", §2.3).
#ifndef SRC_LOG_TXN_ID_H_
#define SRC_LOG_TXN_ID_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace ts {

// Every materialized record carries one TxnId, so ids of up to
// kInlineCapacity components (99.25% of the records of the generator's
// seed-7 Table 1 trace) live inside the object and cost no heap allocation
// to parse, copy or take a Parent()/Root() of. Deeper ids fall back to one
// exactly-sized heap array. Seven components keep sizeof(TxnId) at 32 bytes.
class TxnId {
 public:
  static constexpr size_t kInlineCapacity = 7;

  TxnId() noexcept { in_.size = 0; }
  explicit TxnId(std::span<const uint32_t> path);
  TxnId(const TxnId& other) : TxnId(other.path()) {}
  // A moved-from id is valid and empty.
  TxnId(TxnId&& other) noexcept;
  TxnId& operator=(const TxnId& other);
  TxnId& operator=(TxnId&& other) noexcept;
  ~TxnId() { Release(); }

  // Parses "26-3-11-5-1". Returns nullopt on empty input, non-numeric components,
  // or component overflow.
  static std::optional<TxnId> Parse(std::string_view s);

  std::string ToString() const;

  // Appends the "26-3-11-5-1" form to `out` without temporaries (hot on the
  // wire-encode path).
  void AppendTo(std::string* out) const;

  bool empty() const { return in_.size == 0; }
  size_t depth() const { return in_.size; }
  bool IsRoot() const { return in_.size == 1; }

  // The root transaction index (first component). Requires !empty().
  uint32_t root() const { return data()[0]; }

  // Index among siblings (last component). Requires !empty().
  uint32_t sibling_index() const { return data()[in_.size - 1]; }

  // Parent ID (one component shorter). Requires depth() >= 2.
  TxnId Parent() const;

  // Root-level ID (just the first component). Requires !empty().
  TxnId Root() const;

  // True when this ID is a strict ancestor of `other` (proper prefix).
  bool IsAncestorOf(const TxnId& other) const;

  std::span<const uint32_t> path() const { return {data(), in_.size}; }

  // Heap bytes owned by this id: zero while it fits inline.
  size_t HeapBytes() const {
    return on_heap() ? in_.size * sizeof(uint32_t) : 0;
  }

  // Total order: lexicographic over components; used for deterministic tree
  // layout and as map keys.
  friend bool operator==(const TxnId& a, const TxnId& b);
  friend std::strong_ordering operator<=>(const TxnId& a, const TxnId& b);

 private:
  // Both layouts open with the component count, so `in_.size` is readable
  // whichever is active (common initial sequence); the heap layout is active
  // exactly when size > kInlineCapacity.
  struct Inline {
    uint32_t size;
    uint32_t items[kInlineCapacity];
  };
  struct Heap {
    uint32_t size;
    uint32_t* items;
  };

  bool on_heap() const { return in_.size > kInlineCapacity; }
  const uint32_t* data() const { return on_heap() ? heap_.items : in_.items; }
  // Sets the size to `n` and returns storage for n components; the object
  // must hold nothing (empty or just released).
  uint32_t* Allocate(size_t n);
  void Release() noexcept;

  union {
    Inline in_;
    Heap heap_;
  };
};

static_assert(sizeof(TxnId) <= 32);

// Hash suitable for unordered containers.
struct TxnIdHash {
  size_t operator()(const TxnId& id) const;
};

}  // namespace ts

#endif  // SRC_LOG_TXN_ID_H_
