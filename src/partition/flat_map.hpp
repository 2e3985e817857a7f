// FlatMap — the associative table behind program validation and
// compilation (partitioned_loop.cpp, compiled_program.cpp).
//
// One flat array of slots with linear probing, created at a capacity the
// caller derives from the program at hand (an op, send or receive count)
// and doubled, with a rehash, only as inserted entries fill it past half.
// A lookup is a hash plus a short walk over adjacent slots instead of a
// tree descent, and there is no per-element allocation.
//
// The size is never derived from a key: keys carry iteration numbers and
// processor ids straight off the wire (mimdd validates programs from any
// client), and only their hash ever touches an index.  Memory is
// proportional to the number of entries, each of which is one op.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/ddg.hpp"
#include "support/assert.hpp"

namespace mimd::detail {

/// Order-sensitive multiplicative mix of up to three words.  FlatMap
/// indexes by the top bits, which depend on every input bit.
constexpr std::uint64_t hash_words(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c = 0) {
  std::uint64_t h = a * 0x9E3779B97F4A7C15ULL;
  h = (h ^ b) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ c) * 0x94D049BB133111EBULL;
  return h;
}

/// `Hash` is a stateless functor mapping a Key to a 64-bit hash_words mix.
template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  /// Room for `expected_entries` keys before the first doubling.
  explicit FlatMap(std::size_t expected_entries) {
    std::size_t cap = 16;
    while (cap < 2 * expected_entries) cap *= 2;
    resize(cap);
  }

  /// The value stored under `k`, or null.
  [[nodiscard]] Value* find(const Key& k) {
    for (std::size_t i = home(k);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == k) return &s.value;
    }
  }

  /// The value stored under `k`, after inserting `v` there if `k` was
  /// absent; `.second` says whether it was inserted.
  std::pair<Value*, bool> try_emplace(const Key& k, const Value& v) {
    if (Value* found = find(k)) return {found, false};
    if (2 * (size_ + 1) > slots_.size()) grow();
    ++size_;
    Slot& s = free_slot(k);
    s = Slot{k, v, true};
    return {&s.value, true};
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  [[nodiscard]] std::size_t home(const Key& k) const {
    return static_cast<std::size_t>(Hash{}(k) >> shift_);
  }

  void resize(std::size_t cap) {
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
  }

  /// The first unused slot at or after k's home (k must be absent).
  Slot& free_slot(const Key& k) {
    std::size_t i = home(k);
    while (slots_[i].used) i = (i + 1) & mask_;
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    resize(2 * old.size());
    for (const Slot& s : old) {
      if (s.used) free_slot(s.key) = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 0;
  std::size_t size_ = 0;
};

/// (node, iteration) -> a 32-bit value, for keys with non-negative
/// iterations.  Values live in blocks of kBlock consecutive iterations of
/// one node, found through a FlatMap keyed by (node, iteration / kBlock).
/// A lowered program touches a node's iterations in order, so its lookups
/// keep hitting a few recently used blocks, where one big hashed table
/// would send each lookup to a random cache line.
class InstMap {
 public:
  /// Sized for `expected_entries` instances in dense blocks; grows when
  /// they are sparser.
  explicit InstMap(std::size_t expected_entries)
      : index_(expected_entries / kBlock + 1) {
    blocks_.reserve(expected_entries / kBlock + 1);
  }

  [[nodiscard]] std::uint32_t* find(const Inst& v) {
    MIMD_EXPECTS(v.iter >= 0);
    const std::uint32_t* id = index_.find(block_key(v));
    if (id == nullptr) return nullptr;
    std::uint32_t& slot = blocks_[*id][offset(v)];
    return slot == kEmpty ? nullptr : &slot;
  }

  /// As FlatMap::try_emplace; `value` must not be UINT32_MAX, which
  /// marks an empty cell.
  std::pair<std::uint32_t*, bool> try_emplace(const Inst& v,
                                              std::uint32_t value) {
    MIMD_EXPECTS(v.iter >= 0 && value != kEmpty);
    const auto [id, fresh] = index_.try_emplace(
        block_key(v), static_cast<std::uint32_t>(blocks_.size()));
    if (fresh) blocks_.emplace_back().fill(kEmpty);
    std::uint32_t& slot = blocks_[*id][offset(v)];
    if (slot != kEmpty) return {&slot, false};
    slot = value;
    return {&slot, true};
  }

 private:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::int64_t kBlock = 16;

  struct BlockHash {
    std::uint64_t operator()(const Inst& b) const {
      return hash_words(b.node, static_cast<std::uint64_t>(b.iter));
    }
  };

  static Inst block_key(const Inst& v) { return {v.node, v.iter / kBlock}; }
  static std::size_t offset(const Inst& v) {
    return static_cast<std::size_t>(v.iter % kBlock);
  }

  FlatMap<Inst, std::uint32_t, BlockHash> index_;
  std::vector<std::array<std::uint32_t, kBlock>> blocks_;
};

}  // namespace mimd::detail
