// Dynamic bitset tuned for automata state sets.
//
// std::vector<bool> lacks word-level access (needed for fast union /
// intersection / iteration over set bits) and std::bitset is fixed-size.
// Automata code manipulates sets over state universes whose size is only
// known at construction time, so we provide a small dedicated type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rispar {

class Bitset {
 public:
  Bitset() = default;
  /// Creates a set over the universe [0, universe), all bits clear.
  explicit Bitset(std::size_t universe);

  std::size_t universe() const { return universe_; }
  bool empty() const;
  /// Number of set bits.
  std::size_t count() const;

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  void clear();
  /// Widens the universe to `universe` (>= the current one), keeping every
  /// bit; the word storage grows geometrically, so repeated one-element
  /// growth is amortized O(1).
  void grow(std::size_t universe);

  /// Set-algebraic updates; all operands must share the same universe.
  Bitset& operator|=(const Bitset& other);
  Bitset& operator&=(const Bitset& other);
  Bitset& operator-=(const Bitset& other);  ///< set difference

  bool operator==(const Bitset& other) const = default;

  /// True iff the intersection with `other` is non-empty.
  bool intersects(const Bitset& other) const;
  /// True iff every element of this set is in `other`.
  bool is_subset_of(const Bitset& other) const;

  /// Index of the lowest set bit, or npos when empty.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t first() const;
  /// Index of the lowest set bit strictly greater than i, or npos.
  std::size_t next(std::size_t i) const;

  /// Materializes the set as a sorted vector of indices.
  std::vector<std::int32_t> to_indices() const;
  /// Builds a set from indices (each must be < universe).
  static Bitset from_indices(std::size_t universe,
                             const std::vector<std::int32_t>& indices);

  /// Word-level access for hashing.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::size_t universe_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Hash functor so Bitset can key unordered containers.
struct BitsetHash {
  std::size_t operator()(const Bitset& set) const;
};

}  // namespace rispar
