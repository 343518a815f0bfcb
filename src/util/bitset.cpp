#include "util/bitset.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rispar {

Bitset::Bitset(std::size_t universe)
    : universe_(universe), words_((universe + 63) / 64, 0) {}

bool Bitset::empty() const {
  for (const auto word : words_)
    if (word != 0) return false;
  return true;
}

std::size_t Bitset::count() const {
  std::size_t total = 0;
  for (const auto word : words_) total += static_cast<std::size_t>(std::popcount(word));
  return total;
}

void Bitset::clear() {
  for (auto& word : words_) word = 0;
}

void Bitset::grow(std::size_t universe) {
  assert(universe >= universe_);
  universe_ = universe;
  const std::size_t words = (universe + 63) / 64;
  if (words > words_.capacity()) words_.reserve(std::max(words, 2 * words_.capacity()));
  words_.resize(words, 0);
}

Bitset& Bitset::operator|=(const Bitset& other) {
  assert(universe_ == other.universe_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  return *this;
}

Bitset& Bitset::operator&=(const Bitset& other) {
  assert(universe_ == other.universe_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  return *this;
}

Bitset& Bitset::operator-=(const Bitset& other) {
  assert(universe_ == other.universe_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
  return *this;
}

bool Bitset::intersects(const Bitset& other) const {
  assert(universe_ == other.universe_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    if (words_[w] & other.words_[w]) return true;
  return false;
}

bool Bitset::is_subset_of(const Bitset& other) const {
  assert(universe_ == other.universe_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    if (words_[w] & ~other.words_[w]) return false;
  return true;
}

std::size_t Bitset::first() const {
  for (std::size_t w = 0; w < words_.size(); ++w)
    if (words_[w] != 0)
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(words_[w]));
  return npos;
}

std::size_t Bitset::next(std::size_t i) const {
  ++i;
  if (i >= universe_) return npos;
  std::size_t w = i >> 6;
  std::uint64_t word = words_[w] & (~std::uint64_t{0} << (i & 63));
  while (true) {
    if (word != 0)
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
    if (++w >= words_.size()) return npos;
    word = words_[w];
  }
}

std::vector<std::int32_t> Bitset::to_indices() const {
  std::vector<std::int32_t> indices;
  indices.reserve(count());
  for (std::size_t i = first(); i != npos; i = next(i))
    indices.push_back(static_cast<std::int32_t>(i));
  return indices;
}

Bitset Bitset::from_indices(std::size_t universe,
                            const std::vector<std::int32_t>& indices) {
  Bitset set(universe);
  for (const auto index : indices) set.set(static_cast<std::size_t>(index));
  return set;
}

std::size_t BitsetHash::operator()(const Bitset& set) const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto word : set.words()) {
    h ^= word;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace rispar
