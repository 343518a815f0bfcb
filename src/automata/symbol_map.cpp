#include "automata/symbol_map.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

namespace rispar {

SymbolMap SymbolMap::identity(int k) {
  assert(k >= 1 && k <= 64);
  SymbolMap map;
  map.byte_to_symbol_.fill(kUnmapped);
  map.num_symbols_ = k;
  map.reps_.resize(static_cast<std::size_t>(k));
  // Printable window starting at 'a' then wrapping through other printables
  // so small alphabets stay human-readable in generated texts.
  static const char* kWindow =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";
  for (int s = 0; s < k; ++s) {
    const auto byte = static_cast<unsigned char>(kWindow[s]);
    map.byte_to_symbol_[byte] = s;
    map.reps_[static_cast<std::size_t>(s)] = byte;
  }
  return map;
}

SymbolMap SymbolMap::build(const std::vector<ByteSet>& classes) {
  // Signature of byte b = the subset of `classes` containing b. Bytes with
  // equal signatures are indistinguishable; group them by signature.
  SymbolMap map;
  map.byte_to_symbol_.fill(kUnmapped);

  std::map<std::vector<bool>, std::int32_t> signature_to_symbol;
  for (int b = 0; b < 256; ++b) {
    std::vector<bool> signature(classes.size());
    bool covered = false;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      signature[c] = classes[c].test(static_cast<std::size_t>(b));
      covered = covered || signature[c];
    }
    if (!covered) continue;  // byte never matched by any literal
    auto [it, inserted] =
        signature_to_symbol.emplace(std::move(signature), map.num_symbols_);
    if (inserted) {
      ++map.num_symbols_;
      map.reps_.push_back(static_cast<unsigned char>(b));
    }
    map.byte_to_symbol_[static_cast<std::size_t>(b)] = it->second;
  }
  return map;
}

SymbolMap SymbolMap::from_table(const std::array<std::int32_t, 256>& table) {
  SymbolMap map;
  map.byte_to_symbol_ = table;
  std::int32_t max_symbol = -1;
  for (const std::int32_t symbol : table) {
    if (symbol == kUnmapped) continue;
    if (symbol < 0 || symbol > 255)
      throw std::invalid_argument("SymbolMap::from_table: symbol id out of range");
    max_symbol = std::max(max_symbol, symbol);
  }
  map.num_symbols_ = max_symbol + 1;
  map.reps_.assign(static_cast<std::size_t>(map.num_symbols_), 0);
  std::vector<bool> seen(static_cast<std::size_t>(map.num_symbols_), false);
  for (int b = 255; b >= 0; --b) {  // walk down so the smallest byte wins
    const std::int32_t symbol = table[static_cast<std::size_t>(b)];
    if (symbol == kUnmapped) continue;
    map.reps_[static_cast<std::size_t>(symbol)] = static_cast<unsigned char>(b);
    seen[static_cast<std::size_t>(symbol)] = true;
  }
  for (std::int32_t s = 0; s < map.num_symbols_; ++s)
    if (!seen[static_cast<std::size_t>(s)])
      throw std::invalid_argument("SymbolMap::from_table: gap in symbol ids");
  return map;
}

std::vector<std::int32_t> SymbolMap::symbols_of(const ByteSet& bytes) const {
  std::vector<bool> seen(static_cast<std::size_t>(num_symbols_), false);
  std::vector<std::int32_t> result;
  for (int b = 0; b < 256; ++b) {
    if (!bytes.test(static_cast<std::size_t>(b))) continue;
    const std::int32_t symbol = byte_to_symbol_[static_cast<std::size_t>(b)];
    if (symbol == kUnmapped || seen[static_cast<std::size_t>(symbol)]) continue;
    seen[static_cast<std::size_t>(symbol)] = true;
    result.push_back(symbol);
  }
  return result;
}

std::vector<std::int32_t> SymbolMap::translate(std::string_view text) const {
  std::vector<std::int32_t> symbols;
  symbols.reserve(text.size());
  for (const char ch : text)
    symbols.push_back(byte_to_symbol_[static_cast<unsigned char>(ch)]);
  return symbols;
}

std::size_t SymbolMap::translate_block(std::string_view bytes, std::int32_t limit,
                                       std::int32_t* out) const {
  // The unsigned max-reduction of first_invalid_symbol, taken while the
  // symbols are written; only a block holding an out-of-range symbol pays
  // the second scan that locates it.
  std::uint32_t max_seen = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::int32_t symbol = byte_to_symbol_[static_cast<unsigned char>(bytes[i])];
    out[i] = symbol;
    max_seen = std::max(max_seen, static_cast<std::uint32_t>(symbol));
  }
  if (max_seen < static_cast<std::uint32_t>(limit)) return bytes.size();
  return first_invalid_symbol(std::span<const std::int32_t>(out, bytes.size()), limit);
}

std::size_t first_invalid_symbol(std::span<const std::int32_t> chunk,
                                 std::int32_t num_symbols) {
  // Blocked max-reduction so the common all-valid case vectorizes; the
  // unsigned cast folds the `< 0` and `>= num_symbols` checks into one
  // compare (negative values wrap above any valid symbol id).
  const auto limit = static_cast<std::uint32_t>(num_symbols);
  constexpr std::size_t kBlock = 64;
  std::size_t i = 0;
  for (; i + kBlock <= chunk.size(); i += kBlock) {
    std::uint32_t max_seen = 0;
    for (std::size_t j = 0; j < kBlock; ++j) {
      const auto value = static_cast<std::uint32_t>(chunk[i + j]);
      max_seen = value > max_seen ? value : max_seen;
    }
    if (max_seen < limit) continue;
    for (std::size_t j = 0; j < kBlock; ++j)
      if (static_cast<std::uint32_t>(chunk[i + j]) >= limit) return i + j;
  }
  for (; i < chunk.size(); ++i)
    if (static_cast<std::uint32_t>(chunk[i]) >= limit) return i;
  return chunk.size();
}

}  // namespace rispar
