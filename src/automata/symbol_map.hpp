// Byte → dense symbol-class mapping.
//
// Automata transition tables are indexed by *symbol classes*, not raw bytes:
// two bytes that no literal in the source RE distinguishes share a class.
// This keeps DFA tables small (|Q| × #classes instead of |Q| × 256) — the
// standard technique in production matchers — and lets synthetic benchmark
// NFAs use tiny abstract alphabets while recognizers still consume byte
// texts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "regex/ast.hpp"

namespace rispar {

class SymbolMap {
 public:
  /// Identity map over the first `k` printable symbols 'a', 'b', ...; used
  /// by synthetic automata whose alphabet is abstract. k <= 64.
  static SymbolMap identity(int k);

  /// Coarsest partition of the 256 bytes that refines every given class:
  /// bytes b1, b2 get the same symbol iff no set in `classes` separates
  /// them. Bytes not covered by any class map to symbol kUnmapped.
  static SymbolMap build(const std::vector<ByteSet>& classes);

  /// Symbol id of an unmapped byte; recognizers treat it as an immediate
  /// dead transition.
  static constexpr std::int32_t kUnmapped = -1;

  /// Rebuilds a map from a raw byte → symbol table (deserialization:
  /// automata/serialize.* writes raw_table() and loads through here,
  /// preserving the exact symbol numbering). Entries must be kUnmapped or
  /// a dense id range [0, max]; a gap or out-of-range id throws
  /// std::invalid_argument. The representative of each symbol is its
  /// smallest byte.
  static SymbolMap from_table(const std::array<std::int32_t, 256>& table);

  std::int32_t num_symbols() const { return num_symbols_; }

  std::int32_t symbol_of(unsigned char byte) const { return byte_to_symbol_[byte]; }

  /// Set of symbol ids intersecting the given byte class.
  std::vector<std::int32_t> symbols_of(const ByteSet& bytes) const;

  /// A representative byte per symbol (for diagnostics and text synthesis).
  unsigned char representative(std::int32_t symbol) const {
    return reps_[static_cast<std::size_t>(symbol)];
  }

  /// Translates a byte string into symbol ids (kUnmapped for alien bytes).
  /// Every output symbol is either kUnmapped or in [0, num_symbols()). The
  /// parallel byte entry points never call this on a whole text: the chunk
  /// walker reads bytes through the table block by block (translate_block,
  /// MappedBytes). It serves the serial oracles and the NFA/SFA chunk
  /// tasks, each over its own span.
  std::vector<std::int32_t> translate(std::string_view text) const;

  /// Translates `bytes` into out[0, bytes.size()) and returns the index of
  /// the first symbol outside [0, limit), or bytes.size() when all are in
  /// range: translation and first_invalid_symbol fused into one pass, so
  /// the chunk walker validates a block of raw bytes where it reads it.
  std::size_t translate_block(std::string_view bytes, std::int32_t limit,
                              std::int32_t* out) const;

  const std::array<std::int32_t, 256>& raw_table() const { return byte_to_symbol_; }

 private:
  std::int32_t num_symbols_ = 0;
  std::array<std::int32_t, 256> byte_to_symbol_{};
  std::vector<unsigned char> reps_;
};

/// Index of the first symbol outside [0, num_symbols), or chunk.size() when
/// every symbol is valid. This is the one-pass validation the chunk kernels
/// run before their unchecked inner loops: for text produced by
/// SymbolMap::translate it amounts to a scan for kUnmapped.
std::size_t first_invalid_symbol(std::span<const std::int32_t> chunk,
                                 std::int32_t num_symbols);

/// Raw bytes read through a SymbolMap: the chunk source of the byte entry
/// points. It reads like a span of symbols — text[i] is
/// map->symbol_of(bytes[i]) — so the chunk walker and the join helpers take
/// it or a span<const Symbol> alike, and no whole-text symbol vector is
/// ever built. `map` must outlive the view.
struct MappedBytes {
  MappedBytes(std::string_view text, const SymbolMap& symbols)
      : bytes(text), map(&symbols) {}

  std::string_view bytes;
  const SymbolMap* map;

  std::size_t size() const { return bytes.size(); }
  bool empty() const { return bytes.empty(); }
  MappedBytes subspan(std::size_t offset, std::size_t count) const {
    return {bytes.substr(offset, count), *map};
  }
  std::int32_t operator[](std::size_t i) const {
    return map->symbol_of(static_cast<unsigned char>(bytes[i]));
  }
};

}  // namespace rispar
