// The one chunk walker: the speculative multi-start reach behind recognize
// (run_chunk_det), count (count_matches) and find (find_matches,
// stream_find_feed).
//
// A walk advances every start of `starts` over one chunk in lockstep on the
// width-packed, symbol-major table (automata/packed_table.hpp) — the chunk
// is streamed once however many starts there are, and dead runs are
// compacted out so each symbol costs O(live). The chunk is a *source*:
// either symbols already translated (span<const Symbol>, read in place) or
// raw bytes with their SymbolMap (MappedBytes, automata/symbol_map.hpp),
// read through the map's 256-entry table where the walk consumes them — so
// the byte entry points never build a whole-text symbol vector. Three more
// template parameters shape a walk:
//
//  * the table width T (u8 / u16 / i32 entries), picked from the table;
//  * kConvergent — runs that land in the same state at the same position
//    merge (the Mytkowicz-style optimization the paper lists as compatible,
//    Sect. 5): the later run records its parent and stops executing, so the
//    merged runs count as ONE live run from the merge point on;
//  * a Recorder — what a live run remembers per step: nothing for the
//    recognize λ (NoRecord), a hit counter for count, hits plus the last
//    separator for find (match_count.cpp). Recorders see step(node, next,
//    pos) for every executed transition and merge(node, into, pos) for
//    every convergence merge.
//
// The advance step is chosen from the live count, per validated block of
// kValidateBlock symbols and again whenever the count crosses a band
// mid-block (live runs only ever die or merge, so a walk moves down the
// bands, never up):
//
//  * kGatherLanes (8) or more live runs or groups — one vector gather per
//    symbol over the whole live block (util/simd_gather.hpp: AVX2 or the
//    portable unrolled loop, picked once per process). A passive recorder
//    under independent runs hands the whole block to the backend's span
//    loop; otherwise the gathered states feed the same bookkeeping loop as
//    the scalar step;
//  * 2..7 — the scalar column loop: one column base per symbol, one
//    dependent table load per live run;
//  * 1 — the lone-run loop (lone_run, shared by both convergence modes),
//    with no compaction bookkeeping at all; it maps and checks each symbol
//    inline instead of validating blocks and runs to the chunk end (or the
//    next governance poll).
//
// All three steps produce bit-identical forests, recorder contents and
// transition counts, from either source (tests/test_ca_run.cpp checks
// every band against run_chunk_det_reference, tests/test_byte_path.cpp the
// bytes against their symbols). The many-run steps validate each block
// right before their unchecked loops consume it — for bytes, the same pass
// translates the block into a stack buffer; an out-of-alphabet symbol (an
// unmapped byte) kills every live run without being counted (the
// accounting convention of parallel/ca_run.hpp). Governance polls between
// steps once the consumed symbols reach kGovernorStride.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "automata/dfa.hpp"
#include "automata/packed_table.hpp"
#include "automata/symbol_map.hpp"
#include "util/governance.hpp"
#include "util/simd_gather.hpp"

namespace rispar {

/// Symbols are validated (bytes translated and validated) in windows of this
/// size immediately before the unchecked inner loops consume them, so a
/// chunk whose runs all die early never pays for validating its tail.
inline constexpr std::size_t kValidateBlock = 512;

/// A gather block is 8 lanes wide: from this many live runs on, the walker
/// advances them with the vector gather.
inline constexpr std::size_t kGatherLanes = 8;

/// The merge forest of one walk, indexed like `starts` (node i = starts[i]).
/// Merged nodes always point at an EARLIER node (the live list stays in
/// node order and the first run to reach a state claims it), so resolving
/// a node's root in ascending node order needs no recursion.
struct WalkForest {
  /// The node this run merged into (convergence only), -1 for a run that
  /// led its own group to its death or to the chunk end.
  std::vector<std::int32_t> parent;
  /// For a root: its end state, kDeadState when it died. Unused for merged
  /// nodes — their end is their root's.
  std::vector<State> end;
  std::uint64_t transitions = 0;
};

/// The recognize λ recorder: a run remembers nothing but its state.
struct NoRecord {
  static constexpr bool kPassive = true;
  void step(std::uint32_t, std::int32_t, std::int64_t) {}
  void merge(std::uint32_t, std::uint32_t, std::int64_t) {}
};

namespace walker_detail {

/// One validated block of a chunk: symbols[0, valid) are in range and,
/// when valid < size, symbols[valid] is an alien symbol.
struct Block {
  const Symbol* symbols;
  std::size_t valid;
  std::size_t size;
};

// A symbol span is validated in place.
inline Block fill_block(std::span<const Symbol> chunk, std::size_t pos,
                        std::int32_t num_symbols, Symbol*) {
  const std::size_t size = std::min(kValidateBlock, chunk.size() - pos);
  const Symbol* symbols = chunk.data() + pos;
  return {symbols, first_invalid_symbol({symbols, size}, num_symbols), size};
}

// Raw bytes are translated into the walker's stack buffer by the same pass
// that validates them.
inline Block fill_block(const MappedBytes& chunk, std::size_t pos,
                        std::int32_t num_symbols, Symbol* scratch) {
  const std::size_t size = std::min(kValidateBlock, chunk.size() - pos);
  return {scratch,
          chunk.map->translate_block(chunk.bytes.substr(pos, size), num_symbols, scratch),
          size};
}

/// Where a lone run stopped, in what state, and whether it died there.
struct LoneEnd {
  std::size_t pos;
  std::size_t state;
  bool died;
};

// The lone-run loop: the last live run steps over chunk[pos, stop) with no
// compaction bookkeeping. It reads each symbol where it stands (a byte
// through its map) and checks it inline — one predictable compare off the
// dependent load chain, cheaper than a validation pass — and keeps its
// state zero-extended so the chain carries no sign extension. Convergence
// cannot merge a lone run, so the independent and convergent walks share
// this one out-of-line body.
template <typename T, typename Source, typename Recorder>
[[gnu::noinline]] LoneEnd lone_run(const T* entries, std::size_t n, std::uint32_t limit,
                                   const Source chunk, std::size_t pos, std::size_t stop,
                                   std::size_t s, std::uint32_t id, Recorder& record) {
  for (; pos < stop; ++pos) {
    const auto symbol = static_cast<std::uint32_t>(chunk[pos]);
    if (symbol >= limit) return {pos, s, true};  // alien symbol: dies uncounted
    const T next = entries[symbol * n + s];
    if (next == PackedDead<T>::value) return {pos, s, true};
    s = static_cast<std::make_unsigned_t<T>>(next);
    record.step(id, static_cast<std::int32_t>(s), static_cast<std::int64_t>(pos + 1));
  }
  return {pos, s, false};
}

template <bool kConvergent, typename T, typename Source, typename Recorder>
WalkForest walk(const PackedTable& table, const Source& chunk,
                std::span<const State> starts, Recorder& record,
                const QueryGovernor* gov) {
  constexpr std::int32_t kDead = PackedWideDead<T>;
  const T* entries = table.data<T>();
  const auto n = static_cast<std::size_t>(table.num_states());
  const auto limit = static_cast<std::uint32_t>(table.num_symbols());
  const auto column = [&](Symbol symbol) {
    return entries + static_cast<std::size_t>(symbol) * n;
  };

  WalkForest forest;
  forest.parent.assign(starts.size(), -1);
  forest.end.assign(starts.size(), kDeadState);

  // The live list: i32 states (the gather index type) with their node ids,
  // kept in ascending node order by order-preserving compaction.
  std::vector<std::int32_t> state(starts.size());
  std::vector<std::uint32_t> node(starts.size());
  // Convergence: stamp[s] == epoch ⇔ state s was claimed this round, by
  // node owner[s]. 64-bit epochs never wrap; 0-filled stamps mean unseen.
  std::vector<std::uint64_t> stamp;
  std::vector<std::uint32_t> owner;
  std::uint64_t epoch = 1;
  if constexpr (kConvergent) {
    stamp.assign(n, 0);
    owner.resize(n);
  }
  const auto merge = [&](std::uint32_t id, std::uint32_t into, std::int64_t at) {
    forest.parent[id] = static_cast<std::int32_t>(into);
    record.merge(id, into, at);
  };

  std::size_t live = 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    if constexpr (kConvergent) {
      // Duplicate starts merge before the first symbol.
      const auto s = static_cast<std::size_t>(starts[i]);
      if (stamp[s] == epoch) {
        merge(id, owner[s], 0);
        continue;
      }
      stamp[s] = epoch;
      owner[s] = id;
    }
    state[live] = starts[i];
    node[live] = id;
    ++live;
  }

  // One symbol's bookkeeping over the live list, `next_of(i)` giving slot
  // i's advanced state; `at` is the 1-based position after the symbol.
  // Reads slot i before compaction writes slot `write` <= i.
  std::uint64_t transitions = 0;
  const auto settle = [&](auto next_of, std::int64_t at) {
    if constexpr (kConvergent) ++epoch;
    std::size_t write = 0;
    std::size_t survived = 0;
    for (std::size_t i = 0; i < live; ++i) {
      const std::int32_t next = next_of(i);
      if (next == kDead) continue;  // the run dies; the symbol is not counted
      const std::uint32_t id = node[i];
      record.step(id, next, at);
      if constexpr (kConvergent) {
        ++survived;  // one executed transition per surviving group
        const auto s = static_cast<std::size_t>(next);
        if (stamp[s] == epoch) {
          // The claiming run was advanced earlier this round, so its record
          // already holds this position's step; sharing starts after it.
          merge(id, owner[s], at);
          continue;
        }
        stamp[s] = epoch;
        owner[s] = id;
      }
      state[write] = next;
      node[write] = id;
      ++write;
    }
    transitions += kConvergent ? survived : write;
    live = write;
  };

  const simd::GatherOps& ops = simd::gather_ops();
  Symbol scratch[kValidateBlock]{};  // a byte chunk's current block, translated
  std::size_t pos = 0;
  std::size_t next_poll = kGovernorStride;
  while (pos < chunk.size() && live > 0) {
    if (gov != nullptr && pos >= next_poll) {
      gov->poll();
      next_poll = pos + kGovernorStride;
    }
    if (live == 1) {
      // The lone run goes to the chunk end or the next poll.
      const std::size_t stop = gov != nullptr ? std::min(chunk.size(), next_poll)
                                              : chunk.size();
      const LoneEnd end =
          lone_run<T>(entries, n, limit, chunk, pos, stop,
                      static_cast<std::uint32_t>(state[0]), node[0], record);
      transitions += end.pos - pos;
      pos = end.pos;
      state[0] = static_cast<std::int32_t>(end.state);
      if (end.died) live = 0;
      continue;
    }
    const Block block = fill_block(chunk, pos, table.num_symbols(), scratch);
    std::size_t k = 0;  // symbols of the block consumed
    if (live >= kGatherLanes) {
      if constexpr (!kConvergent && Recorder::kPassive) {
        k = simd::advance_span_fn<T>(ops)(entries, n, block.symbols, block.valid,
                                          state.data(), node.data(), live, transitions,
                                          kGatherLanes);
      } else {
        const simd::GatherFn gather = simd::gather_fn<T>(ops);
        for (; k < block.valid && live >= kGatherLanes; ++k) {
          gather(column(block.symbols[k]), state.data(), live, state.data());
          settle([&](std::size_t i) { return state[i]; },
                 static_cast<std::int64_t>(pos + k + 1));
        }
      }
    } else {
      for (; k < block.valid && live > 1; ++k) {
        const T* col = column(block.symbols[k]);
        settle([&](std::size_t i) { return static_cast<std::int32_t>(col[state[i]]); },
               static_cast<std::int64_t>(pos + k + 1));
      }
    }
    pos += k;
    if (live > 0 && k == block.valid && block.valid < block.size)
      live = 0;  // alien symbol at pos: every run dies uncounted
  }

  for (std::size_t i = 0; i < live; ++i)
    forest.end[node[i]] = static_cast<State>(state[i]);
  forest.transitions = transitions;
  return forest;
}

template <typename T, typename Source, typename Recorder>
WalkForest walk_width(const PackedTable& table, const Source& chunk,
                      std::span<const State> starts, bool convergence, Recorder& record,
                      const QueryGovernor* gov) {
  return convergence ? walk<true, T>(table, chunk, starts, record, gov)
                     : walk<false, T>(table, chunk, starts, record, gov);
}

}  // namespace walker_detail

/// Walks `chunk` — a span<const Symbol>, or MappedBytes read through their
/// map — from every state of `starts` (valid state ids of `dfa`),
/// reporting each executed step to `record`. `gov` must be normalized
/// (nullptr when inactive).
template <typename Source, typename Recorder>
WalkForest walk_chunk(const Dfa& dfa, const Source& chunk,
                      std::span<const State> starts, bool convergence, Recorder& record,
                      const QueryGovernor* gov) {
  const PackedTable& table = dfa.packed();
  switch (table.width()) {
    case TableWidth::kU8:
      return walker_detail::walk_width<std::uint8_t>(table, chunk, starts, convergence,
                                                     record, gov);
    case TableWidth::kU16:
      return walker_detail::walk_width<std::uint16_t>(table, chunk, starts, convergence,
                                                      record, gov);
    case TableWidth::kI32:
      break;
  }
  return walker_detail::walk_width<std::int32_t>(table, chunk, starts, convergence,
                                                 record, gov);
}

/// The one look-back probe (Yang & Prasanna [28], the paper's Sect. 5), for
/// count and find chunks after the first: advances every state of `dfa`
/// over the `lookback` symbols before text[boundary] (fewer near the text
/// start) in one convergent walk and returns the distinct live end states,
/// ascending; the probe's transitions
/// are added to `transitions` (speculative work, parallel/ca_run.hpp). The
/// serial run crosses the same symbols, so whenever it is alive at the
/// boundary its state is among the seeds: seeding a chunk from them never
/// changes a result, only how many runs speculate. `text` is a walk_chunk
/// source.
template <typename Source>
std::vector<State> lookback_seeds(const Dfa& dfa, const Source& text,
                                         std::size_t boundary, std::size_t lookback,
                                         std::uint64_t& transitions,
                                         const QueryGovernor* gov) {
  const std::size_t length = std::min(lookback, boundary);
  std::vector<State> all(static_cast<std::size_t>(dfa.num_states()));
  std::iota(all.begin(), all.end(), 0);
  NoRecord none;
  const WalkForest forest = walk_chunk(dfa, text.subspan(boundary - length, length), all,
                                       /*convergence=*/true, none, gov);
  transitions += forest.transitions;
  std::vector<State> seeds;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (forest.parent[i] < 0 && forest.end[i] != kDeadState) seeds.push_back(forest.end[i]);
  std::sort(seeds.begin(), seeds.end());
  return seeds;
}

/// The look-back, in symbols, count and find seed every chunk after the
/// first from; a Σ*p searcher on log lines synchronizes well within it.
/// They clamp it to the chunk's length, so the probe never costs more than
/// the chunk's walk from every state would.
inline constexpr std::size_t kBoundaryProbe = 256;

}  // namespace rispar
