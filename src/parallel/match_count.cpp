#include "parallel/match_count.hpp"

#include <stdexcept>

#include "parallel/chunk_walker.hpp"
#include "parallel/chunking.hpp"
#include "util/stopwatch.hpp"

namespace rispar {

QueryResult count_matches_serial(const Dfa& dfa, std::span<const Symbol> input) {
  QueryResult result;
  result.chunks = input.empty() ? 0 : 1;
  State state = dfa.initial();
  for (const Symbol symbol : input) {
    if (symbol < 0 || symbol >= dfa.num_symbols()) {
      result.died = true;
      return result;
    }
    state = dfa.row(state)[symbol];
    if (state == kDeadState) {
      result.died = true;
      return result;
    }
    ++result.transitions;
    if (dfa.is_final(state)) {
      ++result.matches;
      result.accepted = true;
    }
  }
  return result;
}

namespace {

// Per-state flags the hit recorders test after every step.
constexpr std::uint8_t kHitFlag = 1;        // a final state: an occurrence ends here
constexpr std::uint8_t kSeparatorFlag = 2;  // the initial state: no partial occurrence

std::vector<std::uint8_t> state_flags(const Dfa& dfa) {
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(dfa.num_states()), 0);
  for (State s = 0; s < dfa.num_states(); ++s)
    flags[static_cast<std::size_t>(s)] = static_cast<std::uint8_t>(
        (dfa.is_final(s) ? kHitFlag : 0) | (s == dfa.initial() ? kSeparatorFlag : 0));
  return flags;
}

/// The counting recorder: each run's own hits, and for a merged run the
/// parent's hit count at the merge — everything the parent's chain accrues
/// after it is shared, so a start's total is its own hits plus, up its
/// chain, each ancestor's hits minus the base its child merged at.
struct CountRecord {
  static constexpr bool kPassive = false;
  const std::uint8_t* flags = nullptr;
  std::vector<std::uint64_t> hits;
  std::vector<std::uint64_t> base;

  void reset(const std::uint8_t* state_flags, std::span<const State> starts) {
    flags = state_flags;
    hits.assign(starts.size(), 0);
    base.assign(starts.size(), 0);
  }
  void step(std::uint32_t node, std::int32_t next, std::int64_t) {
    hits[node] += flags[next] & kHitFlag;
  }
  void merge(std::uint32_t node, std::uint32_t into, std::int64_t) {
    base[node] = hits[into];
  }
};

/// One recorded occurrence of a chunk run: `pos` is the chunk-local end
/// position (1-based: after consuming `pos` symbols) and `sep` the run's
/// last separator at that moment — chunk-local, or -1 when the run has not
/// passed through the initial state since the chunk began (the begin then
/// resolves through the join's carried tracker).
struct FindHit {
  std::uint64_t pos;
  std::int64_t sep;
};

/// The finding recorder. While a run leads it records its own hits and
/// separator tracker; when convergence merges it into a parent at
/// `merge_pos`, everything from the parent's hit list at index >=
/// parent_base on is shared, with `last_sep` frozen as the run's own
/// history up to the merge. Reconstruction happens at JOIN time, only for
/// the one consistent start per chunk — per-start hit lists are never
/// materialized.
struct FindRecord {
  static constexpr bool kPassive = false;
  const std::uint8_t* flags = nullptr;
  std::vector<std::vector<FindHit>> hits;
  std::vector<std::int64_t> last_sep;
  std::vector<std::size_t> parent_base;
  std::vector<std::int64_t> merge_pos;

  void reset(const std::uint8_t* state_flags, std::span<const State> starts) {
    flags = state_flags;
    hits.assign(starts.size(), {});
    last_sep.resize(starts.size());
    for (std::size_t i = 0; i < starts.size(); ++i)
      last_sep[i] = (flags[starts[i]] & kSeparatorFlag) != 0 ? 0 : -1;
    parent_base.assign(starts.size(), 0);
    merge_pos.assign(starts.size(), 0);
  }
  void step(std::uint32_t node, std::int32_t next, std::int64_t pos) {
    const std::uint8_t flag = flags[next];
    if ((flag & kSeparatorFlag) != 0) last_sep[node] = pos;
    if ((flag & kHitFlag) != 0)
      hits[node].push_back({static_cast<std::uint64_t>(pos), last_sep[node]});
  }
  void merge(std::uint32_t node, std::uint32_t into, std::int64_t pos) {
    parent_base[node] = hits[into].size();
    merge_pos[node] = pos;
  }
};

/// One chunk's walk (parallel/chunk_walker.hpp) with its recorder.
template <typename Record>
struct ChunkRun {
  std::vector<State> starts;  ///< ascending; forest node i ran from starts[i]
  WalkForest forest;
  Record record;
};

/// The reach phase counting and finding share: one convergent walk per
/// chunk of `text` (a walk_chunk source) on the pool. The first chunk runs
/// from `first` alone, every later one from the look-back seeds of its
/// boundary (chunk_walker.hpp), whose probe transitions count as the
/// chunk's speculative work (convention: parallel/ca_run.hpp). The walk
/// always converges: merged runs share every later hit, and the find rows
/// hold against independent walking (docs/perf.md).
template <typename Record, typename Source>
std::vector<ChunkRun<Record>> reach(const Dfa& dfa, const Source& text,
                                    std::span<const ChunkSpan> chunks, State first,
                                    ThreadPool& pool, const QueryGovernor* gov) {
  const std::vector<std::uint8_t> flags = state_flags(dfa);
  std::vector<ChunkRun<Record>> runs(chunks.size());
  pool.run(chunks.size(), [&](std::size_t i) {
    if (gov != nullptr) gov->poll();  // chunk boundary: the universal checkpoint
    const ChunkSpan& chunk = chunks[i];
    ChunkRun<Record>& run = runs[i];
    std::uint64_t probe = 0;
    run.starts = i == 0 ? std::vector<State>{first}
                        : lookback_seeds(dfa, text, chunk.begin,
                                         std::min(kBoundaryProbe, chunk.length), probe, gov);
    run.record.reset(flags.data(), run.starts);
    run.forest = walk_chunk(dfa, text.subspan(chunk.begin, chunk.length), run.starts,
                            /*convergence=*/true, run.record, gov);
    run.forest.transitions += probe;
  });
  return runs;
}

/// The join counting and finding share: walks the consistent run through
/// each chunk's merge forest — its node is the consistent state's index in
/// the chunk's sorted start list — calling visit(i, node, child) for every
/// node on chunk i's chain (`child` is the node that merged into it, -1 for
/// the chain's first). `state` enters as the consistent run's state before
/// the batch and leaves as its state after it; `died` is set (and the walk
/// stops) when the run dies.
template <typename Record, typename Visit>
void join_chains(std::span<const ChunkRun<Record>> runs, State& state, bool& died,
                 Visit&& visit) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WalkForest& forest = runs[i].forest;
    const std::vector<State>& starts = runs[i].starts;
    const auto seed = std::lower_bound(starts.begin(), starts.end(), state);
    if (seed == starts.end() || *seed != state)  // a bug: seeds hold every live state
      throw std::logic_error("join: the consistent state is not a start of its chunk");
    auto node = static_cast<std::size_t>(seed - starts.begin());
    std::int32_t child = -1;
    while (true) {
      visit(i, node, child);
      const std::int32_t parent = forest.parent[node];
      if (parent < 0) break;
      child = static_cast<std::int32_t>(node);
      node = static_cast<std::size_t>(parent);
    }
    if (forest.end[node] == kDeadState) {
      died = true;
      return;
    }
    state = forest.end[node];
  }
}

/// Joins one batch of finding runs, resolving every hit's begin and
/// emitting (begin, end) as ABSOLUTE positions (`origin` is the absolute
/// offset of runs[0]'s first symbol). `carried_sep` is the absolute last
/// separator and advances with the walk — together with `state`, exactly
/// what a streaming caller keeps between windows. Shared by the one-shot
/// find_matches (origin 0, one batch) and stream_find_feed (one batch per
/// window). Within a chunk a hit whose separator predates the chunk (or,
/// under convergence, predates a merge in its chain) falls back first to
/// the chain's own earlier tracker and ultimately to `carried_sep`.
template <typename Emit>
void join_find_chunks(std::span<const ChunkRun<FindRecord>> runs,
                      std::span<const ChunkSpan> chunks, std::uint64_t origin,
                      State& state, std::uint64_t& carried_sep, bool& died, Emit&& emit) {
  // `floor` is the position where the previous chain node merged into the
  // current one — separators recorded before it belong to the current
  // node's own history, not the consistent run's, and substitute through
  // `sub`.
  std::uint64_t base = 0;
  std::size_t hit_base = 0;
  std::int64_t floor = 0;
  std::int64_t sub = -1;
  const auto visit = [&](std::size_t i, std::size_t node, std::int32_t child) {
    const FindRecord& record = runs[i].record;
    if (child < 0) {
      base = origin + chunks[i].begin;
      hit_base = 0;
      floor = 0;
      sub = -1;
    } else {
      const auto c = static_cast<std::size_t>(child);
      sub = record.last_sep[c] >= floor ? record.last_sep[c] : sub;
      floor = record.merge_pos[c];
      hit_base = record.parent_base[c];
    }
    const std::vector<FindHit>& hits = record.hits[node];
    for (std::size_t h = hit_base; h < hits.size(); ++h) {
      const std::int64_t sep = hits[h].sep >= floor ? hits[h].sep : sub;
      emit(sep >= 0 ? base + static_cast<std::uint64_t>(sep) : carried_sep,
           base + hits[h].pos);
    }
    if (runs[i].forest.parent[node] < 0) {
      const std::int64_t own = record.last_sep[node];
      const std::int64_t final_sep = own >= floor ? own : sub;
      if (final_sep >= 0) carried_sep = base + static_cast<std::uint64_t>(final_sep);
    }
  };
  join_chains(runs, state, died, visit);
}

/// Resolves the governor an entry point runs under: an explicit one from
/// the caller (a streaming device sharing its per-feed clock), else one
/// built from the options — normalized to nullptr when inactive so the
/// kernels and the per-task polls stay free.
const QueryGovernor* resolve_governor(const QueryGovernor* provided,
                                      const QueryGovernor& own) {
  const QueryGovernor* gov = provided != nullptr ? provided : &own;
  return gov->active() ? gov : nullptr;
}

/// BeginMode::kExact confirmation pass: runs the reversed pattern DFA
/// backwards from `end` over `text` down to `floor`, returning the SMALLEST
/// b with text[b..end) ∈ L(p). The forward searcher guaranteed some
/// occurrence ends at `end`, and the floor is sound (the approximate begin
/// under a separators_sound certificate, the text/history start otherwise),
/// so a final state is always visited; `fallback` only guards a corrupt
/// artifact. Positions are indices into `text` (symbols, or MappedBytes
/// read through the searcher's map) — the caller maps absolute offsets onto
/// it.
template <typename Source>
std::uint64_t resolve_exact_begin(const Dfa& rev, const Source& text,
                                  std::uint64_t end, std::uint64_t floor,
                                  std::uint64_t fallback) {
  State state = rev.initial();
  std::uint64_t best = fallback;
  if (rev.is_final(state)) best = end;  // ε ∈ L(p): the empty occurrence at end
  for (std::uint64_t b = end; b > floor; --b) {
    const Symbol symbol = text[static_cast<std::size_t>(b - 1)];
    if (symbol < 0 || symbol >= rev.num_symbols()) break;
    state = rev.row(state)[symbol];
    if (state == kDeadState) break;
    if (rev.is_final(state)) best = b - 1;
  }
  return best;
}

/// The validation shared by the exact-begin entry points: the knob needs
/// the pattern's cached artifact threaded in.
void require_reverse(const ReverseBegins* reverse, const char* context) {
  if (reverse == nullptr)
    throw ValidationError(std::string(context) +
                          ": begin_mode=exact requires the pattern's "
                          "reverse-begins artifact");
}

}  // namespace

namespace {

template <typename Source>
QueryResult count_source(const Dfa& dfa, const Source& input, ThreadPool& pool,
                         const QueryOptions& options, const QueryGovernor* governor) {
  validate_query(options, kCountingCaps, kCountingContext);
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = resolve_governor(governor, own);
  QueryResult result;
  if (input.empty()) return result;

  const auto chunks = split_chunks(input.size(), options.chunks);
  result.chunks = chunks.size();

  Stopwatch reach_clock;
  const auto runs = reach<CountRecord>(dfa, input, chunks, dfa.initial(), pool, gov);
  result.reach_seconds = reach_clock.seconds();

  // Join: walk the unique consistent path and sum the counters up each
  // chunk's merge chain. All chunks' transitions are speculative work
  // actually executed, so they count even when the true path dies early
  // (convention: parallel/ca_run.hpp).
  Stopwatch join_clock;
  for (const auto& run : runs) result.transitions += run.forest.transitions;
  State state = dfa.initial();
  const auto sum_hits = [&](std::size_t i, std::size_t node, std::int32_t child) {
    const CountRecord& record = runs[i].record;
    result.matches += record.hits[node];
    if (child >= 0) result.matches -= record.base[static_cast<std::size_t>(child)];
  };
  join_chains<CountRecord>(runs, state, result.died, sum_hits);
  result.accepted = result.matches > 0;
  result.join_seconds = join_clock.seconds();
  return result;
}

}  // namespace

QueryResult count_matches(const Dfa& dfa, std::span<const Symbol> input,
                          ThreadPool& pool, const QueryOptions& options,
                          const QueryGovernor* governor) {
  return count_source(dfa, input, pool, options, governor);
}

QueryResult count_matches(const Dfa& dfa, std::string_view text, ThreadPool& pool,
                          const QueryOptions& options, const QueryGovernor* governor) {
  return count_source(dfa, MappedBytes(text, dfa.symbols()), pool, options, governor);
}

QueryResult find_matches_serial(const Dfa& dfa, std::span<const Symbol> input,
                                std::uint32_t pattern_id, const Dfa* exact_reverse) {
  QueryResult result;
  result.chunks = input.empty() ? 0 : 1;
  const State initial = dfa.initial();
  State state = initial;
  std::uint64_t pos = 0;
  std::uint64_t last_sep = 0;  // position 0: the scan starts in the initial state
  for (const Symbol symbol : input) {
    if (symbol < 0 || symbol >= dfa.num_symbols()) {
      result.died = true;
      break;
    }
    state = dfa.row(state)[symbol];
    if (state == kDeadState) {
      result.died = true;
      break;
    }
    ++result.transitions;
    ++pos;
    if (state == initial) last_sep = pos;
    if (dfa.is_final(state)) {
      ++result.matches;
      // Oracle-side exactness deliberately ignores the separator floor and
      // rescans from the text start — the dumbest correct implementation,
      // so the property tests catch a parallel-side floor that is too
      // aggressive rather than inheriting it.
      const std::uint64_t begin =
          exact_reverse != nullptr
              ? resolve_exact_begin(*exact_reverse, input, pos, 0, last_sep)
              : last_sep;
      result.positions.push_back({pattern_id, begin, pos});
    }
  }
  result.accepted = result.matches > 0;
  return result;
}

namespace {

template <typename Source>
QueryResult find_source(const Dfa& dfa, const Source& input, ThreadPool& pool,
                        const QueryOptions& options, std::uint32_t pattern_id,
                        const QueryGovernor* governor, const ReverseBegins* reverse) {
  validate_query(options, kFindingCaps, kFindingContext);
  const bool exact = options.begin_mode == BeginMode::kExact;
  if (exact) require_reverse(reverse, "find");
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = resolve_governor(governor, own);
  QueryResult result;
  if (input.empty()) return result;

  const auto chunks = split_chunks(input.size(), options.chunks);
  result.chunks = chunks.size();

  Stopwatch reach_clock;
  const auto runs = reach<FindRecord>(dfa, input, chunks, dfa.initial(), pool, gov);
  result.reach_seconds = reach_clock.seconds();

  // Join: walk the unique consistent path, resolving each hit's begin
  // (join_find_chunks). Paging trims the emitted window but never the
  // count. Transition accounting: parallel/ca_run.hpp.
  Stopwatch join_clock;
  for (const auto& run : runs) result.transitions += run.forest.transitions;
  State state = dfa.initial();
  std::uint64_t carried_sep = 0;  // global: position 0 is always a separator
  join_find_chunks(runs, chunks, 0, state, carried_sep, result.died,
                   [&](std::uint64_t begin, std::uint64_t end) {
                     if (result.matches >= options.offset &&
                         result.positions.size() < options.limit) {
                       // Exact begins: confirm backwards from the end. The
                       // approximate begin is a sound scan floor only when
                       // the artifact certifies separators pure; otherwise
                       // the occurrence may straddle it and the scan runs
                       // to the text start.
                       if (exact)
                         begin = resolve_exact_begin(
                             reverse->dfa, input, end,
                             reverse->separators_sound ? begin : 0, begin);
                       result.positions.push_back({pattern_id, begin, end});
                     }
                     ++result.matches;
                   });
  result.accepted = result.matches > 0;
  result.join_seconds = join_clock.seconds();
  return result;
}

}  // namespace

QueryResult find_matches(const Dfa& dfa, std::span<const Symbol> input,
                         ThreadPool& pool, const QueryOptions& options,
                         std::uint32_t pattern_id, const QueryGovernor* governor,
                         const ReverseBegins* reverse) {
  return find_source(dfa, input, pool, options, pattern_id, governor, reverse);
}

QueryResult find_matches(const Dfa& dfa, std::string_view text, ThreadPool& pool,
                         const QueryOptions& options, std::uint32_t pattern_id,
                         const QueryGovernor* governor, const ReverseBegins* reverse) {
  return find_source(dfa, MappedBytes(text, dfa.symbols()), pool, options, pattern_id,
                     governor, reverse);
}

void stream_find_feed(const Dfa& dfa, FindCarry& carry, std::span<const Symbol> window,
                      ThreadPool& pool, const QueryOptions& options,
                      const MatchSink& sink, std::uint32_t pattern_id,
                      const QueryGovernor* governor, const ReverseBegins* reverse) {
  validate_query(options, kStreamFindingCaps, kStreamFindingContext);
  const bool exact = options.begin_mode == BeginMode::kExact;
  if (exact) require_reverse(reverse, "streaming find");
  const QueryGovernor own(options.deadline, options.cancel);
  const QueryGovernor* gov = resolve_governor(governor, own);
  if (window.empty()) return;
  // The exact-begin memory bound: the cap is on PEAK retention (carried
  // tail + the incoming window), checked BEFORE any carry mutation so the
  // throw leaves the carry consistent — the session-level poisoning that
  // follows is a policy choice, not a necessity. A died carry retains
  // nothing, so the cap has nothing to bound there.
  if (exact && !carry.died && options.max_history_bytes != 0 &&
      carry.history.size() + window.size() > options.max_history_bytes)
    throw ResourceExhausted(
        "exact-begin history",
        static_cast<std::int64_t>(options.max_history_bytes),
        static_cast<std::int64_t>(carry.history.size() + window.size()));
  const std::uint64_t origin = carry.consumed;
  carry.consumed += window.size();
  if (carry.died) return;  // the run already left the automaton — nothing
                           // downstream can match, only the offset advances
  if (carry.at_start) {
    carry.state = dfa.initial();
    carry.last_sep = 0;  // position 0: the stream starts in the initial state
    carry.at_start = false;
  }
  if (exact)  // history invariant: covers [history_base, consumed)
    carry.history.insert(carry.history.end(), window.begin(), window.end());

  // Reach: exactly the one-shot fan-out, except the window's first chunk
  // continues from the CARRIED state instead of the initial one.
  const auto chunks = split_chunks(window.size(), options.chunks);
  const auto runs = reach<FindRecord>(dfa, window, chunks, carry.state, pool, gov);

  // Join, serialized per window: the carried (state, last separator) enter
  // the walk and leave updated for the next window; hits emit through the
  // sink with absolute offsets.
  for (const auto& run : runs) carry.transitions += run.forest.transitions;
  join_find_chunks(runs, chunks, origin, carry.state, carry.last_sep, carry.died,
                   [&](std::uint64_t begin, std::uint64_t end) {
                     if (exact) {
                       // Confirm backwards over the retained history. Every
                       // separator a hit can carry postdates the last
                       // truncation point, so the floor never leaves the
                       // tail; positions map through history_base.
                       const std::uint64_t floor =
                           reverse->separators_sound ? begin : carry.history_base;
                       begin = carry.history_base +
                               resolve_exact_begin(
                                   reverse->dfa, carry.history,
                                   end - carry.history_base,
                                   floor - carry.history_base,
                                   begin - carry.history_base);
                     }
                     ++carry.matches;
                     sink(Match{pattern_id, begin, end});
                   });

  if (exact) {
    if (carry.died) {
      // Nothing downstream can match — drop the tail outright.
      carry.history.clear();
      carry.history.shrink_to_fit();
      carry.history_base = carry.consumed;
    } else if (reverse->separators_sound && carry.last_sep > carry.history_base) {
      // No future match can start before the last separator: truncate the
      // carried tail to it. Unsound-separator patterns keep the full
      // history (the documented memory cost of exactness on such shapes).
      carry.history.erase(carry.history.begin(),
                          carry.history.begin() +
                              static_cast<std::ptrdiff_t>(carry.last_sep -
                                                          carry.history_base));
      carry.history_base = carry.last_sep;
    }
  }
}

// --------------------------------------------------------- carry (de)coding

namespace {

void carry_put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void carry_put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

[[noreturn]] void carry_malformed(const char* what) {
  throw ValidationError(std::string("checkpoint: malformed find carry — ") + what);
}

std::uint64_t carry_get_u64(std::string_view image, std::size_t& pos) {
  if (image.size() - pos < 8) carry_malformed("truncated");
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(image[pos++])) << shift;
  return v;
}

std::uint32_t carry_get_u32(std::string_view image, std::size_t& pos) {
  if (image.size() - pos < 4) carry_malformed("truncated");
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(image[pos++])) << shift;
  return v;
}

std::uint8_t carry_get_u8(std::string_view image, std::size_t& pos) {
  if (image.size() - pos < 1) carry_malformed("truncated");
  return static_cast<std::uint8_t>(image[pos++]);
}

}  // namespace

void encode_find_carry(const FindCarry& carry, std::string& out) {
  carry_put_u32(out, static_cast<std::uint32_t>(carry.state));
  out.push_back(static_cast<char>(carry.at_start ? 1 : 0));
  out.push_back(static_cast<char>(carry.died ? 1 : 0));
  carry_put_u64(out, carry.consumed);
  carry_put_u64(out, carry.last_sep);
  carry_put_u64(out, carry.matches);
  carry_put_u64(out, carry.transitions);
  carry_put_u64(out, carry.history_base);
  carry_put_u64(out, carry.history.size());
  for (const Symbol symbol : carry.history)
    carry_put_u32(out, static_cast<std::uint32_t>(symbol));
}

FindCarry decode_find_carry(std::string_view image, std::size_t& pos) {
  FindCarry carry;
  carry.state = static_cast<State>(carry_get_u32(image, pos));
  const std::uint8_t at_start = carry_get_u8(image, pos);
  const std::uint8_t died = carry_get_u8(image, pos);
  if (at_start > 1 || died > 1) carry_malformed("flag byte is not 0/1");
  carry.at_start = at_start != 0;
  carry.died = died != 0;
  carry.consumed = carry_get_u64(image, pos);
  carry.last_sep = carry_get_u64(image, pos);
  carry.matches = carry_get_u64(image, pos);
  carry.transitions = carry_get_u64(image, pos);
  carry.history_base = carry_get_u64(image, pos);
  const std::uint64_t history_size = carry_get_u64(image, pos);
  // The length is validated against the REMAINING image before any
  // allocation — a forged length cannot reserve gigabytes off a short blob.
  if (history_size > (image.size() - pos) / 4) carry_malformed("truncated history");
  if (carry.state < kDeadState) carry_malformed("state below the dead sentinel");
  if (carry.last_sep > carry.consumed) carry_malformed("last_sep past consumed");
  if (carry.history_base > carry.consumed) carry_malformed("history_base past consumed");
  if (carry.at_start &&
      (carry.consumed != 0 || carry.died || history_size != 0))
    carry_malformed("fresh carry with consumed input");
  // The tail invariant: when retained, history covers [history_base,
  // consumed) exactly (stream_find_feed maintains it every feed).
  if (history_size != 0 && carry.history_base + history_size != carry.consumed)
    carry_malformed("history does not cover [history_base, consumed)");
  carry.history.reserve(history_size);
  for (std::uint64_t i = 0; i < history_size; ++i)
    carry.history.push_back(static_cast<Symbol>(carry_get_u32(image, pos)));
  return carry;
}

}  // namespace rispar
