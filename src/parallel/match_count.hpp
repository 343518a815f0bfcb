// Parallel occurrence counting — the paper's motivating applications
// (pattern matching in books, biological data, log files) usually want
// "how many matches", not just yes/no.
//
// Build the DFA of Σ*p (Engine::count derives it from any Pattern): a
// prefix x[0..j] ends an occurrence of p iff the DFA is in a final state
// after j. Counting those positions parallelizes with the same speculative
// scheme as recognition: each chunk runs from every possible start
// recording (end, hits); the join walks the single consistent path from
// the initial state and sums the hit counters. Correct for any
// *total-on-the-text* DFA; if the true run dies, the count up to the death
// point is returned and `died` is set.
//
// The possible starts of a chunk after the first are its look-back seeds
// (parallel/chunk_walker.hpp). A Σ*p searcher never dies, so every start
// walks the whole chunk; but the searcher usually synchronizes within the
// probe window (on log text, within one line), leaving one start, not |Q|.
//
// Each chunk run is the chunk walker (parallel/chunk_walker.hpp) — the one
// template body recognize runs too — with a hit-counting recorder.
// Counting takes the unified QueryOptions (`chunks` as everywhere). The
// walk always converges: runs that land in the same state at the same
// position share all future hits, so merged runs execute (and count) as
// one from the merge point on, and the join sums the consistent start's
// hits up its merge chain. Knobs counting cannot honor (paging, positions,
// exact begins) raise QueryError. Transition accounting follows the
// convention of parallel/ca_run.hpp.
//
// ## Finding (positions, not just totals)
//
// find_matches extends the same speculative scheme to emit WHERE the
// occurrences are (Match — semantics documented on the struct in
// engine/query.hpp). Each chunk run records, per hit, the chunk-local end
// position and the run's *last separator* (the last position at which its
// state was the searcher's initial state again, i.e. no partial occurrence
// pending); the join walks the consistent path, resolves separators that
// predate a chunk (or a convergence merge) through the carried/global
// tracker, and pages the emitted list with QueryOptions::offset/limit while
// still counting every occurrence in `matches`.
//
// Finding runs the same walker with a recorder that keeps, per hit, the
// end position and the run's last separator. Convergence shares hit
// LISTS through the merge forest (per-start lists reconstructed lazily,
// only for the one consistent start per chunk, at join time), and the join
// walks the same merge chains as counting — with find_matches_serial as
// the one-scan oracle above it (property-tested equal).
#pragma once

#include <cstdint>
#include <span>

#include "automata/dfa.hpp"
#include "automata/searcher.hpp"
#include "engine/query.hpp"
#include "parallel/thread_pool.hpp"

namespace rispar {

/// What every recognition device honors one-shot (recognize, match_all):
/// the universal knobs only — chunks, variant and governance.
inline constexpr DeviceCaps kRecognizeCaps{};

/// What every device honors in streaming mode: positions and exact begins
/// on top of the universal knobs, because streaming find rides the
/// variant-independent Σ*p searcher/reverse pair alongside the decision
/// carry. No paging (see kStreamFindingCaps).
inline constexpr DeviceCaps kStreamCaps{.positions = true, .exact_begins = true};

/// What counting honors of the unified options, and the validate_query
/// context naming it — shared with Engine::count so it can reject a bad
/// query up front, before the searcher build and text translation.
inline constexpr DeviceCaps kCountingCaps{};
inline constexpr const char* kCountingContext =
    "count (the one deterministic counting kernel; it honors chunks)";

/// Serial reference: one scan, counting final-state positions. The empty
/// prefix is not counted (an occurrence needs at least the position after
/// its last byte), matching the parallel version. Fills matches/died/
/// transitions/chunks of the unified result; accepted = matches > 0.
QueryResult count_matches_serial(const Dfa& dfa, std::span<const Symbol> input);

/// Parallel counting over options.chunks chunks on the pool; equals the
/// serial count on every input (property-tested). Throws QueryError for
/// knobs counting cannot honor.
/// `governor` overrides the one built from options.deadline/cancel (a
/// streaming device passes its per-feed governor so the whole feed shares
/// one clock); null = build from the options.
QueryResult count_matches(const Dfa& dfa, std::span<const Symbol> input,
                          ThreadPool& pool, const QueryOptions& options,
                          const QueryGovernor* governor = nullptr);
/// The byte entry: `text` is read through dfa.symbols() chunk by chunk
/// inside the walk (no whole-text symbol vector); bit-identical to
/// counting dfa.symbols().translate(text).
QueryResult count_matches(const Dfa& dfa, std::string_view text, ThreadPool& pool,
                          const QueryOptions& options,
                          const QueryGovernor* governor = nullptr);

/// What finding honors of the unified options (chunks, begin_mode,
/// offset/limit paging) — shared with Engine::find / PatternSet so they can
/// reject a bad query before the searcher build and text translation.
inline constexpr DeviceCaps kFindingCaps{.paging = true,
                                         .positions = true,
                                         .exact_begins = true};
inline constexpr const char* kFindingContext =
    "find (the position-emitting counting kernel; it honors chunks, "
    "begin_mode and offset/limit)";

/// Serial reference oracle for finding: one scan of `input` emitting a
/// Match per final-state position (begin = the scan's last separator; see
/// engine/query.hpp). With `exact_reverse` (the pattern's ReverseBegins
/// DFA), every hit's begin is instead pinned by a backward reverse-DFA scan
/// to the leftmost exact start — the BeginMode::kExact oracle. Fills
/// positions/matches/died/transitions/chunks; accepted = matches > 0. No
/// paging — the full list, for the property tests.
QueryResult find_matches_serial(const Dfa& dfa, std::span<const Symbol> input,
                                std::uint32_t pattern_id = 0,
                                const Dfa* exact_reverse = nullptr);

/// Parallel position finding over options.chunks chunks on the pool; the
/// positions equal the serial oracle's on every input (property-tested),
/// then windowed by
/// options.offset/limit (`matches` still counts all). Throws QueryError for
/// knobs finding cannot honor. Every emitted Match carries `pattern_id`.
/// Under options.begin_mode == BeginMode::kExact, `reverse` (the pattern's
/// cached artifact) is REQUIRED — each joined hit's begin is resolved by a
/// backward scan from its end (floored at the approximate begin when the
/// artifact certifies separators sound, at the text start otherwise).
QueryResult find_matches(const Dfa& dfa, std::span<const Symbol> input,
                         ThreadPool& pool, const QueryOptions& options,
                         std::uint32_t pattern_id = 0,
                         const QueryGovernor* governor = nullptr,
                         const ReverseBegins* reverse = nullptr);
/// The byte entry, read through dfa.symbols() like count_matches' (the
/// reverse DFA of kExact reads the same bytes); bit-identical to finding
/// over dfa.symbols().translate(text).
QueryResult find_matches(const Dfa& dfa, std::string_view text, ThreadPool& pool,
                         const QueryOptions& options, std::uint32_t pattern_id = 0,
                         const QueryGovernor* governor = nullptr,
                         const ReverseBegins* reverse = nullptr);

/// The find side of a streaming session's carry. The Σ*p searcher is
/// deterministic, so between windows only one state plus absolute-offset
/// bookkeeping survives — the streaming analogue of the (end, last-
/// separator) tracking the one-shot join carries across chunks. `last_sep`
/// is the absolute position of the searcher's last separator (see Match in
/// engine/query.hpp); a hit whose chunk-local separator predates its window
/// resolves through it, which is how cross-window begins stay exact.
struct FindCarry {
  State state = kDeadState;    ///< searcher state after the consumed prefix
  bool at_start = true;        ///< nothing fed yet
  bool died = false;           ///< the searcher run left the automaton
  std::uint64_t consumed = 0;  ///< absolute bytes consumed so far
  std::uint64_t last_sep = 0;  ///< absolute last-separator position
  std::uint64_t matches = 0;   ///< total occurrences emitted so far
  std::uint64_t transitions = 0;
  /// BeginMode::kExact only: the retained raw window bytes the backward
  /// reverse-DFA scan resolves cross-window begins over, read through the
  /// searcher's map — one byte of RAM per retained stream byte.
  /// `history_base` is the absolute position of history[0]; the retained
  /// tail always covers [history_base, consumed). When the reverse artifact
  /// certifies separators sound, each feed truncates the tail to the
  /// post-join last separator (a match can never start before it);
  /// otherwise the session retains from the stream start — the price of
  /// exactness on patterns whose separators are unsound (docs/api.md,
  /// "Begin modes"). Untouched (empty) under kSeparator.
  std::string history;
  std::uint64_t history_base = 0;
};

/// Appends `carry` — searcher state, flags, the absolute counters and the
/// kExact history tail — to `out` as a little-endian binary image. This is
/// the per-pattern payload unit of the session checkpoints; the versioned,
/// checksummed envelope around it lives in engine/checkpoint.hpp.
void encode_find_carry(const FindCarry& carry, std::string& out);

/// Decodes an encode_find_carry image from `image` starting at `pos`,
/// advancing `pos` past it. Throws ValidationError on truncation and on
/// fields violating the carry invariants (a live carry's state lies in
/// [0, searcher_states); history covers exactly [history_base, consumed)
/// when retained; last_sep <= consumed; a fresh carry has nothing
/// consumed) — a corrupted or forged image surfaces as a typed error, never
/// as an inconsistent session.
FindCarry decode_find_carry(std::string_view image, std::size_t& pos,
                            State searcher_states);

/// What streaming find honors (chunks, begin_mode — no paging: an
/// unbounded stream has no total to page against, so offset/limit REJECT),
/// and the validate_query context naming it.
inline constexpr DeviceCaps kStreamFindingCaps{.positions = true, .exact_begins = true};
inline constexpr const char* kStreamFindingContext =
    "streaming find (the window-fed position-emitting kernel; it honors "
    "chunks and begin_mode)";

/// Consumes one window of raw bytes (read through `window.map`, the
/// searcher's map) on the Σ*p searcher `dfa`,
/// updating `carry` in place and emitting every occurrence ending inside
/// the window through `sink` with ABSOLUTE offsets (begin may predate the
/// window — the carried separator). Windows of any size: large windows fan
/// out over options.chunks finding walks (the window's first chunk
/// continues from the carried state, later chunks from the look-back seeds
/// of their boundary), with the join serialized per window. Feeding a text in
/// any segmentation emits exactly the one-shot find_matches/serial-oracle
/// list (property- and fuzz-tested). Empty windows are no-ops.
/// Under options.begin_mode == BeginMode::kExact, `reverse` is REQUIRED and
/// the carry retains window history (FindCarry::history) so begins crossing
/// feed boundaries resolve exactly — segmentation-invariant like the rest
/// of the carry.
void stream_find_feed(const Dfa& dfa, FindCarry& carry, const MappedBytes& window,
                      ThreadPool& pool, const QueryOptions& options,
                      const MatchSink& sink, std::uint32_t pattern_id = 0,
                      const QueryGovernor* governor = nullptr,
                      const ReverseBegins* reverse = nullptr);

}  // namespace rispar
