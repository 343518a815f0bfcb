// rispar::Engine — the single entry point of the query API.
//
// One Pattern compiles a language once; an Engine binds it to a thread
// pool and exposes every query shape the paper's tool supports through one
// options surface (QueryOptions) and one result type (QueryResult):
//
//   Engine engine(Pattern::compile("(ab|ba)*"));
//   engine.recognize("abba");                       // parallel yes/no
//   engine.count("..abba..abba..");                 // occurrences of p
//   auto session = engine.stream();                 // window-by-window
//   engine.match_all(texts);                        // many texts, one pool
//
// Every entry point reads raw bytes (std::string_view), one-shot and
// streaming alike, and none materializes the text's symbols — each chunk
// walk reads its bytes through the symbol map (MappedBytes). The only
// symbol-span surface left is recognize(span) and translate(), kept for the
// perfbench harness, whose traced loop times them. The four devices — DFA,
// NFA, RID, SFA — sit behind the polymorphic Device registry; options a
// device cannot honor raise QueryError instead of being silently ignored.
//
// Concurrency: read-only queries (recognize/count/find/find_all/match_all)
// are safe from concurrent threads on one shared Engine — the compiled
// machines are immutable (lazy builds are call_once) and the pool
// serializes external reach batches, so concurrent callers queue rather
// than corrupt each other (ConcurrentQueries smoke tests in
// tests/test_find_all.cpp). For reach-phase parallelism ACROSS queries,
// compile one Pattern and give each querying thread its own Engine.
// StreamSessions remain single-threaded: feed each session from one thread,
// in order.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/pattern.hpp"
#include "parallel/match_count.hpp"
#include "parallel/thread_pool.hpp"

namespace rispar {

class StreamSession;
class CompileCache;

struct EngineConfig {
  /// Worker threads of the owned pool (0 = hardware concurrency).
  unsigned threads = 0;
  /// SFA construction budget for Variant::kSfa (mappings interned before
  /// giving up — the explosion guard, see core/sfa.hpp).
  std::int32_t sfa_budget = 1 << 16;
  /// Subset-construction budget for the lazily built Σ*p searcher that
  /// count()/find() use, ON TOP of the Pattern's own
  /// PatternLimits::max_subset_states (the tighter wins; 0 = just the
  /// pattern's). A blow-up regex trips ResourceExhausted("subset
  /// construction", ...) at the first count/find instead of consuming
  /// unbounded memory; the searcher stays unbuilt, so retrying through an
  /// Engine with a bigger budget still works.
  std::int32_t subset_budget = 0;
  /// Admission control of the owned pool: bound the external injection
  /// queue and pick the overload response (reject with ResourceExhausted,
  /// or block — see parallel/thread_pool.hpp). Default: unbounded.
  PoolAdmission admission{};
  /// Run on THIS pool instead of owning one. A multi-tenant fleet of
  /// Engines (one per pattern) shares one work-stealing pool this way — N
  /// tenants, hardware-many workers, one admission gate — instead of N×
  /// oversubscribed worker sets. When set, `threads` and `admission` are
  /// ignored (the shared pool was already built with its own); the pool
  /// must outlive every Engine holding it, which shared ownership
  /// guarantees.
  std::shared_ptr<ThreadPool> shared_pool{};
  /// Memoize Pattern compilation through THIS cache
  /// (engine/compile_cache.hpp). Consulted by the compile-from-source entry
  /// points that accept an EngineConfig — PatternSet::compile and rispard's
  /// build_catalog — so repeated sources (hot reloads, repeated manifest
  /// lines, unchanged .rpb bundles) are shared_ptr bumps instead of fresh
  /// subset constructions. nullptr = compile every time.
  std::shared_ptr<CompileCache> compile_cache{};
};

class Engine {
 public:
  explicit Engine(Pattern pattern, EngineConfig config = {});

  /// Not movable: StreamSessions and device references point into this
  /// object, and a moved-from Engine would leave them dangling. Engines
  /// are cheap to build from a shared Pattern — construct one where you
  /// need it (or heap-allocate for containers).
  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;

  const Pattern& pattern() const { return pattern_; }
  ThreadPool& pool() const { return *pool_; }

  /// The device answering for `variant`. kSfa is built lazily with the
  /// configured budget; throws QueryError when its construction explodes.
  const Device& device(Variant variant) const;
  /// Same, but nullptr instead of a throw for an unbuildable device.
  const Device* try_device(Variant variant) const;

  /// Whole-input parallel recognition with options.variant's device.
  QueryResult recognize(std::string_view text, const QueryOptions& options = {}) const;
  /// The same over pre-translated symbols (the perfbench harness times
  /// translate() and this separately).
  QueryResult recognize(std::span<const Symbol> input,
                        const QueryOptions& options = {}) const;

  /// Occurrences of the pattern in `text` (prefixes ending a match, overlaps
  /// counted) via the lazily built Σ*p searcher. Counting has exactly one
  /// deterministic device, so options.variant is not consulted; chunks are
  /// honored, anything else raises QueryError. Byte-level
  /// only: the searcher runs on its own all-bytes SymbolMap, NOT the
  /// pattern's, so symbols from translate() would be misinterpreted —
  /// callers holding pre-translated searcher symbols use
  /// count_matches(searcher(), ...) directly.
  QueryResult count(std::string_view text, const QueryOptions& options = {}) const;

  /// Positioned occurrences of the pattern in `text` (one Match per prefix
  /// ending an occurrence, overlaps counted — find(t).matches always equals
  /// count(t).matches, and Match semantics are documented in query.hpp).
  /// Runs the position-emitting parallel kernel over the same Σ*p searcher
  /// as count(): options.variant is not consulted; chunks, begin_mode and
  /// offset/limit paging are honored, anything else raises
  /// QueryError. Offsets in the returned Match records are byte offsets
  /// into `text`.
  QueryResult find(std::string_view text, const QueryOptions& options = {}) const;

  /// Convenience over find(): just the positions payload.
  std::vector<Match> find_all(std::string_view text,
                              const QueryOptions& options = {}) const;

  /// Opens a byte-level streaming session on options.variant's device: feed
  /// windows of any size, in order; the decision always equals one-shot
  /// recognition of the concatenation (property-tested). With
  /// options.positions the session is a STREAMING FIND: every feed also
  /// emits the pattern's occurrences incrementally with absolute byte
  /// offsets, equal to find_all of the concatenation under any window
  /// segmentation (fuzz-tested) — drain with take_matches() or a MatchSink
  /// feed. The session borrows this Engine — it must not outlive it.
  StreamSession stream(const QueryOptions& options = {}) const;

  /// Reopens a streaming session from a StreamSession::checkpoint() blob,
  /// continuing BYTE-EXACT from the checkpointed position: feeding the
  /// resumed session the remaining stream yields the same decision and the
  /// same match list as the uninterrupted session and the serial oracle
  /// (fuzz-tested, engine/checkpoint.hpp). `options` must request the same
  /// session shape the checkpoint was taken under — variant, positions,
  /// begin_mode — and the blob must belong to THIS pattern (validated via a
  /// content fingerprint); any mismatch, corruption or truncation throws
  /// ValidationError. Works across Engines and processes: only the pattern
  /// must match, not the Engine instance.
  StreamSession resume_stream(std::string_view blob,
                              const QueryOptions& options = {}) const;

  /// Batch recognition: every text recognized from its bytes on the shared
  /// pool (texts in parallel, chunks within a text inline), one QueryResult
  /// per text in input order.
  std::vector<QueryResult> match_all(std::span<const std::string_view> texts,
                                     const QueryOptions& options = {}) const;

  /// The counting machine (see Pattern::searcher()), built under this
  /// Engine's subset_budget — throws ResourceExhausted when it trips.
  const Dfa& searcher() const { return pattern_.searcher(config_.subset_budget); }

  /// Translates byte text with the pattern's SymbolMap (for recognize(span)
  /// and the serial oracles; no query path calls it).
  std::vector<Symbol> translate(std::string_view text) const {
    return pattern_.translate(text);
  }

  /// Serial ground truth (minimal-DFA run from its initial state).
  bool accepts(std::span<const Symbol> input) const;
  bool accepts(std::string_view text) const;

 private:
  Pattern pattern_;
  EngineConfig config_;
  mutable std::shared_ptr<ThreadPool> pool_;  ///< owned, or config_.shared_pool
  DfaDevice dfa_device_;
  NfaDevice nfa_device_;
  RidDevice rid_device_;
};

/// N patterns, one byte stream, one merged match stream — the one
/// streaming-find session. PatternSet::stream_find opens it over a fleet,
/// rispard builds it directly from a serving catalog, and a StreamSession
/// opened with positions holds one over its own pattern. Offsets are
/// absolute byte offsets into the concatenation of everything fed;
/// Match::pattern_id indexes the construction vector.
///
/// With exactly one pattern a feed runs that pattern's stream_find_feed
/// straight into the sink (its matches are already in stream order). With
/// any other count each feed fans one stream_find_feed task per pattern
/// over the shared pool (per-pattern chunk runs nest inline — ThreadPool
/// reentrancy), then merges the window's matches ascending by (end, begin,
/// pattern_id). Either way, feeding a text in any segmentation emits
/// exactly the merged one-shot find_all list, which in turn equals N
/// independent sessions (fuzz-tested).
///
/// Begin modes follow QueryOptions::begin_mode: kSeparator carries
/// per-pattern last separators, kExact additionally holds each pattern's
/// reverse-DFA artifact and history tail (built and pre-warmed at open).
///
/// Governance and poisoning: deadline/cancel apply PER FEED (one governor
/// covers all N pattern scans of the window); a feed that fails part-way
/// (deadline, cancellation, injected fault) leaves SOME patterns advanced
/// and others not, so the session POISONS — further feeds throw
/// ValidationError until reset(). Matches already buffered stay drainable;
/// counters describe the last consistent merge. Not thread-safe: feed from
/// one thread, in order.
class MultiStreamSession {
 public:
  /// Validates `options` against the streaming-find capability set (throws
  /// QueryError), pre-warms every searcher — and, under begin_mode=kExact,
  /// every reverse artifact — at open, never inside a feed. The pool must
  /// outlive the session (PatternSet::stream_find and Engine::stream
  /// guarantee it; direct construction — the rispard catalog path — makes
  /// the caller responsible).
  MultiStreamSession(std::vector<Pattern> patterns, ThreadPool& pool,
                     QueryOptions options);

  /// Resume form: opens exactly like the plain constructor, then installs
  /// the carries decoded from `checkpoint` (a MultiStreamSession::
  /// checkpoint() blob taken against the same fleet in the same order).
  /// ValidationError on any mismatch, corruption or truncation — the
  /// session is never half-resumed. rispard's RESUME_SESSION path;
  /// PatternSet::resume_stream is the convenience.
  MultiStreamSession(std::vector<Pattern> patterns, ThreadPool& pool,
                     QueryOptions options, std::string_view checkpoint);

  /// Consumes the next window, buffering the merged matches for
  /// take_matches(). Empty windows are no-ops.
  void feed(std::string_view bytes);
  /// Consumes the next window, draining the merged matches through `sink`
  /// in (end, begin, pattern_id) order instead of buffering.
  void feed(std::string_view bytes, const MatchSink& sink);

  /// Takes the matches buffered since the last take; ascending
  /// (end, begin, pattern_id), absolute byte offsets.
  std::vector<Match> take_matches();

  /// Total occurrences emitted so far, summed over all patterns.
  std::uint64_t matches() const;
  /// True when any pattern matched anywhere in the stream — the CLOSED
  /// accounting of a server session.
  bool accepted() const { return matches() > 0; }
  std::uint64_t bytes_consumed() const { return consumed_; }
  /// Searcher transitions executed so far, summed over all patterns.
  std::uint64_t transitions() const;
  std::size_t patterns() const { return patterns_.size(); }
  const Pattern& pattern(std::size_t id) const { return patterns_[id]; }

  /// True once a feed failed part-way; see the class comment.
  bool poisoned() const { return poisoned_; }

  /// Serializes every pattern's carry plus the shared byte count into a
  /// versioned, checksummed blob (engine/checkpoint.hpp) for the resume
  /// constructor / PatternSet::resume_stream. Callable between feeds,
  /// repeatedly; the session stays usable. Two rejects (ValidationError,
  /// nothing encoded): a POISONED session (some carries are mid-window)
  /// and UNDRAINED buffered matches (checkpoints never carry match
  /// payloads, so take_matches() first — resuming would otherwise silently
  /// drop them).
  std::string checkpoint() const { return checkpoint(nullptr); }

  /// Forgets all input; the next feed() starts every pattern from its
  /// initial state again. Also clears poisoning.
  void reset();

 private:
  friend class StreamSession;

  /// The one feed body. `sink` nullptr buffers for take_matches();
  /// `governor` is the feed's one governor (a StreamSession shares its own
  /// with the decision side).
  void feed(std::string_view bytes, const MatchSink* sink,
            const QueryGovernor& governor);
  /// The one checkpoint body; `decision` is a StreamSession's carry
  /// (nullptr for a find-only session).
  std::string checkpoint(const StreamCarry* decision) const;
  /// Each pattern's searcher state count, the bound a resume checks the
  /// decoded find states against.
  std::vector<State> searcher_states() const;
  void ensure_live() const;

  std::vector<Pattern> patterns_;
  /// Each pattern's cached reverse artifact under kExact (address stable —
  /// it lives in the shared Compiled block); nullptr under kSeparator.
  std::vector<const ReverseBegins*> reverses_;
  std::vector<FindCarry> carries_;  ///< one per pattern
  ThreadPool* pool_;
  QueryOptions options_;
  std::uint64_t consumed_ = 0;
  std::vector<Match> pending_;  ///< buffered matches awaiting take_matches()
  bool poisoned_ = false;
};

/// A byte-level streaming session (texts larger than memory, fed window by
/// window). Between windows only the device's PLAS carry survives — plus,
/// on positions sessions, a one-pattern MultiStreamSession over the same
/// pattern (the searcher's one-state find carry) — so the footprint is one
/// window plus O(|carry|) plus any undrained matches. Obtained from
/// Engine::stream(); not thread-safe — feed from one thread, in order.
///
/// Streaming find (sessions opened with QueryOptions::positions): every
/// byte feed advances the decision carry AND the find session, and emits
/// Match records with ABSOLUTE byte offsets into the concatenation of
/// everything fed. Two drain shapes:
///   * feed(bytes) then take_matches() — the session buffers the window's
///     matches until taken (unbounded if never drained — drain per window);
///   * feed(bytes, sink) — the sink sees each match as the window joins;
///     nothing accumulates in the session.
/// A match's begin may point into an EARLIER window: under the default
/// BeginMode::kSeparator it is the carried separator (a left BOUND, same
/// semantics as one-shot find — see Match in engine/query.hpp); under
/// BeginMode::kExact it is the true leftmost start, resolved through the
/// reverse DFA over the carried history tail (begins cross window
/// boundaries exactly). Callers that slice text around matches must retain
/// bytes accordingly.
///
/// Governance and poisoning: QueryOptions::{deadline, cancel} apply PER
/// FEED — each feed builds one governor at the feed call, shared by the
/// decision window and the find side. A trip (or any other failure
/// escaping a feed) leaves the carry mid-window, so the session is
/// POISONED: further feeds throw ValidationError deterministically until
/// reset(). Matches already buffered remain drainable through
/// take_matches(), accepted()/dead()/the counters stay readable (they
/// describe the last consistent join), and destruction is always clean.
/// Precondition rejects (wrong feed shape for the session) never poison —
/// nothing ran.
class StreamSession {
 public:
  /// Consumes the next window (may be empty — a no-op). On positions
  /// sessions the window's matches are buffered for take_matches().
  void feed(std::string_view bytes);
  /// Consumes the next window, draining its matches through `sink` instead
  /// of buffering. QueryError unless the session was opened with positions.
  void feed(std::string_view bytes, const MatchSink& sink);

  /// Decision over everything fed so far (callable repeatedly; feed() may
  /// continue afterwards).
  bool accepted() const { return device_->stream_accepted(carry_); }

  /// True when no DECISION run survives — every extension is rejected too,
  /// so a caller that only wants the decision can stop reading early. The
  /// find side of a positions session never dies on byte input: matches
  /// keep flowing after the decision is dead (substring occurrences outlive
  /// whole-stream membership), so streaming-find callers keep feeding.
  bool dead() const { return !carry_.at_start && carry_.states.empty(); }

  /// Takes the matches buffered since the last take (positions sessions;
  /// QueryError otherwise). Ascending (end, begin); absolute byte offsets.
  std::vector<Match> take_matches();

  /// Total occurrences emitted so far (buffered + drained + taken).
  std::uint64_t matches() const { return find_ ? find_->matches() : 0; }
  /// Whether this session emits positions (opened with
  /// QueryOptions::positions).
  bool finds_positions() const { return find_.has_value(); }

  Variant variant() const { return device_->variant(); }
  std::uint64_t transitions() const { return carry_.transitions; }
  std::uint64_t windows() const { return carry_.windows; }
  /// Bytes consumed by the find side so far (positions sessions).
  std::uint64_t bytes_consumed() const { return find_ ? find_->bytes_consumed() : 0; }

  /// True once a feed failed part-way (deadline, cancellation, injected
  /// fault): the carry is mid-window and further feeds reject until
  /// reset(). See the class comment.
  bool poisoned() const { return poisoned_; }

  /// Serializes the session's full between-window state — decision carry,
  /// find carry, counters, the kExact history tail — into a versioned,
  /// checksummed blob for Engine::resume_stream (engine/checkpoint.hpp has
  /// the format). Callable between feeds, repeatedly; the session stays
  /// usable. Rejects exactly like MultiStreamSession::checkpoint(): a
  /// POISONED session and UNDRAINED buffered matches (ValidationError,
  /// nothing encoded).
  std::string checkpoint() const;

  /// Forgets all input; the next feed() starts from the initial state again.
  /// Also clears poisoning — the session is reusable after a tripped feed.
  void reset();

 private:
  friend class Engine;
  StreamSession(const Device& device, Pattern pattern, ThreadPool& pool,
                QueryOptions options);

  /// Throws ValidationError when the session is poisoned (call before any
  /// feed runs — preconditions that reject BEFORE this never poison).
  void ensure_live() const;
  /// The one byte-feed body: the decision window, then (positions
  /// sessions) the find side, under one governor. `sink` nullptr buffers.
  void feed(std::string_view bytes, const MatchSink* sink);
  /// Installs the state of a checkpoint() blob (Engine::resume_stream).
  void resume(std::string_view blob);

  const Device* device_;
  Pattern pattern_;  ///< shared ownership keeps the automata alive
  ThreadPool* pool_;
  QueryOptions options_;
  StreamCarry carry_;
  std::optional<MultiStreamSession> find_;  ///< positions sessions only
  bool poisoned_ = false;  ///< a feed failed mid-window; see class comment
};

}  // namespace rispar
