// The polymorphic device interface of the query API.
//
// A Device is one speculative recognition scheme over one compiled
// language: the classic CSDPA over the minimal DFA or the NFA, the paper's
// RID over the RI-DFA, or the speculation-free SFA comparator. The concrete
// devices live in parallel/csdpa.hpp; Engine (engine/engine.hpp) holds one
// of each behind this base, so every query shape dispatches through the
// same two virtuals:
//
//  * recognize()   — one-shot parallel recognition of a whole input;
//  * stream_feed() — consume one window of an unbounded input, carrying
//    only the device-specific PLAS representation across windows (the
//    paper's join condition applied at window granularity — feeding a text
//    in any segmentation yields the one-shot decision, property-tested).
//    Streaming FIND is not a device concern: it rides the variant-
//    independent Σ*p searcher in MultiStreamSession (engine/engine.hpp),
//    which a positions StreamSession holds beside its decision carry.
//
// Every device honors the same knobs — kRecognizeCaps one-shot and
// kStreamCaps streaming (parallel/match_count.hpp); validate_query()
// rejects anything beyond that set.
#pragma once

#include <span>
#include <vector>

#include "automata/nfa.hpp"
#include "engine/query.hpp"

namespace rispar {

class ThreadPool;

/// The decision state a StreamSession carries between windows. `states`
/// is device-specific: DFA/RI-DFA states of the surviving runs (PLAS), NFA
/// frontier states, or the single composed chunk-automaton state of the
/// SFA. Empty states after the first window means every run died — the
/// stream's DECISION is dead and every extension rejects.
struct StreamCarry {
  std::vector<State> states;
  bool at_start = true;  ///< nothing fed yet
  std::uint64_t transitions = 0;
  std::uint64_t windows = 0;
};

class Device {
 public:
  virtual ~Device() = default;

  virtual Variant variant() const = 0;

  /// Parallel recognition of `input` (reach on the pool + join).
  /// Throws QueryError when `options` requests a knob outside
  /// kRecognizeCaps; Engine validates too, so direct callers and Engine
  /// users get the same contract.
  virtual QueryResult recognize(std::span<const Symbol> input, ThreadPool& pool,
                                const QueryOptions& options) const = 0;
  /// The same over raw bytes read through their map (the pattern's): each
  /// chunk task reads its own bytes, so no whole-text symbol vector is
  /// built. Bit-identical to recognize(text.map->translate(text.bytes)).
  virtual QueryResult recognize(const MappedBytes& text, ThreadPool& pool,
                                const QueryOptions& options) const = 0;

  /// Consumes the next window of a streamed input, updating `carry` in
  /// place (empty windows are a no-op). Streaming runs the same chunk
  /// walker as recognize and validates against kStreamCaps, so direct
  /// device callers and Engine::stream get the same reject-don't-ignore
  /// contract.
  ///
  /// Governance is PER FEED: `governor` is the caller's per-feed governor
  /// (a positions StreamSession shares one between this decision window
  /// and its find side); nullptr builds one from options.deadline/cancel.
  /// A trip throws out of this call; the session-level poisoning contract
  /// lives in StreamSession (engine/engine.hpp).
  void stream_feed(StreamCarry& carry, std::span<const Symbol> window,
                   ThreadPool& pool, const QueryOptions& options,
                   const QueryGovernor* governor = nullptr) const;

  /// Decision over everything fed into `carry` so far.
  virtual bool stream_accepted(const StreamCarry& carry) const = 0;

 protected:
  /// The device-specific body of stream_feed (the PLAS window join).
  /// Validation and governor construction live in the shared front end;
  /// `governor` is pre-normalized (nullptr when inactive) and polled at
  /// every chunk-task start inside the window.
  virtual void stream_window(StreamCarry& carry, std::span<const Symbol> window,
                             ThreadPool& pool, const QueryOptions& options,
                             const QueryGovernor* governor) const = 0;
};

}  // namespace rispar
