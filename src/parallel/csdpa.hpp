// The four speculative data-parallel recognition devices, behind the
// polymorphic Device interface (engine/device.hpp).
//
//  * DfaDevice — classic CSDPA with a (minimal) DFA chunk automaton: every
//    DFA state is a speculative start (paper Sect. 2).
//  * NfaDevice — classic CSDPA with an NFA chunk automaton: one frontier
//    simulation per NFA state (Sect. 2, "NFA variant").
//  * RidDevice — the paper's contribution (Sect. 3): RI-DFA chunk automaton
//    whose speculative starts are only the interface states, joined through
//    the interface function if / if_min.
//  * SfaDevice — the speculation-free comparator (Sect. 1, SFA [25]).
//
// The first three share the same two-phase structure: a parallel *reach*
// phase (one task per chunk on a ThreadPool; chunk 1 starts in the real
// initial state only) and a serial *join* phase computing
//     PLAS_i = λ_i( map(PLAS_{i-1}) ∩ PIS_i ),
// where map is the identity for DFA/NFA and the interface function for RID.
// Acceptance: PLAS_c contains a final state. The SFA instead runs one
// mapping-valued chunk automaton per chunk and composes the mappings.
//
// Each device codes reach + join once, as a private window body that
// consumes one source into a StreamCarry: the window's first chunk
// continues from the carried PLAS, later chunks speculate. The source is
// raw bytes read through the pattern's map (MappedBytes) on every query
// path; a symbol span only for Engine::recognize(span), which the perfbench
// harness keeps. recognize() is that body run once on a fresh carry (the
// first chunk then starts in the initial state only) and reports the
// decision plus the overhead metrics the paper reports (transition counts,
// per-phase wall times); stream_feed() runs it per window, so texts larger
// than memory recognize window by window with O(|PLAS|) carry-over.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "automata/dfa.hpp"
#include "automata/nfa.hpp"
#include "core/ridfa.hpp"
#include "core/sfa.hpp"
#include "engine/device.hpp"
#include "parallel/ca_run.hpp"
#include "parallel/thread_pool.hpp"

namespace rispar {

class DfaDevice : public Device {
 public:
  /// `dfa` must stay alive while the device is used; typically the minimal
  /// DFA of the language.
  explicit DfaDevice(const Dfa& dfa);

  Variant variant() const override { return Variant::kDfa; }

  bool stream_accepted(const StreamCarry& carry) const override;
  State carry_states() const override;

 protected:
  WindowStats run_window(StreamCarry& carry, const MappedBytes& window, ThreadPool& pool,
                         const QueryOptions& options,
                         const QueryGovernor* governor) const override;
  WindowStats run_window(StreamCarry& carry, std::span<const Symbol> window,
                         ThreadPool& pool, const QueryOptions& options,
                         const QueryGovernor* governor) const override;

 private:
  template <typename Source>  // MappedBytes or span<const Symbol>
  WindowStats window_body(StreamCarry& carry, const Source& window, ThreadPool& pool,
                          const QueryOptions& options,
                          const QueryGovernor* governor) const;

  const Dfa& dfa_;
  std::vector<State> all_states_;  ///< speculative start set = Q
};

class NfaDevice : public Device {
 public:
  /// Requires an ε-free NFA (the chunk kernels do not apply closures).
  explicit NfaDevice(const Nfa& nfa);

  Variant variant() const override { return Variant::kNfa; }

  bool stream_accepted(const StreamCarry& carry) const override;
  State carry_states() const override;

 protected:
  WindowStats run_window(StreamCarry& carry, const MappedBytes& window, ThreadPool& pool,
                         const QueryOptions& options,
                         const QueryGovernor* governor) const override;
  WindowStats run_window(StreamCarry& carry, std::span<const Symbol> window,
                         ThreadPool& pool, const QueryOptions& options,
                         const QueryGovernor* governor) const override;

 private:
  template <typename Source>  // MappedBytes or span<const Symbol>
  WindowStats window_body(StreamCarry& carry, const Source& window, ThreadPool& pool,
                          const QueryOptions& options,
                          const QueryGovernor* governor) const;

  const Nfa& nfa_;
  std::vector<State> all_states_;
};

class RidDevice : public Device {
 public:
  explicit RidDevice(const Ridfa& ridfa);

  Variant variant() const override { return Variant::kRid; }

  bool stream_accepted(const StreamCarry& carry) const override;
  State carry_states() const override;

 protected:
  WindowStats run_window(StreamCarry& carry, const MappedBytes& window, ThreadPool& pool,
                         const QueryOptions& options,
                         const QueryGovernor* governor) const override;
  WindowStats run_window(StreamCarry& carry, std::span<const Symbol> window,
                         ThreadPool& pool, const QueryOptions& options,
                         const QueryGovernor* governor) const override;

 private:
  template <typename Source>  // MappedBytes or span<const Symbol>
  WindowStats window_body(StreamCarry& carry, const Source& window, ThreadPool& pool,
                          const QueryOptions& options,
                          const QueryGovernor* governor) const;

  const Ridfa& ridfa_;
};

/// The speculation-free comparator (paper Sect. 1, SFA [25]): one SFA run
/// per chunk computes the whole start→end mapping, the join composes the
/// mappings. Exactly n transitions total, at the cost of the SFA's state
/// explosion during construction (see core/sfa.hpp).
class SfaDevice : public Device {
 public:
  /// `chunk_automaton` is the DFA the SFA was built from (its initial and
  /// final states decide acceptance). Both must outlive the device.
  SfaDevice(const Sfa& sfa, const Dfa& chunk_automaton);

  Variant variant() const override { return Variant::kSfa; }

  bool stream_accepted(const StreamCarry& carry) const override;
  State carry_states() const override;

 protected:
  WindowStats run_window(StreamCarry& carry, const MappedBytes& window, ThreadPool& pool,
                         const QueryOptions& options,
                         const QueryGovernor* governor) const override;
  WindowStats run_window(StreamCarry& carry, std::span<const Symbol> window,
                         ThreadPool& pool, const QueryOptions& options,
                         const QueryGovernor* governor) const override;

 private:
  template <typename Source>  // MappedBytes or span<const Symbol>
  WindowStats window_body(StreamCarry& carry, const Source& window, ThreadPool& pool,
                          const QueryOptions& options,
                          const QueryGovernor* governor) const;

  /// Arrival SFA state of one chunk; kDeadState when the chunk contains an
  /// alien symbol and the all-dead mapping was never interned (total chunk
  /// automaton) — the composition must still die.
  State run_chunk(std::span<const Symbol> chunk, std::uint64_t& transitions) const;

  const Sfa& sfa_;
  const Dfa& ca_;
};

}  // namespace rispar
