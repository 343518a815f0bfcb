// Reach-phase kernels: the speculative chunk runs of the three CSDPA
// variants (paper Sect. 2 and 3.2).
//
// Each kernel consumes one chunk of the symbol stream from a set of starting
// states and returns the partial mapping λ_i = { (start, end) : the run from
// `start` survives the whole chunk }, together with the executed-transition
// count. Runs that die early simply do not appear in λ.
//
// ## Transition accounting (the convention, stated once)
//
// `transitions` is the paper's primary overhead metric (Fig. 1: min-DFA 15 /
// NFA 14 / RI-DFA 9 on "aabcab" in two chunks). Everything that reports a
// transition count — these kernels, the serial oracles in core/serial_match,
// and the devices in parallel/csdpa that sum them — follows one convention:
//
//  * deterministic machines count ONE transition per consumed symbol per
//    live run; a run that dies after j symbols contributes exactly j, and
//    the symbol it dies on is NOT counted (the lookup that returns dead is
//    work saved, not work done);
//  * under run convergence, merged runs count as ONE live run from the
//    merge point on (that is the saving being measured);
//  * an out-of-alphabet symbol kills every run without being counted;
//  * the NFA frontier simulation counts every edge traversal (each element
//    of ρ(s, a) applied to each frontier member);
//  * look-back probe runs (lookback_seeds, parallel/chunk_walker.hpp) are
//    real speculative work and are added to the chunk's count.
//
// ## One walker
//
// run_chunk_det is the chunk walker (parallel/chunk_walker.hpp) with a
// passive recorder — the same template body that counting and finding run
// with their hit recorders. It advances all starts in lockstep over the
// width-packed symbol-major table and picks its step from the live count:
// the vector gather from 8 live runs (or convergent groups) on, the scalar
// column loop below that, a lone-run loop for the last survivor. There is
// no implementation knob; every step is bit-identical to the seed
// implementations kept as run_chunk_det_reference, the property-test
// oracle.
//
// Run convergence (merging runs that land in the same state at the same
// position — the Mytkowicz-style optimization the paper lists as
// compatible, Sect. 5) is a kernel-level option, fixed per query shape by
// its caller, never by the query: recognize walks independently, as the
// paper's baselines execute the |I| runs (and independent RID walking is
// the faster of the two, docs/perf.md); counting and finding always
// converge (parallel/match_count.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "automata/dfa.hpp"
#include "automata/nfa.hpp"
#include "util/bitset.hpp"
#include "util/governance.hpp"

namespace rispar {

struct DetChunkResult {
  /// (start, end) pairs of surviving runs, in `starts` order.
  std::vector<std::pair<State, State>> lambda;
  std::uint64_t transitions = 0;
};

struct DetChunkOptions {
  bool convergence = false;
  /// Cooperative governance checkpoints (deadline/cancellation): polled
  /// roughly every kGovernorStride consumed symbols. Null or inactive =
  /// zero per-symbol cost (normalized to nullptr up front). The pointer
  /// must outlive the call; it is shared read-only across the pool's chunk
  /// tasks.
  const QueryGovernor* governor = nullptr;
};

/// Advances every state in `starts` over `chunk`. See the header comment
/// for the accounting convention.
DetChunkResult run_chunk_det(const Dfa& dfa, std::span<const Symbol> chunk,
                             std::span<const State> starts,
                             const DetChunkOptions& options = {});
/// The same walk over raw bytes read through their map (MappedBytes):
/// bit-identical to run_chunk_det over chunk.map->translate(chunk.bytes).
DetChunkResult run_chunk_det(const Dfa& dfa, const MappedBytes& chunk,
                             std::span<const State> starts,
                             const DetChunkOptions& options = {});

/// The seed implementations (start-at-a-time independent runs; hash-map
/// convergence): the oracle run_chunk_det is tested against, result for
/// result and transition for transition. Not a serving path.
DetChunkResult run_chunk_det_reference(const Dfa& dfa, std::span<const Symbol> chunk,
                                       std::span<const State> starts,
                                       const DetChunkOptions& options = {});

struct NfaChunkResult {
  /// Per start (in `starts` order): the frontier set δ(start, chunk); an
  /// entry is present only when that set is non-empty.
  std::vector<std::pair<State, Bitset>> lambda;
  std::uint64_t transitions = 0;  ///< NFA edge traversals (see header)
};

/// Runs the NFA frontier simulation once per starting state. `governor`
/// adds the same cooperative per-stride checkpoints as the deterministic
/// kernels (null = ungoverned).
NfaChunkResult run_chunk_nfa(const Nfa& nfa, std::span<const Symbol> chunk,
                             std::span<const State> starts,
                             const QueryGovernor* governor = nullptr);

/// One frontier simulation seeded with ALL of `starts` at once: the union
/// λ image without per-start attribution, reported as a single lambda
/// entry (starts.front(), union). For consumers that only need the union —
/// the NFA streaming path's first chunk, whose carried states are all kept
/// verbatim by the join — this replaces |starts| full chunk scans with one.
NfaChunkResult run_chunk_nfa_union(const Nfa& nfa, std::span<const Symbol> chunk,
                                   std::span<const State> starts,
                                   const QueryGovernor* governor = nullptr);

}  // namespace rispar
