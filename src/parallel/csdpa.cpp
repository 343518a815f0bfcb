#include "parallel/csdpa.hpp"

#include <cassert>

#include "parallel/chunking.hpp"
#include "util/stopwatch.hpp"

namespace rispar {

namespace {

// The skeleton of every device's window body. Empty windows are no-ops and
// a dead carry only grows the window count. Otherwise the reach runs one
// pool task per chunk — run(chunk, i), where chunk 0 continues from the
// carry and later chunks speculate — and join(results) folds the chunk
// results into the carry; both phases are timed.
template <typename Result, typename Source, typename Run, typename Join>
WindowStats reach_and_join(StreamCarry& carry, const Source& window, ThreadPool& pool,
                           std::size_t chunks_requested, const QueryGovernor* governor,
                           Run&& run, Join&& join) {
  WindowStats stats;
  if (window.empty()) return stats;
  ++carry.windows;
  if (!carry.at_start && carry.states.empty()) return stats;

  const auto chunks = split_chunks(window.size(), chunks_requested);
  stats.chunks = chunks.size();
  Stopwatch reach_clock;
  std::vector<Result> results(chunks.size());
  pool.run(chunks.size(), [&](std::size_t i) {
    // Chunk boundary: the universal checkpoint every window honors.
    if (governor != nullptr) governor->poll();
    results[i] = run(window.subspan(chunks[i].begin, chunks[i].length), i);
  }, governor);
  stats.reach_seconds = reach_clock.seconds();

  Stopwatch join_clock;
  join(results);
  carry.at_start = false;
  stats.join_seconds = join_clock.seconds();
  return stats;
}

// The NFA and SFA kernels read symbols: a byte chunk is translated inside
// its own pool task, a symbol chunk is used in place.
template <typename Fn>
auto with_symbols(std::span<const Symbol> chunk, Fn&& fn) {
  return fn(chunk);
}
template <typename Fn>
auto with_symbols(const MappedBytes& chunk, Fn&& fn) {
  const std::vector<Symbol> symbols = chunk.map->translate(chunk.bytes);
  return fn(std::span<const Symbol>(symbols));
}

// The paper's serial join for the DFA and NFA, which both track the PLAS
// as a bitset: the first chunk's survivors are kept verbatim (their starts
// were exactly the carried PLAS), later chunks filter through the previous
// PLAS. `accumulate(next, entry)` adds one surviving λ entry.
template <typename Result, typename Accumulate>
void join_bitset_plas(StreamCarry& carry, const std::vector<Result>& results,
                      std::int32_t num_states, Accumulate&& accumulate) {
  Bitset plas(static_cast<std::size_t>(num_states));
  bool first_chunk = true;
  for (const auto& chunk_result : results) {
    carry.transitions += chunk_result.transitions;
    Bitset next(static_cast<std::size_t>(num_states));
    for (const auto& entry : chunk_result.lambda) {
      if (first_chunk || plas.test(static_cast<std::size_t>(entry.first)))
        accumulate(next, entry);
    }
    plas = std::move(next);
    first_chunk = false;
  }
  carry.states.clear();
  for (std::size_t s = plas.first(); s != Bitset::npos; s = plas.next(s))
    carry.states.push_back(static_cast<State>(s));
}

bool any_final(const StreamCarry& carry, State initial, auto&& is_final) {
  if (carry.at_start) return is_final(initial);
  for (const State s : carry.states)
    if (is_final(s)) return true;
  return false;
}

}  // namespace

// ---------------------------------------------------------------- DfaDevice

DfaDevice::DfaDevice(const Dfa& dfa) : dfa_(dfa) {
  dfa.packed();  // warm the cache so pool workers never pay the build
  all_states_.reserve(static_cast<std::size_t>(dfa.num_states()));
  for (State s = 0; s < dfa.num_states(); ++s) all_states_.push_back(s);
}

WindowStats DfaDevice::run_window(StreamCarry& carry, const MappedBytes& window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

WindowStats DfaDevice::run_window(StreamCarry& carry, std::span<const Symbol> window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

template <typename Source>
WindowStats DfaDevice::window_body(StreamCarry& carry, const Source& window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  // Classic CSDPA: the first chunk continues from the carried PLAS (the
  // initial state alone on a fresh carry), the rest speculate on all of Q.
  const std::vector<State> continuation =
      carry.at_start ? std::vector<State>{dfa_.initial()} : carry.states;
  return reach_and_join<DetChunkResult>(
      carry, window, pool, options.chunks, governor,
      [&](const Source& chunk, std::size_t i) {
        return run_chunk_det(dfa_, chunk, i == 0 ? continuation : all_states_,
                             {.governor = governor});
      },
      [&](const std::vector<DetChunkResult>& results) {
        join_bitset_plas(carry, results, dfa_.num_states(),
                         [](Bitset& next, const std::pair<State, State>& entry) {
                           next.set(static_cast<std::size_t>(entry.second));
                         });
      });
}

bool DfaDevice::stream_accepted(const StreamCarry& carry) const {
  return any_final(carry, dfa_.initial(), [&](State s) { return dfa_.is_final(s); });
}

State DfaDevice::carry_states() const { return dfa_.num_states(); }

// ---------------------------------------------------------------- NfaDevice

NfaDevice::NfaDevice(const Nfa& nfa) : nfa_(nfa) {
  assert(!nfa.has_epsilon() && "NfaDevice requires an eps-free NFA");
  all_states_.reserve(static_cast<std::size_t>(nfa.num_states()));
  for (State s = 0; s < nfa.num_states(); ++s) all_states_.push_back(s);
}

WindowStats NfaDevice::run_window(StreamCarry& carry, const MappedBytes& window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

WindowStats NfaDevice::run_window(StreamCarry& carry, std::span<const Symbol> window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

template <typename Source>
WindowStats NfaDevice::window_body(StreamCarry& carry, const Source& window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  const std::vector<State> continuation =
      carry.at_start ? std::vector<State>{nfa_.initial()} : carry.states;
  return reach_and_join<NfaChunkResult>(
      carry, window, pool, options.chunks, governor,
      [&](const Source& chunk, std::size_t i) {
        return with_symbols(chunk, [&](std::span<const Symbol> symbols) {
          // The first chunk's survivors are all kept verbatim by the join,
          // so only the UNION of its end sets matters — one frontier
          // simulation seeded with the whole carry instead of |carry| full
          // chunk scans (from the initial state alone it is run_chunk_nfa).
          return i == 0 ? run_chunk_nfa_union(nfa_, symbols, continuation, governor)
                        : run_chunk_nfa(nfa_, symbols, all_states_, governor);
        });
      },
      [&](const std::vector<NfaChunkResult>& results) {
        // λ_i(q) is itself a state set, so joining unions the images of
        // the surviving starts.
        join_bitset_plas(carry, results, nfa_.num_states(),
                         [](Bitset& next, const std::pair<State, Bitset>& entry) {
                           next |= entry.second;
                         });
      });
}

bool NfaDevice::stream_accepted(const StreamCarry& carry) const {
  return any_final(carry, nfa_.initial(), [&](State s) { return nfa_.is_final(s); });
}

State NfaDevice::carry_states() const { return nfa_.num_states(); }

// ---------------------------------------------------------------- RidDevice

RidDevice::RidDevice(const Ridfa& ridfa) : ridfa_(ridfa) {
  ridfa.dfa().packed();  // warm the cache so pool workers never pay the build
}

WindowStats RidDevice::run_window(StreamCarry& carry, const MappedBytes& window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

WindowStats RidDevice::run_window(StreamCarry& carry, std::span<const Symbol> window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

template <typename Source>
WindowStats RidDevice::window_body(StreamCarry& carry, const Source& window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  const Dfa& ca = ridfa_.dfa();
  // The first chunk continues from the carried PLAS through the interface
  // function. Later chunks speculate on the interface states only — the
  // whole point of the RI-DFA (|I_B| = |Q_N| or less after minimization).
  const std::vector<State> continuation =
      carry.at_start ? std::vector<State>{ridfa_.start_state()}
                     : ridfa_.interface_image(carry.states);
  return reach_and_join<DetChunkResult>(
      carry, window, pool, options.chunks, governor,
      [&](const Source& chunk, std::size_t i) {
        return run_chunk_det(ca, chunk, i == 0 ? continuation : ridfa_.initial_states(),
                             {.governor = governor});
      },
      [&](const std::vector<DetChunkResult>& results) {
        // PLAS as an explicit CA-state list: between chunks it passes
        // through the interface function (Sect. 3.2 / 3.4), which maps each
        // contained NFA state to its (delegated) initial CA state. The
        // first chunk's survivors are kept verbatim (their starts were
        // already the carried image).
        std::vector<State> plas;
        bool first_chunk = true;
        for (const auto& chunk_result : results) {
          carry.transitions += chunk_result.transitions;
          std::vector<State> next;
          if (first_chunk) {
            for (const auto& entry : chunk_result.lambda) next.push_back(entry.second);
          } else {
            Bitset allowed(static_cast<std::size_t>(ca.num_states()));
            for (const State p : ridfa_.interface_image(plas))
              allowed.set(static_cast<std::size_t>(p));
            for (const auto& [start, end] : chunk_result.lambda)
              if (allowed.test(static_cast<std::size_t>(start))) next.push_back(end);
          }
          plas = std::move(next);
          first_chunk = false;
        }
        carry.states = std::move(plas);
      });
}

bool RidDevice::stream_accepted(const StreamCarry& carry) const {
  return any_final(carry, ridfa_.start_state(),
                   [&](State p) { return ridfa_.is_final(p); });
}

State RidDevice::carry_states() const { return ridfa_.num_states(); }

// ---------------------------------------------------------------- SfaDevice

SfaDevice::SfaDevice(const Sfa& sfa, const Dfa& chunk_automaton)
    : sfa_(sfa), ca_(chunk_automaton) {}

State SfaDevice::run_chunk(std::span<const Symbol> chunk,
                           std::uint64_t& transitions) const {
  // Validate up front: an alien symbol kills every run. When the chunk
  // automaton is total its all-dead mapping was never interned as an SFA
  // state, so Sfa::run alone cannot express the death — return kDeadState
  // and let the join treat the whole composition as dead. (The symbols
  // before the alien one were real work and are counted; the alien one is
  // not — the accounting convention of parallel/ca_run.hpp.)
  const std::size_t valid = first_invalid_symbol(chunk, sfa_.num_symbols());
  if (valid == chunk.size()) return sfa_.run(chunk.data(), chunk.size(), transitions);
  // Alien present: consume the valid prefix (real work, counted), then the
  // whole chunk dies regardless of start.
  sfa_.run(chunk.data(), valid, transitions);
  return sfa_.all_dead_state().value_or(kDeadState);
}

WindowStats SfaDevice::run_window(StreamCarry& carry, const MappedBytes& window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

WindowStats SfaDevice::run_window(StreamCarry& carry, std::span<const Symbol> window,
                                  ThreadPool& pool, const QueryOptions& options,
                                  const QueryGovernor* governor) const {
  return window_body(carry, window, pool, options, governor);
}

template <typename Source>
WindowStats SfaDevice::window_body(StreamCarry& carry, const Source& window,
                                   ThreadPool& pool, const QueryOptions& options,
                                   const QueryGovernor* governor) const {
  struct Arrival {
    State state = kDeadState;
    std::uint64_t transitions = 0;
  };
  // One SFA run per chunk, from the identity mapping — no speculation.
  // Governance is chunk-boundary only: Sfa::run is an opaque packed scan
  // with no start parameter, so there is no mid-chunk resume point worth a
  // finer stride (raise options.chunks for tighter trip latency).
  return reach_and_join<Arrival>(
      carry, window, pool, options.chunks, governor,
      [&](const Source& chunk, std::size_t) {
        return with_symbols(chunk, [&](std::span<const Symbol> symbols) {
          Arrival arrival;
          arrival.state = run_chunk(symbols, arrival.transitions);
          return arrival;
        });
      },
      [&](const std::vector<Arrival>& arrivals) {
        // Compose: thread the carried CA state through each chunk's mapping.
        State state = carry.at_start ? ca_.initial() : carry.states.front();
        for (const Arrival& arrival : arrivals) {
          carry.transitions += arrival.transitions;
          if (state == kDeadState) continue;
          state = arrival.state == kDeadState ? kDeadState
                                              : sfa_.mapping_entry(arrival.state, state);
        }
        carry.states.clear();
        if (state != kDeadState) carry.states.push_back(state);
      });
}

bool SfaDevice::stream_accepted(const StreamCarry& carry) const {
  if (carry.at_start) return ca_.is_final(ca_.initial());
  return !carry.states.empty() && ca_.is_final(carry.states.front());
}

State SfaDevice::carry_states() const { return ca_.num_states(); }

}  // namespace rispar
