// Ablation — the design choices DESIGN.md calls out:
//   (1) interface minimization (Sect. 3.4) on/off: initial-state counts and
//       RID transition counts on the five benchmarks;
//   (2) run-convergence in the deterministic chunk kernels (the Mytkowicz-
//       style optimization the paper lists as compatible, Sect. 5): its
//       effect on DFA-variant and RID transition counts;
//   (3) look-back speculation for the DFA variant (Sect. 5 / [28]).
// Ablations 2 and 3 are kernel-level choices, not query options: their
// rows replay a recognize() reach phase chunk by chunk through
// run_chunk_det / lookback_seeds, which sum to the device's transition
// count.
#include <cstdio>
#include <iostream>
#include <numeric>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/subset.hpp"
#include "common.hpp"
#include "core/interface_min.hpp"
#include "parallel/chunk_walker.hpp"
#include "parallel/chunking.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace rispar;
using namespace rispar::bench;

namespace {

/// Reach-phase transitions of one recognize() over `chunks` chunks of
/// `input` on chunk automaton `ca`: chunk 1 runs from `initial` alone, later
/// chunks from `speculative` — or, with `lookback` > 0, from the look-back
/// seeds of their boundary, whose probe counts as speculative work (the
/// convention of parallel/ca_run.hpp).
std::uint64_t reach_transitions(const Dfa& ca, std::span<const Symbol> input,
                                std::size_t chunks, State initial,
                                std::span<const State> speculative, bool convergence,
                                std::size_t lookback = 0) {
  std::uint64_t transitions = 0;
  const DetChunkOptions options{.convergence = convergence};
  for (const ChunkSpan& span : split_chunks(input.size(), chunks)) {
    std::vector<State> starts{initial};
    if (span.begin > 0 && lookback > 0)
      starts = lookback_seeds(ca, input, span.begin, lookback, transitions, nullptr);
    else if (span.begin > 0)
      starts.assign(speculative.begin(), speculative.end());
    const auto chunk = input.subspan(span.begin, span.length);
    transitions += run_chunk_det(ca, chunk, starts, options).transitions;
  }
  return transitions;
}

std::uint64_t dfa_transitions(const Prepared& prepared, std::size_t chunks,
                              bool convergence, std::size_t lookback = 0) {
  const Dfa& dfa = prepared.engine.pattern().min_dfa();
  std::vector<State> all(static_cast<std::size_t>(dfa.num_states()));
  std::iota(all.begin(), all.end(), 0);
  return reach_transitions(dfa, prepared.input, chunks, dfa.initial(), all, convergence,
                           lookback);
}

std::uint64_t rid_transitions(const Prepared& prepared, std::size_t chunks,
                              bool convergence) {
  const Ridfa& ridfa = prepared.engine.pattern().ridfa();
  return reach_transitions(ridfa.dfa(), prepared.input, chunks, ridfa.start_state(),
                           ridfa.initial_states(), convergence);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("ablation_options", "ablations: interface minimization, run convergence");
  cli.add_option("chunks", "32", "chunk count");
  cli.add_option("bytes", "262144", "text bytes per benchmark");
  cli.add_option("k", "6", "regexp family parameter k");
  cli.add_option("seed", "12", "text generation seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto chunks = static_cast<std::size_t>(cli.get_int("chunks"));
  const auto bytes = static_cast<std::size_t>(cli.get_int("bytes"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  ThreadPool pool;

  std::printf("=== Ablation 1: interface minimization (Sect. 3.4) ===\n\n");
  Table ablation1({"benchmark", "initials (raw)", "initials (min)", "downgraded",
                   "RID transitions (raw)", "RID transitions (min)"});
  for (const auto& spec : benchmark_suite(static_cast<int>(cli.get_int("k")))) {
    const Nfa nfa = glushkov_nfa(spec.regex());
    Ridfa raw = build_ridfa(nfa);
    Ridfa minimized = build_ridfa(nfa);
    const InterfaceMinStats stats = minimize_interface(minimized);

    Prng prng(seed ^ stable_hash(spec.name));
    const auto input = nfa.symbols().translate(spec.text(bytes, prng));
    const QueryOptions options{.chunks = chunks};
    const auto raw_stats = RidDevice(raw).recognize(input, pool, options);
    const auto min_stats = RidDevice(minimized).recognize(input, pool, options);

    ablation1.add_row({spec.name,
                       Table::cell(static_cast<std::int64_t>(raw.initial_count())),
                       Table::cell(static_cast<std::int64_t>(minimized.initial_count())),
                       Table::cell(static_cast<std::int64_t>(stats.downgraded)),
                       Table::cell(raw_stats.transitions),
                       Table::cell(min_stats.transitions)});
  }
  ablation1.render(std::cout);

  std::printf("\n=== Ablation 2: run convergence in the reach kernels ===\n\n");
  Table ablation2({"benchmark", "DFA trans (indep)", "DFA trans (converge)",
                   "RID trans (indep)", "RID trans (converge)"});
  for (const auto& spec : benchmark_suite(static_cast<int>(cli.get_int("k")))) {
    const Prepared prepared(spec, bytes, seed);
    ablation2.add_row({spec.name, Table::cell(dfa_transitions(prepared, chunks, false)),
                       Table::cell(dfa_transitions(prepared, chunks, true)),
                       Table::cell(rid_transitions(prepared, chunks, false)),
                       Table::cell(rid_transitions(prepared, chunks, true))});
  }
  ablation2.render(std::cout);

  std::printf("\n=== Ablation 3: look-back speculation for the DFA variant "
              "(Sect. 5 / [28]) ===\n\n");
  Table ablation3({"benchmark", "DFA trans (plain)", "DFA trans (lookback 16)",
                   "DFA trans (lookback 64)", "RID trans"});
  for (const auto& spec : benchmark_suite(static_cast<int>(cli.get_int("k")))) {
    const Prepared prepared(spec, bytes, seed);
    ablation3.add_row({spec.name, Table::cell(dfa_transitions(prepared, chunks, false)),
                       Table::cell(dfa_transitions(prepared, chunks, false, 16)),
                       Table::cell(dfa_transitions(prepared, chunks, false, 64)),
                       Table::cell(rid_transitions(prepared, chunks, false))});
  }
  ablation3.render(std::cout);

  std::puts("\nreading: interface minimization removes starts wholesale; convergence");
  std::puts("merges surviving runs and mostly helps the DFA variant (whose runs");
  std::puts("rarely die on the winning benchmarks); look-back prunes DFA starts");
  std::puts("where the window disambiguates the boundary (regexp collapses to one");
  std::puts("candidate) but keeps residual overhead on bible, where several title-");
  std::puts("tracking states remain live candidates — RID needs no tuning knob.");
  return 0;
}
