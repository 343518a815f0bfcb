#include "parallel/match_count.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/random_nfa.hpp"
#include "automata/subset.hpp"
#include "engine/pattern.hpp"
#include "helpers.hpp"
#include "parallel/ca_run.hpp"
#include "parallel/chunk_walker.hpp"
#include "parallel/chunking.hpp"
#include "regex/parser.hpp"
#include "workloads/suite.hpp"

namespace rispar {
namespace {

Dfa searcher(const std::string& pattern) {
  // Σ* p machine: final after every prefix ending an occurrence of p.
  return minimize_dfa(determinize(glushkov_nfa(parse_regex(".*" + pattern))));
}

QueryOptions counting(std::size_t chunks) { return QueryOptions{.chunks = chunks}; }

TEST(MatchCount, SerialCountsOccurrences) {
  const Dfa dfa = searcher("ab");
  // "abab" contains occurrences ending at positions 2 and 4.
  EXPECT_EQ(count_matches_serial(dfa, dfa.symbols().translate("abab")).matches, 2u);
  EXPECT_EQ(count_matches_serial(dfa, dfa.symbols().translate("aaaa")).matches, 0u);
  EXPECT_EQ(count_matches_serial(dfa, dfa.symbols().translate("")).matches, 0u);
}

TEST(MatchCount, OverlappingOccurrences) {
  const Dfa dfa = searcher("aa");
  // "aaaa": occurrences end at 2, 3, 4 (overlaps counted).
  EXPECT_EQ(count_matches_serial(dfa, dfa.symbols().translate("aaaa")).matches, 3u);
}

TEST(MatchCount, ParallelEqualsSerialSmall) {
  const Dfa dfa = searcher("aba");
  ThreadPool pool(4);
  const auto input = dfa.symbols().translate("abababbababa");
  const QueryResult serial = count_matches_serial(dfa, input);
  for (const std::size_t chunks : {1u, 2u, 3u, 5u, 12u}) {
    const QueryResult parallel = count_matches(dfa, input, pool, counting(chunks));
    EXPECT_EQ(parallel.matches, serial.matches) << "chunks=" << chunks;
    EXPECT_FALSE(parallel.died);
  }
}

TEST(MatchCount, UnsupportedKnobsRaiseQueryError) {
  const Dfa dfa = searcher("ab");
  ThreadPool pool(2);
  const auto input = dfa.symbols().translate("abab");
  QueryOptions bad = counting(2);
  bad.positions = true;
  EXPECT_THROW(count_matches(dfa, input, pool, bad), QueryError);
  bad = counting(2);
  bad.limit = 1;
  EXPECT_THROW(count_matches(dfa, input, pool, bad), QueryError);
  bad = counting(2);
  bad.begin_mode = BeginMode::kExact;
  EXPECT_THROW(count_matches(dfa, input, pool, bad), QueryError);
}

TEST(MatchCount, ConvergenceSavesTransitionsOnTotalMachines) {
  // On a Σ*-context machine every speculative run survives, so merged runs
  // are pure savings; the counts must still agree exactly. The look-back
  // probe leaves most searchers a single start per chunk, so this machine
  // needs a synchronizing word longer than the probe: over a run of a's the
  // searcher of a{N} keeps N - kBoundaryProbe + 1 seeds alive, and they
  // converge only as they saturate at N. Counting always converges; the
  // independent cost is the same chunks walked from the same seeds by the
  // kernel with convergence off, plus the same probes.
  const std::size_t n = kBoundaryProbe + 40;
  const Dfa dfa = searcher("a{" + std::to_string(n) + "}");
  ThreadPool pool(4);
  const std::string text(8 * 2 * n, 'a');
  const std::vector<Symbol> symbols = dfa.symbols().translate(text);
  const std::span<const Symbol> input(symbols);
  const QueryResult convergent = count_matches(dfa, input, pool, counting(8));
  std::uint64_t independent = 0;
  for (const ChunkSpan& chunk : split_chunks(input.size(), 8)) {
    const std::size_t lookback = std::min(kBoundaryProbe, chunk.length);
    std::vector<State> starts{dfa.initial()};
    if (chunk.begin > 0)
      starts = lookback_seeds(dfa, input, chunk.begin, lookback, independent, nullptr);
    const auto span = input.subspan(chunk.begin, chunk.length);
    independent += run_chunk_det(dfa, span, starts).transitions;
  }
  EXPECT_LT(convergent.transitions, independent);
  EXPECT_FALSE(convergent.died);
  EXPECT_EQ(convergent.matches, count_matches_serial(dfa, input).matches);
}

TEST(MatchCount, DiedRunReportsPartialCount) {
  // A partial automaton (no Σ* wrap): "ab" recognizer dies on the 'b' at
  // the front.
  const Dfa dfa = minimize_dfa(determinize(glushkov_nfa(parse_regex("ab"))));
  ThreadPool pool(2);
  const auto input = dfa.symbols().translate("ba");
  const QueryResult serial = count_matches_serial(dfa, input);
  const QueryResult parallel = count_matches(dfa, input, pool, counting(2));
  EXPECT_TRUE(serial.died);
  EXPECT_TRUE(parallel.died);
  EXPECT_EQ(parallel.matches, serial.matches);
}

TEST(MatchCount, CountsTitlesInBibleText) {
  // Count <h3> opening tags in the bible workload — every section has one.
  const Dfa dfa = searcher("<h3>");
  ThreadPool pool(4);
  Prng prng(8);
  const std::string text = bible_workload().text(60'000, prng);
  const auto input = dfa.symbols().translate(text);
  const QueryResult counted = count_matches(dfa, input, pool, counting(16));
  // Independently count the substring occurrences.
  std::uint64_t expected = 0;
  for (std::size_t pos = text.find("<h3>"); pos != std::string::npos;
       pos = text.find("<h3>", pos + 1))
    ++expected;
  EXPECT_EQ(counted.matches, expected);
  EXPECT_GT(counted.matches, 0u);
}

class MatchCountProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Parallel == serial counts on random machines (the walk always converges),
// across chunk counts 1..8. On partial machines runs die (the
// serial oracle reports died) and convergent groups die together; the
// per-start totals must still reconstruct exactly through the merge
// forest. Finding is the same walker with a hit list, so it must report
// the same count, death and transitions — and at one chunk both equal the
// serial scan's transitions.
TEST_P(MatchCountProperty, ParallelEqualsSerialOnRandomMachines) {
  Prng prng(GetParam());
  ThreadPool pool(4);
  RandomNfaConfig config;
  config.num_states = 5 + static_cast<std::int32_t>(prng.pick_index(20));
  config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(3));
  const Nfa nfa = random_nfa(prng, config);
  const Dfa dfa = minimize_dfa(determinize(nfa));
  for (int trial = 0; trial < 12; ++trial) {
    const auto input =
        testing::random_word(prng, dfa.num_symbols(), 1 + prng.pick_index(100));
    const QueryResult serial = count_matches_serial(dfa, input);
    for (std::size_t chunks = 1; chunks <= 8; ++chunks) {
      const QueryOptions options = counting(chunks);
      const QueryResult parallel = count_matches(dfa, input, pool, options);
      EXPECT_EQ(parallel.matches, serial.matches) << "chunks=" << chunks;
      EXPECT_EQ(parallel.died, serial.died) << "chunks=" << chunks;
      const QueryResult found = find_matches(dfa, input, pool, options);
      EXPECT_EQ(found.matches, parallel.matches);
      EXPECT_EQ(found.positions.size(), parallel.matches);
      EXPECT_EQ(found.died, parallel.died);
      EXPECT_EQ(found.transitions, parallel.transitions) << "chunks=" << chunks;
      if (chunks == 1) {
        EXPECT_EQ(parallel.transitions, serial.transitions);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchCountProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

// ---------------------------------------------------------------------------
// Look-back seeds: every chunk after the first starts from the states the
// kBoundaryProbe symbols before its boundary leave possible
// (parallel/chunk_walker.hpp), never from all of Q.
// ---------------------------------------------------------------------------

// A random DFA over `symbols` symbols, initial state 0: total, or with each
// transition dead with probability 1/4.
Dfa random_dfa(Prng& prng, std::int32_t states, std::int32_t symbols, bool total) {
  Dfa dfa = Dfa::with_identity_alphabet(symbols);
  for (std::int32_t s = 0; s < states; ++s) dfa.add_state(prng.pick_index(4) == 0);
  dfa.set_initial(0);
  for (State s = 0; s < states; ++s)
    for (Symbol a = 0; a < symbols; ++a)
      if (total || prng.pick_index(4) != 0)
        dfa.set_transition(s, a, static_cast<State>(prng.pick_index(
                                     static_cast<std::size_t>(states))));
  return dfa;
}

// A text the serial run survives as long as it can (each symbol drawn from
// the live transitions of its current state), with an occasional alien
// symbol that kills every run.
std::vector<Symbol> surviving_text(Prng& prng, const Dfa& dfa, std::size_t length) {
  std::vector<Symbol> text;
  State state = dfa.initial();
  for (std::size_t i = 0; i < length; ++i) {
    if (prng.pick_index(400) == 0) {
      text.push_back(prng.pick_index(2) == 0 ? SymbolMap::kUnmapped : dfa.num_symbols());
      state = kDeadState;
      continue;
    }
    std::vector<Symbol> live;
    for (Symbol a = 0; state != kDeadState && a < dfa.num_symbols(); ++a)
      if (dfa.row(state)[a] != kDeadState) live.push_back(a);
    const Symbol a = live.empty() ? static_cast<Symbol>(prng.pick_index(
                                        static_cast<std::size_t>(dfa.num_symbols())))
                                  : live[prng.pick_index(live.size())];
    text.push_back(a);
    if (state != kDeadState) state = dfa.row(state)[a];
  }
  return text;
}

TEST(LookbackSeeds, HoldTheSerialBoundaryState) {
  // Soundness: wherever the serial run is alive at a chunk boundary, its
  // state is among that chunk's seeds — on total and dying machines, with
  // alien symbols in the windows, and for chunks shorter than the probe.
  // A window holding an alien symbol seeds nothing: every run dies in it.
  Prng prng(0x5eed5);
  ThreadPool pool(4);
  for (int trial = 0; trial < 60; ++trial) {
    const bool total = trial % 2 == 0;
    const auto states = 2 + static_cast<std::int32_t>(prng.pick_index(40));
    const auto symbols = 2 + static_cast<std::int32_t>(prng.pick_index(3));
    const Dfa dfa = random_dfa(prng, states, symbols, total);
    const auto text = surviving_text(prng, dfa, 1 + prng.pick_index(3000));
    const std::size_t chunks = 1 + prng.pick_index(64);
    State state = dfa.initial();
    std::size_t at = 0;
    for (const ChunkSpan& chunk : split_chunks(text.size(), chunks)) {
      for (; at < chunk.begin && state != kDeadState; ++at) {
        const Symbol a = text[at];
        state = a < 0 || a >= dfa.num_symbols() ? kDeadState : dfa.row(state)[a];
      }
      if (chunk.begin == 0) continue;
      const std::size_t lookback = std::min({kBoundaryProbe, chunk.begin, chunk.length});
      std::uint64_t probe = 0;
      const std::vector<State> seeds =
          lookback_seeds(dfa, std::span<const Symbol>(text), chunk.begin, lookback, probe,
                         nullptr);
      EXPECT_TRUE(std::is_sorted(seeds.begin(), seeds.end()));
      EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
      const auto window = std::span<const Symbol>(text).subspan(chunk.begin - lookback, lookback);
      if (first_invalid_symbol(window, dfa.num_symbols()) < window.size())
        EXPECT_TRUE(seeds.empty());
      if (state != kDeadState)
        EXPECT_TRUE(std::binary_search(seeds.begin(), seeds.end(), state))
            << "trial " << trial << " boundary " << chunk.begin;
    }
    const QueryResult serial = find_matches_serial(dfa, text);
    const QueryResult found = find_matches(dfa, text, pool, counting(chunks));
    EXPECT_EQ(found.positions, serial.positions) << "trial " << trial;
    EXPECT_EQ(found.died, serial.died) << "trial " << trial;
  }
}

TEST(LookbackSeeds, SearcherSpeculationStaysNearOneChunk) {
  // The 136-state searcher of a log-find pattern on traffic-format text:
  // speculating from all of Q, every chunk after the first would run 136
  // full-length runs; seeded from its look-back, eight chunks cost at most
  // 10% more transitions than one.
  const Pattern pattern = Pattern::compile("src=[0-9.]*9[0-9.]{6} dpt");
  const Dfa& dfa = pattern.searcher();
  ASSERT_EQ(dfa.num_states(), 136);
  Prng prng(13);
  const auto input = dfa.symbols().translate(traffic_workload().text(256 << 10, prng));
  ThreadPool pool(4);
  const QueryResult one = find_matches(dfa, input, pool, counting(1));
  const QueryResult eight = find_matches(dfa, input, pool, counting(8));
  EXPECT_EQ(eight.positions, one.positions);
  EXPECT_GT(one.matches, 0u);
  EXPECT_LE(eight.transitions * 10, one.transitions * 11)
      << eight.transitions << " vs " << one.transitions;
}

TEST(LookbackSeeds, ProbeAtMostDoublesFullSpeculation) {
  // Worst case: a permutation automaton never merges or kills a run, so
  // the probe keeps every state and tiny chunks pay it in full. Clamped to
  // the chunk length, it never costs more than the chunk's own walk from
  // every state: at most twice all-of-Q speculation.
  constexpr std::int32_t kStates = 12;
  Dfa dfa = Dfa::with_identity_alphabet(2);
  for (std::int32_t s = 0; s < kStates; ++s) dfa.add_state(s % 3 == 0);
  dfa.set_initial(0);
  for (State s = 0; s < kStates; ++s) {
    dfa.set_transition(s, 0, (s + 1) % kStates);
    dfa.set_transition(s, 1, kStates - 1 - s);
  }
  Prng prng(21);
  const auto input = testing::random_word(prng, 2, 300);
  ThreadPool pool(4);
  const auto chunks = split_chunks(input.size(), 64);
  std::uint64_t all_of_q = chunks.front().length;
  for (std::size_t i = 1; i < chunks.size(); ++i) all_of_q += kStates * chunks[i].length;
  const QueryResult serial = count_matches_serial(dfa, input);
  const QueryResult counted = count_matches(dfa, input, pool, counting(64));
  const QueryResult found = find_matches(dfa, input, pool, counting(64));
  EXPECT_EQ(counted.matches, serial.matches);
  EXPECT_EQ(found.matches, serial.matches);
  EXPECT_GT(counted.transitions, all_of_q);  // the probe found nothing to cut
  EXPECT_LE(counted.transitions, 2 * all_of_q);
  EXPECT_EQ(found.transitions, counted.transitions);
}

}  // namespace
}  // namespace rispar
