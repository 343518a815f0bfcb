#include "parallel/ca_run.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/nfa_ops.hpp"
#include "automata/packed_table.hpp"
#include "automata/random_nfa.hpp"
#include "automata/subset.hpp"
#include "core/ridfa.hpp"
#include "helpers.hpp"
#include "parallel/chunk_walker.hpp"
#include "regex/parser.hpp"
#include "regex/random_regex.hpp"

namespace rispar {
namespace {

std::vector<State> all_states(std::int32_t n) {
  std::vector<State> states(static_cast<std::size_t>(n));
  for (std::int32_t s = 0; s < n; ++s) states[static_cast<std::size_t>(s)] = s;
  return states;
}

TEST(DetChunkRun, SurvivorsAndCounts) {
  const Dfa dfa = minimize_dfa(determinize(testing::fig1_nfa()));
  const std::vector<Symbol> chunk{2, 0, 1};  // "cab"
  const auto starts = all_states(dfa.num_states());
  const DetChunkResult result = run_chunk_det(dfa, chunk, starts);
  // All four DFA states survive "cab" (Fig. 1 bottom) => 12 transitions.
  EXPECT_EQ(result.lambda.size(), 4u);
  EXPECT_EQ(result.transitions, 12u);
}

TEST(DetChunkRun, DeadRunOmittedFromLambda) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  dfa.add_state(true);
  dfa.add_state(true);
  dfa.set_initial(0);
  dfa.set_transition(0, 0, 0);  // state 0 loops on 'a'
  // state 1 has no transitions at all
  const std::vector<Symbol> chunk{0, 0};
  const auto starts = all_states(2);
  const DetChunkResult result = run_chunk_det(dfa, chunk, starts);
  ASSERT_EQ(result.lambda.size(), 1u);
  EXPECT_EQ(result.lambda[0], (std::pair<State, State>{0, 0}));
  EXPECT_EQ(result.transitions, 2u);  // dead run contributes 0
}

TEST(DetChunkRun, PartialSurvivalCountsPrefix) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  dfa.add_state(true);
  dfa.set_initial(0);
  dfa.set_transition(0, 0, 0);  // dies on 'b'
  const std::vector<Symbol> chunk{0, 0, 1, 0};
  const DetChunkResult result = run_chunk_det(dfa, chunk, all_states(1));
  EXPECT_TRUE(result.lambda.empty());
  EXPECT_EQ(result.transitions, 2u);  // consumed "aa" before dying
}

TEST(DetChunkRun, EmptyChunkMapsStartsToThemselves) {
  const Dfa dfa = testing::fig2_dfa();
  const DetChunkResult result =
      run_chunk_det(dfa, std::span<const Symbol>{}, all_states(2));
  ASSERT_EQ(result.lambda.size(), 2u);
  EXPECT_EQ(result.lambda[0], (std::pair<State, State>{0, 0}));
  EXPECT_EQ(result.lambda[1], (std::pair<State, State>{1, 1}));
  EXPECT_EQ(result.transitions, 0u);
}

TEST(DetChunkRun, ConvergenceProducesSameLambda) {
  Prng prng(99);
  for (int trial = 0; trial < 10; ++trial) {
    RandomNfaConfig config;
    config.num_states = 10 + static_cast<std::int32_t>(prng.pick_index(20));
    const Nfa nfa = random_nfa(prng, config);
    const Dfa dfa = minimize_dfa(determinize(nfa));
    const auto chunk = testing::random_word(prng, dfa.num_symbols(), 40);
    const auto starts = all_states(dfa.num_states());
    const DetChunkResult plain =
        run_chunk_det(dfa, chunk, starts, {.convergence = false});
    const DetChunkResult merged =
        run_chunk_det(dfa, chunk, starts, {.convergence = true});
    EXPECT_EQ(plain.lambda, merged.lambda);
    EXPECT_LE(merged.transitions, plain.transitions);
  }
}

TEST(DetChunkRun, ConvergenceSavesWorkWhenRunsCollide) {
  // Both states step to state 0 on 'a': two runs converge instantly.
  Dfa dfa = Dfa::with_identity_alphabet(1);
  dfa.add_state(true);
  dfa.add_state(false);
  dfa.set_initial(0);
  dfa.set_transition(0, 0, 0);
  dfa.set_transition(1, 0, 0);
  const std::vector<Symbol> chunk(16, 0);
  const auto starts = all_states(2);
  const DetChunkResult plain = run_chunk_det(dfa, chunk, starts, {.convergence = false});
  const DetChunkResult merged = run_chunk_det(dfa, chunk, starts, {.convergence = true});
  EXPECT_EQ(plain.transitions, 32u);
  EXPECT_EQ(merged.transitions, 17u);  // 2 on the first symbol, then 1 each
  EXPECT_EQ(plain.lambda, merged.lambda);
}

TEST(DetChunkRun, DuplicateStartsHandledByConvergence) {
  const Dfa dfa = testing::fig2_dfa();
  const std::vector<State> starts{0, 0, 1};
  const std::vector<Symbol> chunk{0};
  const DetChunkResult merged = run_chunk_det(dfa, chunk, starts, {.convergence = true});
  EXPECT_EQ(merged.lambda.size(), 3u);  // both copies of 0 reported
}

// ---------------------------------------------------------------------------
// Walker equivalence: the chunk walker behind run_chunk_det — gather step,
// scalar column loop and lone-run loop alike — must produce λ maps,
// and transition counts identical to the seed
// implementations (run_chunk_det_reference) over randomized machines,
// starts, and chunk boundaries (whatever gather backend this machine runs).
// ---------------------------------------------------------------------------

void expect_kernels_agree(const Dfa& dfa, std::span<const Symbol> chunk,
                          std::span<const State> starts, bool convergence) {
  const DetChunkResult reference =
      run_chunk_det_reference(dfa, chunk, starts, {.convergence = convergence});
  const DetChunkResult walked =
      run_chunk_det(dfa, chunk, starts, {.convergence = convergence});
  EXPECT_EQ(walked.lambda, reference.lambda);
  EXPECT_EQ(walked.transitions, reference.transitions);
}

// Random chunk that may contain invalid symbols (kUnmapped and >= k) so the
// blocked-validation path is exercised along with the unchecked inner loops.
std::vector<Symbol> random_chunk_with_aliens(Prng& prng, std::int32_t k,
                                             std::size_t length) {
  std::vector<Symbol> chunk = testing::random_word(prng, k, length);
  if (length > 0 && prng.pick_index(3) == 0) {
    const std::size_t how_many = 1 + prng.pick_index(2);
    for (std::size_t i = 0; i < how_many; ++i)
      chunk[prng.pick_index(length)] = prng.pick_index(2) == 0 ? -1 : k;
  }
  return chunk;
}

TEST(DetKernelEquivalence, RandomDfasAllStartsAllModes) {
  Prng prng(2025);
  for (int trial = 0; trial < 40; ++trial) {
    RandomNfaConfig config;
    config.num_states = 5 + static_cast<std::int32_t>(prng.pick_index(30));
    config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(5));
    const Dfa dfa = minimize_dfa(determinize(random_nfa(prng, config)));
    const auto starts = all_states(dfa.num_states());
    const std::size_t length = prng.pick_index(700);
    const auto chunk = random_chunk_with_aliens(prng, dfa.num_symbols(), length);
    expect_kernels_agree(dfa, chunk, starts, false);
    expect_kernels_agree(dfa, chunk, starts, true);
  }
}

TEST(DetKernelEquivalence, RandomRidfasInterfaceStarts) {
  Prng prng(77);
  for (int trial = 0; trial < 25; ++trial) {
    RandomNfaConfig config;
    config.num_states = 6 + static_cast<std::int32_t>(prng.pick_index(20));
    config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(4));
    const Nfa nfa = random_nfa(prng, config);
    const Ridfa ridfa = build_ridfa(nfa);
    const auto chunk =
        random_chunk_with_aliens(prng, ridfa.num_symbols(), prng.pick_index(400));
    expect_kernels_agree(ridfa.dfa(), chunk, ridfa.initial_states(), false);
    expect_kernels_agree(ridfa.dfa(), chunk, ridfa.initial_states(), true);
  }
}

TEST(DetKernelEquivalence, RandomRegexChunkBoundaries) {
  // Split a longer text at random boundaries and check every sub-chunk, so
  // the equivalence holds for exactly the spans the devices produce.
  Prng prng(4242);
  for (int trial = 0; trial < 15; ++trial) {
    const RePtr re = random_regex(prng);
    const Dfa dfa = minimize_dfa(determinize(glushkov_nfa(re)));
    if (dfa.num_states() == 0) continue;
    const auto starts = all_states(dfa.num_states());
    const auto text = testing::random_word(prng, dfa.num_symbols(), 600);
    std::size_t begin = 0;
    while (begin < text.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + prng.pick_index(200), text.size() - begin);
      const std::span<const Symbol> chunk(text.data() + begin, len);
      expect_kernels_agree(dfa, chunk, starts, false);
      expect_kernels_agree(dfa, chunk, starts, true);
      begin += len;
    }
  }
}

TEST(DetKernelEquivalence, DuplicateAndRepeatedStarts) {
  Prng prng(31337);
  const Dfa dfa = minimize_dfa(determinize(testing::fig1_nfa()));
  std::vector<State> starts;
  for (int i = 0; i < 12; ++i)
    starts.push_back(static_cast<State>(prng.pick_index(
        static_cast<std::size_t>(dfa.num_states()))));
  const auto chunk = testing::random_word(prng, dfa.num_symbols(), 64);
  expect_kernels_agree(dfa, chunk, starts, false);
  expect_kernels_agree(dfa, chunk, starts, true);
}

TEST(DetKernelEquivalence, EmptyChunkAndEmptyStarts) {
  const Dfa dfa = testing::fig2_dfa();
  const auto starts = all_states(dfa.num_states());
  expect_kernels_agree(dfa, {}, starts, false);
  expect_kernels_agree(dfa, {}, starts, true);
  expect_kernels_agree(dfa, std::vector<Symbol>{0, 1}, {}, false);
  expect_kernels_agree(dfa, std::vector<Symbol>{0, 1}, {}, true);
}

// Chain automaton with `n` states over {advance, die}: state i advances to
// i+1 (wrapping) on symbol 0; symbol 1 is dead everywhere except state 0.
// Big enough state counts force the u16 and i32 packed-table widths.
Dfa chain_dfa(std::int32_t n) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  for (std::int32_t s = 0; s < n; ++s) dfa.add_state(s == n - 1);
  dfa.set_initial(0);
  for (std::int32_t s = 0; s < n; ++s)
    dfa.set_transition(s, 0, (s + 1) % n);
  dfa.set_transition(0, 1, 0);
  return dfa;
}

TEST(DetKernelEquivalence, WideTablesU16) {
  ASSERT_EQ(chain_dfa(300).packed().width(), TableWidth::kU16);
  Prng prng(8);
  const Dfa dfa = chain_dfa(300);
  std::vector<State> starts;
  for (int i = 0; i < 40; ++i)
    starts.push_back(static_cast<State>(prng.pick_index(300)));
  const auto chunk = random_chunk_with_aliens(prng, 2, 500);
  expect_kernels_agree(dfa, chunk, starts, false);
  expect_kernels_agree(dfa, chunk, starts, true);
}

TEST(DetKernelEquivalence, WideTablesI32) {
  const std::int32_t n = 70000;
  const Dfa dfa = chain_dfa(n);
  ASSERT_EQ(dfa.packed().width(), TableWidth::kI32);
  Prng prng(9);
  std::vector<State> starts;
  for (int i = 0; i < 24; ++i)
    starts.push_back(static_cast<State>(prng.pick_index(static_cast<std::size_t>(n))));
  const auto chunk = random_chunk_with_aliens(prng, 2, 300);
  expect_kernels_agree(dfa, chunk, starts, false);
  expect_kernels_agree(dfa, chunk, starts, true);
}

TEST(DetKernelEquivalence, LookbackSeedsMatchLambdaImage) {
  // The look-back probe's seeds are the sorted, deduplicated λ image of a
  // convergent walk from every state, at the same transition cost.
  Prng prng(555);
  for (int trial = 0; trial < 10; ++trial) {
    RandomNfaConfig config;
    config.num_states = 10 + static_cast<std::int32_t>(prng.pick_index(15));
    const Dfa dfa = minimize_dfa(determinize(random_nfa(prng, config)));
    const auto starts = all_states(dfa.num_states());
    const auto chunk = testing::random_word(prng, dfa.num_symbols(), 100);
    const DetChunkResult merged =
        run_chunk_det(dfa, chunk, starts, {.convergence = true});
    std::vector<State> image;
    for (const auto& [start, end] : merged.lambda) {
      (void)start;
      image.push_back(end);
    }
    std::sort(image.begin(), image.end());
    image.erase(std::unique(image.begin(), image.end()), image.end());
    std::uint64_t probe = 0;
    EXPECT_EQ(lookback_seeds(dfa, std::span<const Symbol>(chunk), chunk.size(),
                             chunk.size(), probe, nullptr),
              image);
    EXPECT_EQ(probe, merged.transitions);
  }
}

// ---------------------------------------------------------------------------
// The walker's live-count choice, case by case. A ladder automaton makes
// the live count a function of the text alone: symbol 0 keeps every state
// (self-loop), symbol 1 steps s -> s-1 and kills state 0, symbol 2 halves
// s -> s/2 (pairs collide — merges under convergence). From starts
// {0..k-1}, the j-th symbol 1 leaves k-j runs alive, so placing the ones
// places every crossing between the gather step (>= 8 live), the scalar
// column loop (2..7) and the lone-run loop (1). Padding states beyond the
// starts only widen the packed table: u8 / u16 / i32 from the state count.
// ---------------------------------------------------------------------------

Dfa ladder_dfa(std::int32_t num_states) {
  Dfa dfa = Dfa::with_identity_alphabet(3);
  for (std::int32_t s = 0; s < num_states; ++s) dfa.add_state(false);
  dfa.set_initial(0);
  for (std::int32_t s = 0; s < num_states; ++s) {
    dfa.set_transition(s, 0, s);
    if (s > 0) dfa.set_transition(s, 1, s - 1);
    dfa.set_transition(s, 2, s / 2);
  }
  return dfa;
}

std::vector<State> first_states(std::size_t count) {
  std::vector<State> starts(count);
  for (std::size_t i = 0; i < count; ++i) starts[i] = static_cast<State>(i);
  return starts;
}

/// `length` symbols of 0 with `symbol` written at each of `positions`.
std::vector<Symbol> ladder_text(std::size_t length,
                                std::initializer_list<std::size_t> positions,
                                Symbol symbol = 1) {
  std::vector<Symbol> text(length, 0);
  for (const std::size_t pos : positions) text[pos] = symbol;
  return text;
}

/// The ladder at 200, 1000 and 70000 states: u8, u16 and i32 tables.
const std::vector<Dfa>& ladders() {
  static const std::vector<Dfa> all{ladder_dfa(200), ladder_dfa(1000), ladder_dfa(70000)};
  return all;
}

TEST(ChunkWalker, LadderWidthsPackAsIntended) {
  EXPECT_EQ(ladders()[0].packed().width(), TableWidth::kU8);
  EXPECT_EQ(ladders()[1].packed().width(), TableWidth::kU16);
  EXPECT_EQ(ladders()[2].packed().width(), TableWidth::kI32);
}

TEST(ChunkWalker, LiveCountCrossesEightMidBlock) {
  // 12 starts: ones at 100..103 bring the count to 8 (still gather), the
  // fifth one at 300 drops it to 7 in the middle of the first block; more
  // ones walk it down to the lone run at 700 and to death at 900.
  const auto starts = first_states(12);
  const std::initializer_list<std::size_t> ones{100, 101, 102, 103, 300, 400,
                                                401, 402, 500, 600, 700, 900};
  const auto text = ladder_text(1200, ones);
  // The run from start s dies on the (s+1)-th one, having consumed exactly
  // the symbols before it.
  std::uint64_t expected = 0;
  for (const std::size_t death : ones) expected += death;
  for (const Dfa& dfa : ladders()) {
    SCOPED_TRACE(dfa.num_states());
    expect_kernels_agree(dfa, text, starts, false);
    expect_kernels_agree(dfa, text, starts, true);
    const DetChunkResult result = run_chunk_det(dfa, text, starts);
    EXPECT_TRUE(result.lambda.empty());  // the last run dies at 900
    EXPECT_EQ(result.transitions, expected);
  }
}

TEST(ChunkWalker, LiveCountCrossesEightAtBlockBoundaries) {
  // The drop from 8 to 7 live lands on the last symbol of the first
  // 512-symbol validation block, on the first symbol of the second, and
  // one symbol either side; the lone-run crossing lands on 1023/1024.
  const auto starts = first_states(10);
  for (const std::size_t cross : {510u, 511u, 512u, 513u}) {
    for (const std::size_t lone : {1023u, 1024u}) {
      const auto text =
          ladder_text(1600, {5, 6, cross, 700, 701, 702, 703, 800, lone});
      for (const Dfa& dfa : ladders()) {
        SCOPED_TRACE(std::to_string(dfa.num_states()) + " cross=" +
                     std::to_string(cross) + " lone=" + std::to_string(lone));
        expect_kernels_agree(dfa, text, starts, false);
        expect_kernels_agree(dfa, text, starts, true);
        // Exactly one run (start 9) survives, at state 0.
        const DetChunkResult result = run_chunk_det(dfa, text, starts);
        ASSERT_EQ(result.lambda.size(), 1u);
        EXPECT_EQ(result.lambda.front(), (std::pair<State, State>{9, 0}));
      }
    }
  }
}

TEST(ChunkWalker, AlienSymbolInEveryStep) {
  // An out-of-alphabet symbol kills every live run uncounted, whichever
  // step is running: 16 live (gather), 5 live (scalar), 1 live (lone).
  // The last start sits far up the ladder, so the lone survivor is at
  // state 100-ones when the alien arrives: an alien equal to the symbol
  // count would index past the table, not into its dead-filled slack.
  auto starts = first_states(15);
  starts.push_back(100);
  for (const Symbol alien : {Symbol{-1}, Symbol{3}}) {
    for (const std::size_t ones : {0u, 11u, 15u}) {
      std::vector<Symbol> text(900, 0);
      for (std::size_t j = 0; j < ones; ++j) text[20 + j] = 1;
      for (const std::size_t at : {200u, 511u, 512u, 777u}) {
        std::vector<Symbol> with_alien = text;
        with_alien[at] = alien;
        for (const Dfa& dfa : ladders()) {
          SCOPED_TRACE(std::to_string(dfa.num_states()) + " live=" +
                       std::to_string(16 - ones) +
                       " alien@" + std::to_string(at));
          expect_kernels_agree(dfa, with_alien, starts, false);
          expect_kernels_agree(dfa, with_alien, starts, true);
          const DetChunkResult result = run_chunk_det(dfa, with_alien, starts);
          EXPECT_TRUE(result.lambda.empty());
          // Every run consumed the symbols before the alien that it survived.
          std::uint64_t expected = 0;
          for (std::size_t start = 0; start < 16; ++start)
            expected += start < ones ? 20 + start : at;
          EXPECT_EQ(result.transitions, expected);
        }
      }
    }
  }
}

TEST(ChunkWalker, ConvergentMergesCrossEveryBand) {
  // Symbol 2 halves: 40 starts collapse to 20 groups, then 10, 5, 3, 2 —
  // under convergence the walker leaves the gather band by merging, not
  // dying; independent runs keep all 40 lanes (and the gather step). The
  // ones kill the group at state 0 and shift the rest between halvings.
  const auto starts = first_states(40);
  for (const std::size_t first : {100u, 511u, 512u}) {
    auto text = ladder_text(1400, {first, 700, 900, 1100, 1200}, 2);
    text[650] = 1;
    text[1300] = 1;
    for (const Dfa& dfa : ladders()) {
      SCOPED_TRACE(std::to_string(dfa.num_states()) + " first merge at " +
                   std::to_string(first));
      expect_kernels_agree(dfa, text, starts, false);
      expect_kernels_agree(dfa, text, starts, true);
      const DetChunkResult merged =
          run_chunk_det(dfa, text, starts, {.convergence = true});
      const DetChunkResult plain = run_chunk_det(dfa, text, starts);
      EXPECT_EQ(merged.lambda, plain.lambda);
      EXPECT_LT(merged.transitions, plain.transitions);
    }
  }
}

TEST(NfaChunkRun, MatchesNfaReachPerStart) {
  Prng prng(123);
  const Nfa nfa = random_nfa(prng);
  const auto chunk = testing::random_word(prng, nfa.num_symbols(), 30);
  const auto starts = all_states(nfa.num_states());
  const NfaChunkResult result = run_chunk_nfa(nfa, chunk, starts);

  std::size_t expected_entries = 0;
  for (const State start : starts) {
    Bitset start_set(static_cast<std::size_t>(nfa.num_states()));
    start_set.set(static_cast<std::size_t>(start));
    const Bitset reached = nfa_reach(nfa, start_set, chunk);
    if (!reached.empty()) ++expected_entries;
    for (const auto& [s, ends] : result.lambda)
      if (s == start) EXPECT_EQ(ends, reached);
  }
  EXPECT_EQ(result.lambda.size(), expected_entries);
}

TEST(NfaChunkRun, TransitionCountMatchesFig1) {
  // Chunk 2 of Fig. 1 ("cab") from starts {0,1,2}: 5 + 4 + 0 = 9 traversals.
  const Nfa nfa = testing::fig1_nfa();
  const std::vector<Symbol> chunk{2, 0, 1};
  const NfaChunkResult result = run_chunk_nfa(nfa, chunk, all_states(3));
  EXPECT_EQ(result.transitions, 9u);
  EXPECT_EQ(result.lambda.size(), 2u);  // the run from 2 dies on 'c'
}

TEST(NfaChunkRun, EmptyChunk) {
  const Nfa nfa = testing::fig1_nfa();
  const NfaChunkResult result =
      run_chunk_nfa(nfa, std::span<const Symbol>{}, all_states(3));
  EXPECT_EQ(result.lambda.size(), 3u);
  for (const auto& [start, ends] : result.lambda) {
    EXPECT_EQ(ends.count(), 1u);
    EXPECT_TRUE(ends.test(static_cast<std::size_t>(start)));
  }
}

}  // namespace
}  // namespace rispar
