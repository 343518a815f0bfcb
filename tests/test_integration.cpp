// Whole-pipeline integration tests: RE text → automata → parallel devices →
// join, cross-checked on the paper's benchmark workloads at reduced scale.
#include <gtest/gtest.h>

#include <numeric>

#include "automata/glushkov.hpp"
#include "core/serial_match.hpp"
#include "engine/engine.hpp"
#include "parallel/ca_run.hpp"
#include "parallel/chunking.hpp"
#include "workloads/suite.hpp"

namespace rispar {
namespace {

struct Mutation {
  std::size_t position;
  char byte;
};

// Flips one byte of a workload text to (usually) break membership for the
// rigid formats; for Σ*-context languages membership may survive, so the
// test only asserts serial/parallel agreement, not rejection.
std::string mutate(std::string text, const Mutation& mutation) {
  text[mutation.position % text.size()] = mutation.byte;
  return text;
}

class IntegrationCase : public ::testing::TestWithParam<int> {};

TEST_P(IntegrationCase, SerialAndParallelAgreeOnMutatedTexts) {
  const WorkloadSpec spec = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  Prng prng(42);
  const std::string clean = spec.text(15'000, prng);
  const Engine engine(Pattern::from_nfa(glushkov_nfa(spec.regex())), {.threads = 6});

  std::vector<std::string> texts{clean};
  texts.push_back(mutate(clean, {7'500, '~'}));
  texts.push_back(mutate(clean, {3, '\x01'}));
  texts.push_back(clean + "~");

  for (const auto& text : texts) {
    const auto input = engine.translate(text);
    const bool oracle = engine.accepts(input);
    for (const std::size_t chunks : {2u, 9u, 32u}) {
      for (const Variant variant : {Variant::kDfa, Variant::kNfa, Variant::kRid}) {
        const QueryOptions options{.variant = variant, .chunks = chunks};
        EXPECT_EQ(engine.recognize(input, options).accepted, oracle)
            << spec.name << " " << variant_name(variant) << " c=" << chunks;
      }
    }
  }
}

TEST_P(IntegrationCase, TransitionRatiosMatchPaperGrouping) {
  // The Sect. 4.3 shape at small scale: winning benchmarks show a DFA/RID
  // transition ratio well above 1; even benchmarks sit near 1.
  const WorkloadSpec spec = benchmark_suite()[static_cast<std::size_t>(GetParam())];
  Prng prng(43);
  const std::string text = spec.text(60'000, prng);
  const Engine engine(Pattern::from_nfa(glushkov_nfa(spec.regex())), {.threads = 6});
  const auto input = engine.translate(text);

  const auto dfa = engine.recognize(input, {.variant = Variant::kDfa, .chunks = 32});
  const auto rid = engine.recognize(input, {.variant = Variant::kRid, .chunks = 32});
  ASSERT_TRUE(dfa.accepted);
  ASSERT_TRUE(rid.accepted);
  const double ratio = static_cast<double>(dfa.transitions) /
                       static_cast<double>(rid.transitions);
  if (spec.winning) {
    EXPECT_GT(ratio, 2.0) << spec.name;
  } else {
    EXPECT_GT(ratio, 0.5) << spec.name;
    EXPECT_LT(ratio, 2.0) << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFive, IntegrationCase, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return benchmark_suite()[static_cast<std::size_t>(
                                                        info.param)]
                               .name;
                         });

TEST(Integration, NfaVariantCountsMoreTransitionsThanRid) {
  // Tab. 3: the NFA/RID transition ratio is >= 1 on every benchmark.
  for (const auto& spec : benchmark_suite()) {
    Prng prng(44);
    const std::string text = spec.text(20'000, prng);
    const Engine engine(Pattern::from_nfa(glushkov_nfa(spec.regex())), {.threads = 6});
    const auto input = engine.translate(text);
    const auto nfa_stats =
        engine.recognize(input, {.variant = Variant::kNfa, .chunks = 16});
    const auto rid_stats =
        engine.recognize(input, {.variant = Variant::kRid, .chunks = 16});
    EXPECT_GE(static_cast<double>(nfa_stats.transitions) * 1.05,
              static_cast<double>(rid_stats.transitions))
        << spec.name;
  }
}

TEST(Integration, ConvergenceAblationPreservesDecisions) {
  const WorkloadSpec spec = bible_workload();
  Prng prng(45);
  const std::string text = spec.text(20'000, prng);
  const Engine engine(Pattern::from_nfa(glushkov_nfa(spec.regex())), {.threads = 6});
  const std::vector<Symbol> input = engine.translate(text);
  EXPECT_EQ(engine.recognize(input, {.variant = Variant::kDfa, .chunks = 16}).accepted,
            engine.accepts(input));
  // Convergence is a kernel-level choice: replay the DFA device's reach
  // phase chunk by chunk both ways. Every chunk's λ is the same; merging
  // can only save work.
  const Dfa& dfa = engine.pattern().min_dfa();
  std::vector<State> all(static_cast<std::size_t>(dfa.num_states()));
  std::iota(all.begin(), all.end(), 0);
  const std::vector<State> first{dfa.initial()};
  std::uint64_t independent = 0;
  std::uint64_t convergent = 0;
  for (const ChunkSpan& span : split_chunks(input.size(), 16)) {
    const auto chunk = std::span<const Symbol>(input).subspan(span.begin, span.length);
    const std::span<const State> starts = span.begin == 0 ? first : all;
    const DetChunkResult a = run_chunk_det(dfa, chunk, starts, {.convergence = false});
    const DetChunkResult b = run_chunk_det(dfa, chunk, starts, {.convergence = true});
    EXPECT_EQ(a.lambda, b.lambda) << "chunk at " << span.begin;
    independent += a.transitions;
    convergent += b.transitions;
  }
  EXPECT_LE(convergent, independent);
}

}  // namespace
}  // namespace rispar
