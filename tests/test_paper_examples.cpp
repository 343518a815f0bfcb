// End-to-end checks of the paper's worked examples: the transition totals
// of Fig. 1 (min-DFA 15 / NFA 14 / RI-DFA 9 on "aabcab" in two chunks), the
// CSDPA run of Fig. 2, the join of Fig. 4, and exact-begin (reverse-DFA)
// resolution on the Fig. 2 language with hand-computed leftmost offsets.
#include <gtest/gtest.h>

#include "automata/minimize.hpp"
#include "automata/subset.hpp"
#include "core/interface_min.hpp"
#include "core/ridfa.hpp"
#include "core/serial_match.hpp"
#include "engine/engine.hpp"
#include "helpers.hpp"
#include "parallel/csdpa.hpp"

namespace rispar {
namespace {

class PaperExamples : public ::testing::Test {
 protected:
  Nfa nfa_ = testing::fig1_nfa();
  Dfa min_dfa_ = minimize_dfa(determinize(nfa_));
  Ridfa ridfa_ = build_ridfa(nfa_);
  ThreadPool pool_{2};
  std::vector<Symbol> input_ = testing::fig1_string();  // a a b | c a b
  QueryOptions two_chunks_{.chunks = 2};
};

TEST_F(PaperExamples, MinDfaHasFourStatesAndRidfaFive) {
  EXPECT_EQ(min_dfa_.num_states(), 4);
  EXPECT_EQ(ridfa_.num_states(), 5);
  EXPECT_EQ(ridfa_.initial_count(), 3);
}

TEST_F(PaperExamples, AllDevicesAcceptTheSampleString) {
  EXPECT_TRUE(DfaDevice(min_dfa_).recognize(input_, pool_, two_chunks_).accepted);
  EXPECT_TRUE(NfaDevice(nfa_).recognize(input_, pool_, two_chunks_).accepted);
  EXPECT_TRUE(RidDevice(ridfa_).recognize(input_, pool_, two_chunks_).accepted);
}

TEST_F(PaperExamples, Fig1TransitionCountDfaIs15) {
  const QueryResult stats =
      DfaDevice(min_dfa_).recognize(input_, pool_, two_chunks_);
  EXPECT_EQ(stats.transitions, 15u);
}

TEST_F(PaperExamples, Fig1TransitionCountNfaIs14) {
  const QueryResult stats =
      NfaDevice(nfa_).recognize(input_, pool_, two_chunks_);
  EXPECT_EQ(stats.transitions, 14u);
}

TEST_F(PaperExamples, Fig1TransitionCountRidfaIs9) {
  const QueryResult stats =
      RidDevice(ridfa_).recognize(input_, pool_, two_chunks_);
  EXPECT_EQ(stats.transitions, 9u);
}

TEST_F(PaperExamples, SerialDfaDoesExactlyNTransitions) {
  const QueryOptions serial{.chunks = 1};
  const QueryResult stats = DfaDevice(min_dfa_).recognize(input_, pool_, serial);
  EXPECT_EQ(stats.transitions, input_.size());
  EXPECT_TRUE(stats.accepted);
}

TEST_F(PaperExamples, RejectionIsSharedByAllDevices) {
  // "aabcaa" is not in the language (swap last b for a).
  const std::vector<Symbol> bad{0, 0, 1, 2, 0, 0};
  EXPECT_FALSE(DfaDevice(min_dfa_).recognize(bad, pool_, two_chunks_).accepted);
  EXPECT_FALSE(NfaDevice(nfa_).recognize(bad, pool_, two_chunks_).accepted);
  EXPECT_FALSE(RidDevice(ridfa_).recognize(bad, pool_, two_chunks_).accepted);
}

// Fig. 2: CSDPA with the 2-state DFA on "bab|aaa": nine transitions total
// (chunk 1 runs once from q0 = 3; chunk 2 runs from both states = 6).
TEST(PaperFig2, NineTransitionsAndAccepted) {
  const Dfa dfa = testing::fig2_dfa();
  ThreadPool pool(2);
  const std::vector<Symbol> input{1, 0, 1, 0, 0, 0};  // b a b a a a
  const QueryOptions options{.chunks = 2};
  const QueryResult stats = DfaDevice(dfa).recognize(input, pool, options);
  EXPECT_TRUE(stats.accepted);
  EXPECT_EQ(stats.transitions, 9u);
}

// Fig. 4: the interface function in the two-chunk join. After chunk 1
// ("aab"), PLAS = {{0,2}}; after chunk 2 ("cab") it is {{0,2}} again, which
// is final, so the input is accepted even though the run from {2} dies and
// the run from {1} is filtered out by if(PLAS1) ∩ PIS2 = {{0}}... the run
// from {1} DOES survive but {1} ∉ if(PLAS1) = {{0},{2}}.
TEST(PaperFig4, JoinFiltersThroughInterface) {
  const Nfa nfa = testing::fig1_nfa();
  const Ridfa ridfa = build_ridfa(nfa);
  // Manual reach phase for chunk 2 = "cab" from all three interface states.
  const std::vector<Symbol> chunk2{2, 0, 1};
  std::uint64_t transitions = 0;
  const State from0 = run_dfa_span(ridfa.dfa(), ridfa.singleton(0), chunk2.data(), 3,
                                   transitions);
  const State from1 = run_dfa_span(ridfa.dfa(), ridfa.singleton(1), chunk2.data(), 3,
                                   transitions);
  const State from2 = run_dfa_span(ridfa.dfa(), ridfa.singleton(2), chunk2.data(), 3,
                                   transitions);
  EXPECT_EQ(ridfa.contents(from0), (std::vector<State>{0, 2}));
  EXPECT_EQ(ridfa.contents(from1), (std::vector<State>{0, 2}));
  EXPECT_EQ(from2, kDeadState);  // {2} has no c-transition
  EXPECT_EQ(transitions, 6u);    // 3 + 3 + 0
}

// ------------------------------------------------ exact begins (ISSUE 9)
// Leftmost offsets below are hand-computed from the language definitions;
// the fuzz driver covers the same property at scale, these pin the paper's
// own examples as human-checkable regressions.

/// (begin, end) pairs of a find result, for terse literal comparisons.
std::vector<std::pair<std::uint64_t, std::uint64_t>> spans(const QueryResult& r) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const Match& m : r.positions) out.emplace_back(m.begin, m.end);
  return out;
}

// Fig. 2's language L = b*a(ab*a | b+a)* on its own sample string "babaaa".
// Matches end at 2, 4, 5 and 6; hand-derived leftmost starts:
//   end 2: "ba" ∈ L (b* = "b")                      -> begin 0
//   end 4: "baba" ∈ L ("b", a, then b+a = "ba")     -> begin 0
//   end 5: only "a" (at 4) ∈ L among suffixes       -> begin 4
//   end 6: "babaaa" ∈ L ("b", a, "ba", then "aa")   -> begin 0
TEST(PaperExactBegins, Fig2LanguageLeftmostStarts) {
  const Engine engine(Pattern::compile("b*a(ab*a|b+a)*"), {.threads = 2});
  const QueryResult exact =
      engine.find("babaaa", {.chunks = 2, .begin_mode = BeginMode::kExact});
  EXPECT_EQ(spans(exact),
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {0, 2}, {0, 4}, {4, 5}, {0, 6}}));
  // Same ends as the default separator mode — the mode changes only begins.
  const QueryResult separator = engine.find("babaaa", {.chunks = 2});
  ASSERT_EQ(separator.positions.size(), exact.positions.size());
  for (std::size_t i = 0; i < exact.positions.size(); ++i)
    EXPECT_EQ(separator.positions[i].end, exact.positions[i].end);
}

// The chaining example from the CLI docs: "aa" in "aaaa". Separator mode
// documents begins that extend left through the overlap chain; exact mode
// pins each match to exactly its two bytes.
TEST(PaperExactBegins, OverlapChainPinsToTwoBytes) {
  const Engine engine(Pattern::compile("aa"), {.threads = 2});
  const QueryResult exact =
      engine.find("aaaa", {.begin_mode = BeginMode::kExact});
  EXPECT_EQ(spans(exact),
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {0, 2}, {1, 3}, {2, 4}}));
}

// The soundness-certificate counterexample (a|ba): determinization merges a
// live-progress subset into the restart class, so the separator is NOT a
// sound reverse-scan floor — the certificate must say so, and exact
// resolution must still find begins LEFT of the recorded separator.
TEST(PaperExactBegins, SeparatorPurityCertificate) {
  const Pattern hazard = Pattern::compile("a|ba");
  EXPECT_FALSE(hazard.reverse_begins().separators_sound);
  const Engine engine(hazard, {.threads = 2});
  const QueryResult exact =
      engine.find("aba", {.begin_mode = BeginMode::kExact});
  // "a" ends at 1 (begin 0); "ba" and "a" both end at 3 — leftmost is 1.
  EXPECT_EQ(spans(exact),
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{{0, 1}, {1, 3}}));

  // A pattern with no such merge keeps the certificate (and the cheap
  // truncation path that rides on it).
  EXPECT_TRUE(Pattern::compile("ab").reverse_begins().separators_sound);
}

// Streaming exact begins across the paper's own two-chunk split of Fig. 2:
// feeding "bab" then "aaa" emits the one-shot list, with the begins of the
// window-2 matches reaching back into window 1.
TEST(PaperExactBegins, Fig2StreamingBeginsCrossTheChunkBoundary) {
  const Engine engine(Pattern::compile("b*a(ab*a|b+a)*"), {.threads = 2});
  StreamSession stream =
      engine.stream({.positions = true, .begin_mode = BeginMode::kExact});
  stream.feed("bab");
  stream.feed("aaa");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> collected;
  for (const Match& m : stream.take_matches()) collected.emplace_back(m.begin, m.end);
  EXPECT_EQ(collected,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {0, 2}, {0, 4}, {4, 5}, {0, 6}}));
  EXPECT_TRUE(stream.accepted());
}

}  // namespace
}  // namespace rispar
