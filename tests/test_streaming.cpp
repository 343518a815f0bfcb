#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "automata/glushkov.hpp"
#include "automata/minimize.hpp"
#include "automata/random_nfa.hpp"
#include "automata/subset.hpp"
#include "core/serial_match.hpp"
#include "helpers.hpp"
#include "parallel/match_count.hpp"
#include "regex/parser.hpp"
#include "workloads/suite.hpp"

namespace rispar {
namespace {

TEST(Streaming, EmptyStreamDecidedByInitialFinality) {
  const QueryOptions options{.variant = Variant::kRid, .chunks = 4};
  const Engine star(Pattern::compile("a*"), {.threads = 2});
  const Engine plus(Pattern::compile("a+"), {.threads = 2});
  EXPECT_TRUE(star.stream(options).accepted());
  EXPECT_FALSE(plus.stream(options).accepted());
}

TEST(Streaming, SingleWindowEqualsOneShot) {
  const Engine engine(Pattern::from_nfa(testing::fig1_nfa()), {.threads = 4});
  StreamSession stream = engine.stream({.variant = Variant::kRid, .chunks = 2});
  stream.feed(testing::to_bytes(engine.pattern().symbols(), testing::fig1_string()));
  EXPECT_TRUE(stream.accepted());
  EXPECT_EQ(stream.windows(), 1u);
}

TEST(Streaming, EmptyWindowIsANoop) {
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
  StreamSession stream = engine.stream({.variant = Variant::kRid, .chunks = 2});
  stream.feed(std::string_view{});
  EXPECT_TRUE(stream.accepted());  // still the empty string
  EXPECT_EQ(stream.windows(), 0u);
}

TEST(Streaming, DeadStreamShortCircuits) {
  const Engine engine(Pattern::compile("a+"), {.threads = 2});
  for (const Variant variant : {Variant::kDfa, Variant::kNfa, Variant::kRid,
                                Variant::kSfa}) {
    StreamSession stream = engine.stream({.variant = variant, .chunks = 2});
    // An unmapped byte kills every run.
    const SymbolMap& map = engine.pattern().symbols();
    stream.feed(testing::to_bytes(map, {SymbolMap::kUnmapped}));
    EXPECT_TRUE(stream.dead()) << variant_name(variant);
    stream.feed(testing::to_bytes(map, {0, 0}));
    EXPECT_FALSE(stream.accepted()) << variant_name(variant);
  }
}

TEST(Streaming, ResetStartsOver) {
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
  StreamSession stream = engine.stream({.variant = Variant::kRid, .chunks = 2});
  stream.feed("a");  // not a member
  EXPECT_FALSE(stream.accepted());
  stream.reset();
  EXPECT_TRUE(stream.accepted());
  stream.feed("ab");
  EXPECT_TRUE(stream.accepted());
}

class StreamingProperty : public ::testing::TestWithParam<std::uint64_t> {};

// The window-segmentation equivalence property: feeding a text in any
// segmentation yields the same decision as the one-shot recognizer, for
// every variant's streaming session.
TEST_P(StreamingProperty, AnySegmentationMatchesOneShotOracle) {
  Prng prng(GetParam());
  RandomNfaConfig config;
  config.num_states = 6 + static_cast<std::int32_t>(prng.pick_index(20));
  config.num_symbols = 2 + static_cast<std::int32_t>(prng.pick_index(3));
  const Nfa nfa = random_nfa(prng, config);
  const Engine engine(Pattern::from_nfa(nfa), {.threads = 4});
  const Dfa oracle = minimize_dfa(determinize(nfa));

  for (int trial = 0; trial < 10; ++trial) {
    const auto input =
        testing::random_word(prng, nfa.num_symbols(), 1 + prng.pick_index(120));
    const std::string bytes = testing::to_bytes(engine.pattern().symbols(), input);
    StreamSession stream = engine.stream({.variant = Variant::kRid, .chunks = 3});
    // Random segmentation into windows.
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      const std::size_t take =
          std::min(bytes.size() - offset, 1 + prng.pick_index(30));
      stream.feed(std::string_view(bytes).substr(offset, take));
      offset += take;
    }
    EXPECT_EQ(stream.accepted(), oracle.accepts(input)) << "trial " << trial;
  }
}

TEST_P(StreamingProperty, WorkloadTextsStreamCorrectly) {
  Prng prng(GetParam() ^ 0x5eed);
  const auto suite = benchmark_suite();
  const auto& spec = suite[GetParam() % suite.size()];
  const Engine engine(Pattern::from_nfa(glushkov_nfa(spec.regex())), {.threads = 4});
  const std::string text = spec.text(20'000, prng);

  StreamSession stream = engine.stream({.variant = Variant::kRid, .chunks = 8});
  for (std::size_t offset = 0; offset < text.size(); offset += 4096)
    stream.feed(std::string_view(text).substr(offset, 4096));
  EXPECT_TRUE(stream.accepted()) << spec.name;
  EXPECT_GE(stream.transitions(), text.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingProperty,
                         ::testing::Range<std::uint64_t>(0, 15));

// ------------------------------------------------------------ streaming find
// (ISSUE 4): positions sessions emit Match records incrementally, with
// absolute byte offsets stable across arbitrary window boundaries; the
// one-shot find_all / serial scan are the oracles (the deep sweep lives in
// the differential fuzz driver, tests/test_fuzz.cpp).

std::vector<Match> stream_collect(const Engine& engine, std::string_view text,
                                  std::span<const std::size_t> cuts,
                                  const QueryOptions& options) {
  StreamSession stream = engine.stream(options);
  std::vector<Match> collected;
  std::size_t offset = 0;
  for (const std::size_t cut : cuts) {
    stream.feed(text.substr(offset, cut - offset));
    for (const Match& m : stream.take_matches()) collected.push_back(m);
    offset = cut;
  }
  stream.feed(text.substr(offset));
  for (const Match& m : stream.take_matches()) collected.push_back(m);
  return collected;
}

TEST(StreamFind, PositionedMatchesAcrossWindows) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const QueryOptions options{.chunks = 2, .positions = true};
  // "xxabyab" split so the first occurrence straddles the window boundary.
  const std::vector<std::size_t> cuts{3};
  const std::vector<Match> matches = stream_collect(engine, "xxabyab", cuts, options);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], (Match{0, 2, 4}));
  EXPECT_EQ(matches[1], (Match{0, 5, 7}));
  EXPECT_EQ(matches, engine.find_all("xxabyab"));
}

TEST(StreamFind, BeginMayPredateTheResidentWindow) {
  // "aaaa" for pattern "aa": every begin is the stream-global separator 0,
  // even for matches emitted from later windows — the carried separator
  // resolves begins into windows long gone.
  const Engine engine(Pattern::compile("aa"), {.threads = 2});
  StreamSession stream = engine.stream({.positions = true});
  stream.feed("aa");
  stream.feed("a");
  stream.feed("a");
  const std::vector<Match> matches = stream.take_matches();
  ASSERT_EQ(matches.size(), 3u);
  for (std::size_t i = 0; i < matches.size(); ++i) {
    EXPECT_EQ(matches[i].begin, 0u);
    EXPECT_EQ(matches[i].end, i + 2);
  }
  EXPECT_EQ(matches, engine.find_all("aaaa"));
}

TEST(StreamFind, SinkDrainsWithoutBuffering) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  StreamSession stream = engine.stream({.positions = true});
  std::vector<Match> seen;
  const MatchSink sink = [&](const Match& m) { seen.push_back(m); };
  stream.feed("abab", sink);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(stream.matches(), 2u);
  // Nothing accumulated in the session — the sink already drained it.
  EXPECT_TRUE(stream.take_matches().empty());
  // The two drain shapes interleave: buffered feeds buffer, sink feeds don't.
  stream.feed("ab");
  ASSERT_EQ(stream.take_matches().size(), 1u);
  EXPECT_EQ(stream.matches(), 3u);
}

TEST(StreamFind, MatchesKeepFlowingAfterTheDecisionDies) {
  // The decision (whole-stream membership of a+) dies on the first 'b';
  // occurrence search does not — substring matches outlive membership.
  const Engine engine(Pattern::compile("a+"), {.threads = 2});
  StreamSession stream = engine.stream({.positions = true});
  stream.feed("b");
  EXPECT_TRUE(stream.dead());
  EXPECT_FALSE(stream.accepted());
  stream.feed("aa");
  EXPECT_TRUE(stream.dead());  // still decision-dead
  const std::vector<Match> matches = stream.take_matches();
  ASSERT_EQ(matches.size(), 2u);  // "a" ending at 2, "aa"/"a" ending at 3
  EXPECT_EQ(matches[0].end, 2u);
  EXPECT_EQ(matches[1].end, 3u);
  EXPECT_EQ(matches, engine.find_all("baa"));
}

TEST(StreamFind, EveryVariantServesPositions) {
  const Engine engine(Pattern::compile("(ab|ba)"), {.threads = 2});
  const std::vector<Match> oracle = engine.find_all("xabbax");
  ASSERT_EQ(oracle.size(), 2u);
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa}) {
    const std::vector<std::size_t> cuts{2, 3};
    const std::vector<Match> matches = stream_collect(
        engine, "xabbax", cuts, {.variant = variant, .chunks = 2, .positions = true});
    EXPECT_EQ(matches, oracle) << variant_name(variant);
  }
}

TEST(StreamFind, ResetForgetsFindStateAndPendingMatches) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  StreamSession stream = engine.stream({.positions = true});
  stream.feed("ab");
  EXPECT_EQ(stream.matches(), 1u);
  stream.reset();
  EXPECT_TRUE(stream.take_matches().empty());
  EXPECT_EQ(stream.matches(), 0u);
  EXPECT_EQ(stream.bytes_consumed(), 0u);
  // Offsets restart from zero after reset.
  stream.feed("xab");
  const std::vector<Match> matches = stream.take_matches();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (Match{0, 1, 3}));
}

// --------------------------------------------------------- session misuse
// (ISSUE 4 satellite): the reject-don't-ignore contract on streaming
// shapes, zero-length windows, and feeding past a rejecting state.

TEST(StreamMisuse, PagingKnobsRejectedOnStreamingShapes) {
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa}) {
    // Per DeviceCaps: no streaming device honors offset/limit — an
    // unbounded stream has no total to page against.
    EXPECT_THROW(engine.stream({.variant = variant, .offset = 1}), QueryError)
        << variant_name(variant);
    EXPECT_THROW(engine.stream({.variant = variant, .limit = 5}), QueryError)
        << variant_name(variant);
    EXPECT_THROW(
        engine.stream({.variant = variant, .limit = 5, .positions = true}),
        QueryError)
        << variant_name(variant);
  }
  // The kernel-layer entry rejects too (direct callers, same contract).
  const Dfa& searcher = engine.searcher();
  FindCarry carry;
  const MappedBytes window("a", searcher.symbols());
  const MatchSink sink = [](const Match&) {};
  EXPECT_THROW(stream_find_feed(searcher, carry, window, engine.pool(),
                                {.limit = 2, .positions = true}, sink),
               QueryError);
}

TEST(StreamMisuse, PositionsRejectedWhereNotHonored) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  // One-shot decision shapes have no positions payload: REJECT via
  // DeviceCaps, never a silent ignore. find() honors it (implied knob).
  EXPECT_THROW(engine.recognize("ab", {.positions = true}), QueryError);
  EXPECT_THROW(engine.count("ab", {.positions = true}), QueryError);
  const std::vector<std::string_view> texts{"ab"};
  EXPECT_THROW(engine.match_all(texts, {.positions = true}), QueryError);
  EXPECT_NO_THROW(engine.find("ab", {.positions = true}));
}

TEST(StreamMisuse, DrainsRequireAPositionsSession) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  StreamSession stream = engine.stream();  // decision-only session
  stream.feed("ab");
  EXPECT_THROW((void)stream.take_matches(), QueryError);
  const MatchSink sink = [](const Match&) {};
  EXPECT_THROW(stream.feed("ab", sink), QueryError);
  EXPECT_FALSE(stream.finds_positions());
}

TEST(StreamMisuse, ZeroLengthWindowsAreNoopsEverywhere) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  StreamSession stream = engine.stream({.chunks = 4, .positions = true});
  stream.feed("a");
  stream.feed("");
  stream.feed(std::string_view{});
  EXPECT_EQ(stream.windows(), 1u);
  EXPECT_EQ(stream.bytes_consumed(), 1u);
  stream.feed("b");
  const std::vector<Match> matches = stream.take_matches();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], (Match{0, 0, 2}));  // offsets unperturbed by no-ops
}

// Satellite of the governance layer: a feed that fails mid-window
// (deadline, cancellation, injected fault) leaves the carry inconsistent,
// so the session poisons — deterministically rejecting further feeds until
// reset() — while everything already consistent stays readable. See the
// StreamSession class comment in engine/engine.hpp.
TEST(StreamPoisoning, CancelMidSessionPoisonsButBufferedMatchesDrain) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa}) {
    CancelSource source;
    QueryOptions options{.variant = variant, .chunks = 2, .positions = true};
    options.cancel = source.token();
    StreamSession stream = engine.stream(options);

    stream.feed("abab");  // live token: the window runs and buffers matches
    EXPECT_FALSE(stream.poisoned()) << variant_name(variant);

    source.request_cancel();
    EXPECT_THROW(stream.feed("abab"), QueryCancelled) << variant_name(variant);
    EXPECT_TRUE(stream.poisoned()) << variant_name(variant);

    // Further feeds reject deterministically — ValidationError, not a
    // fresh governance trip — and repeatably.
    EXPECT_THROW(stream.feed("ab"), ValidationError) << variant_name(variant);
    EXPECT_THROW(stream.feed("ab"), ValidationError) << variant_name(variant);

    // What was consistent before the trip stays readable and drainable
    // (windows() may count the aborted attempt — the carry is mid-window,
    // which is exactly why the session poisons).
    (void)stream.accepted();
    (void)stream.dead();
    const std::vector<Match> drained = stream.take_matches();
    ASSERT_EQ(drained.size(), 2u) << variant_name(variant);
    EXPECT_EQ(drained[0].end, 2u);  // begin is the documented last-separator
    EXPECT_EQ(drained[1].end, 4u);  // over-approximation — assert ends only
  }  // destruction of every poisoned session is clean (ASan leg runs this)
}

TEST(StreamPoisoning, ResetClearsPoisonAndTheSessionIsReusable) {
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
  QueryOptions options{.chunks = 2};
  options.deadline = std::chrono::nanoseconds(1);  // trips every feed
  StreamSession stream = engine.stream(options);
  EXPECT_THROW(stream.feed("ab"), DeadlineExceeded);
  EXPECT_TRUE(stream.poisoned());
  EXPECT_THROW(stream.feed("ab"), ValidationError);

  stream.reset();
  EXPECT_FALSE(stream.poisoned());
  // The per-feed budget still trips, but as a FRESH governance error — the
  // reset demonstrably cleared the poison (the error type changed back).
  EXPECT_THROW(stream.feed("ab"), DeadlineExceeded);
  EXPECT_TRUE(stream.poisoned());
}

TEST(StreamPoisoning, ShapePreconditionRejectsNeverPoison) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  StreamSession stream = engine.stream();  // decision-only session
  EXPECT_THROW((void)stream.take_matches(), ValidationError);
  const MatchSink sink = [](const Match&) {};
  EXPECT_THROW(stream.feed("ab", sink), ValidationError);
  EXPECT_FALSE(stream.poisoned());  // nothing ran — the carry is untouched
  stream.feed("ab");  // the session still works
  EXPECT_TRUE(stream.accepted());
}

TEST(StreamMisuse, FeedingAfterARejectingStateStaysRejected) {
  const Engine engine(Pattern::compile("(ab)+"), {.threads = 2});
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa}) {
    StreamSession stream = engine.stream({.variant = variant, .chunks = 2});
    stream.feed("ab");
    EXPECT_TRUE(stream.accepted()) << variant_name(variant);
    stream.feed("x");  // byte outside the pattern's classes: every run dies
    EXPECT_TRUE(stream.dead()) << variant_name(variant);
    // Feeding past the rejecting state is legal and stays rejected — no
    // crash, no resurrection, window accounting still advances.
    const std::uint64_t windows_before = stream.windows();
    stream.feed("abab");
    EXPECT_FALSE(stream.accepted()) << variant_name(variant);
    EXPECT_TRUE(stream.dead()) << variant_name(variant);
    EXPECT_EQ(stream.windows(), windows_before + 1) << variant_name(variant);
  }
}

}  // namespace
}  // namespace rispar
