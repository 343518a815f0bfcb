// Session checkpoint/resume (engine/checkpoint.hpp): round trips across
// engines and begin modes, the reject taxonomy, and blob integrity. The
// randomized segmentation × kill-point sweep lives in tests/test_fuzz.cpp
// (CheckpointFuzz); these are the deterministic unit cases.
#include "engine/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bundle/format.hpp"
#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "util/prng.hpp"

namespace rispar {
namespace {

std::vector<Match> drain_full(const Engine& engine, std::string_view text,
                              const QueryOptions& options) {
  StreamSession session = engine.stream(options);
  session.feed(text);
  return session.take_matches();
}

TEST(Checkpoint, ResumeContinuesByteExact) {
  const std::string text = "xx ababab yy abab z ab ababab";
  for (const BeginMode mode : {BeginMode::kSeparator, BeginMode::kExact}) {
    const QueryOptions options{.chunks = 3, .positions = true, .begin_mode = mode};
    const Engine engine(Pattern::compile("(ab)+"), {.threads = 2});
    const std::vector<Match> oracle =
        engine.find_all(text, {.chunks = 3, .begin_mode = mode});
    const std::vector<Match> uninterrupted = drain_full(engine, text, options);
    ASSERT_EQ(uninterrupted, oracle) << begin_mode_name(mode);

    for (const std::size_t cut : {std::size_t{0}, std::size_t{5}, std::size_t{13},
                                  text.size()}) {
      StreamSession first = engine.stream(options);
      first.feed(text.substr(0, cut));
      std::vector<Match> collected = first.take_matches();
      const std::string blob = first.checkpoint();

      StreamSession second = engine.resume_stream(blob, options);
      EXPECT_EQ(second.bytes_consumed(), cut);
      second.feed(text.substr(cut));
      for (const Match& match : second.take_matches()) collected.push_back(match);
      EXPECT_EQ(collected, oracle)
          << begin_mode_name(mode) << " cut at " << cut;
    }
  }
}

TEST(Checkpoint, ResumeOnAFreshEngineIsEquivalent) {
  const std::string text = "the cat sat on the mat with a rat";
  const QueryOptions options{.chunks = 2, .positions = true,
                             .begin_mode = BeginMode::kExact};
  const Engine first(Pattern::compile("[a-z]at"), {.threads = 2});
  StreamSession session = first.stream(options);
  session.feed(text.substr(0, 14));
  std::vector<Match> collected = session.take_matches();
  const std::string blob = session.checkpoint();

  // A different Engine over the same source — the cross-process shape.
  const Engine second(Pattern::compile("[a-z]at"), {.threads = 2});
  StreamSession resumed = second.resume_stream(blob, options);
  resumed.feed(text.substr(14));
  for (const Match& match : resumed.take_matches()) collected.push_back(match);
  EXPECT_EQ(collected, second.find_all(text, {.begin_mode = BeginMode::kExact}));
}

TEST(Checkpoint, DecisionOnlySessionsRoundTrip) {
  const std::string text = "abababab";
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa}) {
    const QueryOptions options{.variant = variant, .chunks = 2};
    const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
    StreamSession session = engine.stream(options);
    session.feed(text.substr(0, 3));
    const std::string blob = session.checkpoint();
    StreamSession resumed = engine.resume_stream(blob, options);
    EXPECT_EQ(resumed.accepted(), session.accepted()) << variant_name(variant);
    resumed.feed(text.substr(3));
    session.feed(text.substr(3));
    EXPECT_EQ(resumed.accepted(), session.accepted()) << variant_name(variant);
    EXPECT_TRUE(resumed.accepted()) << variant_name(variant);
  }
}

TEST(Checkpoint, FreshSessionCheckpointResumesFresh) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const QueryOptions options{.positions = true};
  StreamSession fresh = engine.stream(options);
  StreamSession resumed = engine.resume_stream(fresh.checkpoint(), options);
  EXPECT_EQ(resumed.bytes_consumed(), 0u);
  resumed.feed("xaby");
  EXPECT_EQ(resumed.take_matches(), engine.find_all("xaby"));
}

TEST(Checkpoint, MultiPatternRoundTrip) {
  const std::string text = "error: timeout after 30ms, then error again";
  for (const BeginMode mode : {BeginMode::kSeparator, BeginMode::kExact}) {
    const QueryOptions options{.chunks = 2, .begin_mode = mode};
    const PatternSet set =
        PatternSet::compile({"error", "[0-9]+ms", "after|then"}, {.threads = 2});
    const std::vector<Match> oracle = set.find_all(text, options);

    MultiStreamSession session = set.stream_find(options);
    session.feed(text.substr(0, 21));
    std::vector<Match> collected = session.take_matches();
    const std::string blob = session.checkpoint();

    MultiStreamSession resumed = set.resume_stream(blob, options);
    EXPECT_EQ(resumed.bytes_consumed(), 21u);
    resumed.feed(text.substr(21));
    for (const Match& match : resumed.take_matches()) collected.push_back(match);
    EXPECT_EQ(collected, oracle) << begin_mode_name(mode);
  }
}

TEST(Checkpoint, UndrainedMatchesReject) {
  const Engine engine(Pattern::compile("a"), {.threads = 2});
  StreamSession session = engine.stream({.positions = true});
  session.feed("aaa");
  EXPECT_THROW((void)session.checkpoint(), ValidationError);
  (void)session.take_matches();
  EXPECT_NO_THROW((void)session.checkpoint());
}

TEST(Checkpoint, WrongPatternRejects) {
  const QueryOptions options{.positions = true};
  const Engine cats(Pattern::compile("cat"), {.threads = 2});
  const Engine dogs(Pattern::compile("dog"), {.threads = 2});
  StreamSession session = cats.stream(options);
  session.feed("the cat");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();
  EXPECT_THROW((void)dogs.resume_stream(blob, options), ValidationError);
  EXPECT_NO_THROW((void)cats.resume_stream(blob, options));
}

TEST(Checkpoint, SessionShapeMismatchesReject) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const QueryOptions options{.variant = Variant::kRid, .chunks = 2,
                             .positions = true};
  StreamSession session = engine.stream(options);
  session.feed("xabx");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();

  QueryOptions wrong_variant = options;
  wrong_variant.variant = Variant::kDfa;
  EXPECT_THROW((void)engine.resume_stream(blob, wrong_variant), ValidationError);

  QueryOptions wrong_positions = options;
  wrong_positions.positions = false;
  EXPECT_THROW((void)engine.resume_stream(blob, wrong_positions), ValidationError);

  QueryOptions wrong_mode = options;
  wrong_mode.begin_mode = BeginMode::kExact;
  EXPECT_THROW((void)engine.resume_stream(blob, wrong_mode), ValidationError);
}

TEST(Checkpoint, SingleAndMultiBlobsDoNotCross) {
  const QueryOptions options{.positions = true};
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const PatternSet set = PatternSet::compile({"ab"}, {.threads = 2});
  StreamSession single = engine.stream(options);
  MultiStreamSession multi = set.stream_find({});
  EXPECT_THROW((void)set.resume_stream(single.checkpoint(), {}), ValidationError);
  EXPECT_THROW((void)engine.resume_stream(multi.checkpoint(), options),
               ValidationError);
}

TEST(Checkpoint, VersionOneBlobRejects) {
  // A well-formed blob in the retired version 1 layout — a fresh
  // single-pattern session's: kind byte, pattern fingerprint, decision
  // carry, one find carry, valid checksum — must reject typed.
  const Pattern pattern = Pattern::compile("ab");
  const auto put = [](std::string& out, std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>(value >> (8 * i)));
  };
  std::string blob;
  put(blob, checkpoint::kMagic, 4);
  put(blob, 1, 4);  // version 1
  put(blob, 1, 1);  // kind: single stream
  put(blob, static_cast<std::uint64_t>(Variant::kRid), 1);
  put(blob, 1, 1);  // positions
  put(blob, static_cast<std::uint64_t>(BeginMode::kSeparator), 1);
  put(blob, checkpoint::pattern_fingerprint(pattern), 8);
  put(blob, 1, 1);   // at_start
  put(blob, 0, 8);   // transitions
  put(blob, 0, 8);   // windows
  put(blob, 0, 4);   // no decision states
  encode_find_carry(FindCarry{}, blob);
  put(blob, bundle::checksum64(blob.data(), blob.size()), 8);

  const Engine engine(pattern, {.threads = 2});
  EXPECT_THROW((void)engine.resume_stream(blob, {.positions = true}), ValidationError);
  const PatternSet set({pattern}, {.threads = 2});
  EXPECT_THROW((void)set.resume_stream(blob, {}), ValidationError);

  // A well-formed blob in the retired version 2 layout — a kExact
  // find-only session that consumed "ab", its history a u32 per symbol —
  // must reject too. The same blob with version 3's byte history resumes,
  // so the version alone decides.
  const Dfa& searcher = pattern.searcher();
  const auto find_only = [&](std::uint32_t version) {
    std::string out;
    put(out, checkpoint::kMagic, 4);
    put(out, version, 4);
    put(out, 0, 1);  // no decision variant
    put(out, 1, 1);  // positions
    put(out, static_cast<std::uint64_t>(BeginMode::kExact), 1);
    put(out, checkpoint::fleet_fingerprint(std::span(&pattern, 1)), 8);
    put(out, 0, 1);  // has_decision
    put(out, 2, 8);  // consumed
    put(out, 1, 4);  // one find carry
    put(out, static_cast<std::uint64_t>(searcher.initial()), 4);
    put(out, 0, 1);  // at_start
    put(out, 0, 1);  // died
    put(out, 2, 8);  // consumed
    put(out, 0, 8);  // last_sep
    put(out, 0, 8);  // matches
    put(out, 2, 8);  // transitions
    put(out, 0, 8);  // history_base
    put(out, 2, 8);  // two retained stream positions
    for (const char byte : std::string_view("ab")) {
      if (version == 2)
        put(out, static_cast<std::uint64_t>(searcher.symbols().symbol_of(byte)), 4);
      else
        put(out, static_cast<unsigned char>(byte), 1);
    }
    put(out, bundle::checksum64(out.data(), out.size()), 8);
    return out;
  };
  const QueryOptions exact{.begin_mode = BeginMode::kExact};
  EXPECT_THROW((void)set.resume_stream(find_only(2), exact), ValidationError);
  MultiStreamSession resumed = set.resume_stream(find_only(3), exact);
  resumed.feed("xab");
  EXPECT_EQ(resumed.take_matches(), (std::vector<Match>{{0, 3, 5}}));
}

TEST(Checkpoint, ExactHistoryIsOneBytePerRetainedByte) {
  // "a|ba" has unsound separators, so a kExact session retains the whole
  // stream: the blob's history section is exactly the bytes fed, stored
  // raw. A find-only blob is 94 bytes besides the history: the 19-byte
  // header, has_decision, consumed, the carry count, the 54 fixed bytes of
  // the find carry and the checksum.
  const PatternSet set = PatternSet::compile({"a|ba"}, {.threads = 2});
  ASSERT_FALSE(set.pattern(0).reverse_begins().separators_sound);
  const QueryOptions options{.chunks = 2, .begin_mode = BeginMode::kExact};
  MultiStreamSession session = set.stream_find(options);
  std::string fed;
  for (const std::string_view window : {"xxbab", "", "zbaab", "q"}) {
    session.feed(window);
    (void)session.take_matches();
    fed += window;
    const std::string blob = session.checkpoint();
    EXPECT_EQ(blob.size(), 94 + fed.size());
    const State states[] = {set.pattern(0).searcher().num_states()};
    const checkpoint::Image image = checkpoint::decode(
        blob, {.positions = true, .begin_mode = BeginMode::kExact}, nullptr, states,
        checkpoint::fleet_fingerprint(std::span(&set.pattern(0), 1)));
    ASSERT_EQ(image.carries.size(), 1u);
    EXPECT_EQ(image.carries[0].history, fed);
  }
}

TEST(Checkpoint, ForgedDecisionStatesReject) {
  // A checksum-valid blob whose decision state lies outside the device's
  // machine must reject at resume, not index past a table at the next feed.
  const Pattern pattern = Pattern::compile("(ab)*c");
  const Engine engine(pattern, {.threads = 2});
  for (const Variant variant : {Variant::kDfa, Variant::kNfa, Variant::kRid,
                                Variant::kSfa}) {
    const QueryOptions options{.variant = variant, .chunks = 2};
    const State limit = engine.device(variant).carry_states();
    // Unsorted and repeated in-range states are harmless: the join folds
    // them like any PLAS.
    const std::vector<std::vector<State>> forgeries{
        {50'000'000}, {limit}, {0, limit}, {limit - 1}, {limit - 1, 0, limit - 1}};
    for (const std::vector<State>& forged : forgeries) {
      SCOPED_TRACE(std::string(variant_name(variant)) + " states from " +
                   std::to_string(forged.front()));
      StreamCarry carry;
      carry.at_start = false;
      carry.windows = 1;
      carry.states = forged;
      const std::string blob = checkpoint::encode(
          &carry, 0, {}, options, checkpoint::fleet_fingerprint(std::span(&pattern, 1)));
      if (std::ranges::all_of(forged, [&](State s) { return s < limit; })) {
        StreamSession resumed = engine.resume_stream(blob, options);
        EXPECT_NO_THROW(resumed.feed("abc"));
      } else {
        EXPECT_THROW((void)engine.resume_stream(blob, options), ValidationError);
      }
    }
  }
}

TEST(Checkpoint, ForgedFindStatesReject) {
  // The same for a find carry: a live carry's state must index the
  // searcher. Fresh and died carries never read theirs, so any value
  // passes there.
  const Pattern pattern = Pattern::compile("ab");
  const PatternSet set({pattern}, {.threads = 2});
  const Engine engine(pattern, {.threads = 2});
  const State limit = pattern.searcher().num_states();
  const std::uint64_t fingerprint =
      checkpoint::fleet_fingerprint(std::span(&pattern, 1));
  for (const State forged : {State{50'000'000}, limit, limit - 1}) {
    for (const bool died : {false, true}) {
      SCOPED_TRACE("state " + std::to_string(forged) + " died " + std::to_string(died));
      FindCarry carry;
      carry.state = forged;
      carry.at_start = false;
      carry.died = died;
      carry.consumed = 2;
      const bool valid = died || forged < limit;
      const QueryOptions options{.positions = true};
      const std::string multi =
          checkpoint::encode(nullptr, 2, std::span(&carry, 1), options, fingerprint);
      const StreamCarry decision;  // fresh: only the find side is forged
      const std::string single =
          checkpoint::encode(&decision, 2, std::span(&carry, 1), options, fingerprint);
      if (valid) {
        MultiStreamSession resumed = set.resume_stream(multi, {});
        EXPECT_NO_THROW(resumed.feed("ab"));
        StreamSession session = engine.resume_stream(single, options);
        EXPECT_NO_THROW(session.feed("ab"));
      } else {
        EXPECT_THROW((void)set.resume_stream(multi, {}), ValidationError);
        EXPECT_THROW((void)engine.resume_stream(single, options), ValidationError);
      }
    }
  }
}

TEST(Checkpoint, FleetSizeAndOrderMismatchReject) {
  const PatternSet pair = PatternSet::compile({"cat", "dog"}, {.threads = 2});
  const PatternSet swapped = PatternSet::compile({"dog", "cat"}, {.threads = 2});
  const PatternSet triple =
      PatternSet::compile({"cat", "dog", "fox"}, {.threads = 2});
  MultiStreamSession session = pair.stream_find({});
  session.feed("a cat and a dog");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();
  EXPECT_THROW((void)swapped.resume_stream(blob, {}), ValidationError);
  EXPECT_THROW((void)triple.resume_stream(blob, {}), ValidationError);
  EXPECT_NO_THROW((void)pair.resume_stream(blob, {}));
}

TEST(Checkpoint, PoisonedSessionsCannotCheckpoint) {
  const Engine engine(Pattern::compile("a+"), {.threads = 2});
  CancelSource cancel;
  cancel.request_cancel();
  StreamSession session =
      engine.stream({.positions = true, .cancel = cancel.token()});
  EXPECT_THROW(session.feed("aaaa"), QueryCancelled);
  ASSERT_TRUE(session.poisoned());
  EXPECT_THROW((void)session.checkpoint(), ValidationError);
}

TEST(Checkpoint, EveryTruncationThrows) {
  const QueryOptions options{.positions = true, .begin_mode = BeginMode::kExact};
  const Engine engine(Pattern::compile("(ab)+"), {.threads = 2});
  StreamSession session = engine.stream(options);
  session.feed("xxabababyy");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(
        (void)engine.resume_stream(std::string_view(blob).substr(0, len), options),
        ValidationError)
        << "truncated to " << len;
  }
}

TEST(Checkpoint, RandomByteFlipsThrow) {
  const QueryOptions options{.chunks = 2, .positions = true,
                             .begin_mode = BeginMode::kExact};
  const Engine engine(Pattern::compile("a(b|c)*d"), {.threads = 2});
  StreamSession session = engine.stream(options);
  session.feed("zabbcbd abcd abd");
  (void)session.take_matches();
  const std::string blob = session.checkpoint();

  Prng prng(77);
  for (int flip = 0; flip < 300; ++flip) {
    std::string corrupt = blob;
    const std::size_t at = prng.pick_index(corrupt.size());
    const char delta = static_cast<char>(1 + prng.pick_index(255));
    corrupt[at] = static_cast<char>(corrupt[at] ^ delta);
    EXPECT_THROW((void)engine.resume_stream(corrupt, options), ValidationError)
        << "flip " << flip << " at byte " << at;
  }
}

TEST(Checkpoint, TrailingBytesReject) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const QueryOptions options{.positions = true};
  StreamSession session = engine.stream(options);
  session.feed("ab");
  (void)session.take_matches();
  std::string blob = session.checkpoint();
  blob.push_back('\0');  // breaks the checksum — still a typed reject
  EXPECT_THROW((void)engine.resume_stream(blob, options), ValidationError);
}

TEST(Checkpoint, FingerprintIsContentNotShape) {
  // "a" and "b" have identical minimal-DFA SHAPES; only the byte classes
  // differ. The fingerprint must still tell them apart.
  EXPECT_NE(checkpoint::pattern_fingerprint(Pattern::compile("a")),
            checkpoint::pattern_fingerprint(Pattern::compile("b")));
  EXPECT_EQ(checkpoint::pattern_fingerprint(Pattern::compile("a(b|c)*")),
            checkpoint::pattern_fingerprint(Pattern::compile("a(b|c)*")));
}

}  // namespace
}  // namespace rispar
