// Byte-path equivalence: every entry point that reads raw bytes through a
// SymbolMap (MappedBytes, the string_view overloads) against its twin over
// the translated symbols — bit-identical decisions, transition counts,
// death flags, λ and positions — and against the serial oracles. The
// sweeps cover chunks 1-8, both walker modes, u8/u16/i32 tables, and
// unmapped bytes at 0, 511, 512, 1023, 1024, at every chunk boundary and
// as the last byte: the walker's block edges, band switches and the lone
// run's inline check all meet an alien byte somewhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/packed_table.hpp"
#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "parallel/ca_run.hpp"
#include "parallel/chunk_walker.hpp"
#include "parallel/chunking.hpp"
#include "parallel/match_count.hpp"
#include "util/prng.hpp"

namespace rispar {
namespace {

constexpr std::size_t kLength = 1600;

/// Where the sweeps plant an unmapped byte in a text of `length` split
/// into `chunks`: the block edges, each chunk boundary and the byte before
/// it, and the last byte.
std::vector<std::size_t> alien_positions(std::size_t length, std::size_t chunks) {
  std::vector<std::size_t> at{0, 511, 512, 1023, 1024, length - 1};
  for (const ChunkSpan& chunk : split_chunks(length, chunks)) {
    if (chunk.begin == 0) continue;
    at.push_back(chunk.begin - 1);
    at.push_back(chunk.begin);
  }
  std::sort(at.begin(), at.end());
  at.erase(std::unique(at.begin(), at.end()), at.end());
  return at;
}

/// `length` bytes drawn from `alphabet`, each byte i with weight[i].
std::string random_text(Prng& prng, std::string_view alphabet,
                        std::initializer_list<std::uint64_t> weights,
                        std::size_t length) {
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  std::string text(length, alphabet[0]);
  for (char& byte : text) {
    std::uint64_t pick = prng.next_below(total);
    std::size_t i = 0;
    for (const std::uint64_t w : weights) {
      if (pick < w) break;
      pick -= w;
      ++i;
    }
    byte = alphabet[i];
  }
  return text;
}

void expect_same(const QueryResult& bytes, const QueryResult& symbols) {
  EXPECT_EQ(bytes.accepted, symbols.accepted);
  EXPECT_EQ(bytes.transitions, symbols.transitions);
  EXPECT_EQ(bytes.died, symbols.died);
  EXPECT_EQ(bytes.matches, symbols.matches);
  EXPECT_EQ(bytes.chunks, symbols.chunks);
  EXPECT_EQ(bytes.positions, symbols.positions);
}

// ------------------------------------------------------------ chunk walker

/// A total permutation-and-halving DFA over 'a' 'b' 'c': a stays, b steps
/// down (0 wraps to the top), c halves. Halving merges runs, so walks
/// cross every step band; every third state is final. The state count
/// picks the packed width: 200 → u8, 1000 → u16, 70000 → i32.
Dfa ladder(std::int32_t num_states) {
  Dfa dfa = Dfa::with_identity_alphabet(3);
  for (std::int32_t s = 0; s < num_states; ++s) dfa.add_state(s % 3 == 0);
  dfa.set_initial(num_states - 1);
  for (std::int32_t s = 0; s < num_states; ++s) {
    dfa.set_transition(s, 0, s);
    dfa.set_transition(s, 1, s > 0 ? s - 1 : num_states - 1);
    dfa.set_transition(s, 2, s / 2);
  }
  return dfa;
}

const std::vector<Dfa>& ladders() {
  static const std::vector<Dfa> all{ladder(200), ladder(1000), ladder(70000)};
  return all;
}

TEST(BytePath, LaddersCoverEveryWidth) {
  EXPECT_EQ(ladders()[0].packed().width(), TableWidth::kU8);
  EXPECT_EQ(ladders()[1].packed().width(), TableWidth::kU16);
  EXPECT_EQ(ladders()[2].packed().width(), TableWidth::kI32);
}

TEST(BytePath, AddStateFinalsEqualSetFinal) {
  // add_state grows the finals in place: 70,000 add_state(true) calls build
  // the same machine as add_state(false) plus set_final afterwards.
  constexpr std::int32_t kStates = 70000;
  Dfa grown = Dfa::with_identity_alphabet(2);
  Dfa marked = Dfa::with_identity_alphabet(2);
  for (std::int32_t s = 0; s < kStates; ++s) {
    EXPECT_EQ(grown.add_state(true), s);
    marked.add_state(false);
  }
  for (std::int32_t s = 0; s < kStates; ++s) marked.set_final(s);
  EXPECT_EQ(grown.finals(), marked.finals());
  EXPECT_EQ(grown.finals().count(), static_cast<std::size_t>(kStates));
  EXPECT_EQ(ladders()[2].finals().count(), static_cast<std::size_t>((kStates + 2) / 3));
}

TEST(BytePath, WalkerMatchesSymbolsInEveryBand) {
  // 16 starts: the leading a's keep them all live (gather), scattered c's
  // merge them down through the scalar band to a lone run under
  // convergence; independent runs keep every lane. 5 and 1 start(s) begin
  // in the scalar and lone bands outright.
  Prng prng(0xb17e5);
  const std::string base = "aaaaaaaaaaaaaaaaaaaaaaaa" +
                           random_text(prng, "abc", {12, 2, 1}, kLength - 24);
  for (const std::size_t count : {16u, 5u, 1u}) {
    std::vector<State> starts;
    for (std::size_t i = 0; i < count; ++i)
      starts.push_back(static_cast<State>(7 * i + 3));
    std::vector<std::size_t> aliens = alien_positions(kLength, 1);
    aliens.push_back(kLength);  // none
    for (const std::size_t at : aliens) {
      std::string text = base;
      if (at < text.size()) text[at] = 'z';
      for (const Dfa& dfa : ladders()) {
        const std::vector<Symbol> symbols = dfa.symbols().translate(text);
        for (const bool convergence : {false, true}) {
          SCOPED_TRACE(std::to_string(dfa.num_states()) + " starts=" +
                       std::to_string(count) + " alien@" + std::to_string(at) +
                       " conv=" + std::to_string(convergence));
          const DetChunkOptions options{.convergence = convergence};
          const DetChunkResult bytes =
              run_chunk_det(dfa, MappedBytes(text, dfa.symbols()), starts, options);
          const DetChunkResult spans = run_chunk_det(dfa, symbols, starts, options);
          EXPECT_EQ(bytes.lambda, spans.lambda);
          EXPECT_EQ(bytes.transitions, spans.transitions);
          const DetChunkResult oracle =
              run_chunk_det_reference(dfa, symbols, starts, options);
          EXPECT_EQ(bytes.lambda, oracle.lambda);
          EXPECT_EQ(bytes.transitions, oracle.transitions);
        }
        std::uint64_t byte_probe = 0;
        std::uint64_t span_probe = 0;
        EXPECT_EQ(lookback_seeds(dfa, MappedBytes(text, dfa.symbols()), 1200, 300,
                                 byte_probe, nullptr),
                  lookback_seeds(dfa, std::span<const Symbol>(symbols), 1200, 300,
                                 span_probe, nullptr));
        EXPECT_EQ(byte_probe, span_probe);
      }
    }
  }
}

TEST(BytePath, CountAndFindMatchSymbolsOnEveryWidth) {
  ThreadPool pool(3);
  Prng prng(0xc0de);
  const std::string base = random_text(prng, "abc", {5, 2, 4}, kLength);
  for (const Dfa& dfa : ladders()) {
    for (std::size_t chunks = 1; chunks <= 8; ++chunks) {
      std::vector<std::size_t> aliens = alien_positions(kLength, chunks);
      aliens.push_back(kLength);  // none
      for (const std::size_t at : aliens) {
        std::string text = base;
        if (at < text.size()) text[at] = '\0';
        const std::vector<Symbol> symbols = dfa.symbols().translate(text);
        const QueryResult count_oracle = count_matches_serial(dfa, symbols);
        const QueryResult find_oracle = find_matches_serial(dfa, symbols);
        SCOPED_TRACE(std::to_string(dfa.num_states()) + " chunks=" +
                     std::to_string(chunks) + " alien@" + std::to_string(at));
        const QueryOptions options{.chunks = chunks};
        const QueryResult counted = count_matches(dfa, text, pool, options);
        expect_same(counted, count_matches(dfa, symbols, pool, options));
        EXPECT_EQ(counted.matches, count_oracle.matches);
        EXPECT_EQ(counted.died, count_oracle.died);
        const QueryResult found = find_matches(dfa, text, pool, options);
        expect_same(found, find_matches(dfa, symbols, pool, options));
        EXPECT_EQ(found.positions, find_oracle.positions);
        EXPECT_EQ(found.died, find_oracle.died);
      }
    }
  }
}

TEST(BytePath, GovernedWalkMatchesSymbols) {
  // An active governor splits the lone run at every poll; the split must
  // not change the walk.
  const QueryGovernor governor(std::chrono::hours(1), CancelToken{});
  const std::string text(5 * kGovernorStride + 17, 'a');
  for (const Dfa& dfa : ladders()) {
    const std::vector<Symbol> symbols = dfa.symbols().translate(text);
    const std::vector<State> starts{5};
    const DetChunkOptions options{.governor = &governor};
    const DetChunkResult bytes =
        run_chunk_det(dfa, MappedBytes(text, dfa.symbols()), starts, options);
    const DetChunkResult spans = run_chunk_det(dfa, symbols, starts, options);
    EXPECT_EQ(bytes.lambda, spans.lambda);
    EXPECT_EQ(bytes.transitions, text.size());
  }
}

// ------------------------------------------------------------ engine entries

/// `base` with 'z' — unmapped by the patterns below — at `at` (unchanged
/// when at >= base.size()).
std::string planted(const std::string& base, std::size_t at) {
  std::string text = base;
  if (at < text.size()) text[at] = 'z';
  return text;
}

TEST(BytePath, RecognizeMatchesSymbolsForEveryVariant) {
  // (a|b)*a(a|b){k}: the minimal DFA has 2^(k+1) states, so k = 2 packs
  // u8 and k = 8 packs u16; the NFA/RID/SFA machines stay small or (SFA)
  // give up under the budget.
  Prng prng(0x5eed);
  for (const auto& [regex, width] : {std::pair{"(a|b)*a(a|b){2}", TableWidth::kU8},
                                     std::pair{"(a|b)*a(a|b){8}", TableWidth::kU16}}) {
    const Engine engine(Pattern::compile(regex), {.threads = 3, .sfa_budget = 4096});
    EXPECT_EQ(engine.pattern().min_dfa().packed().width(), width) << regex;
    const std::string base = random_text(prng, "ab", {1, 1}, kLength);
    for (const Variant variant : {Variant::kDfa, Variant::kNfa, Variant::kRid,
                                  Variant::kSfa}) {
      if (engine.try_device(variant) == nullptr) continue;  // SFA over budget
      for (std::size_t chunks = 1; chunks <= 8; ++chunks) {
        std::vector<std::size_t> aliens = alien_positions(kLength, chunks);
        aliens.push_back(kLength);  // none
        for (const std::size_t at : aliens) {
          SCOPED_TRACE(std::string(regex) + " " + variant_name(variant) + " chunks=" +
                       std::to_string(chunks) + " alien@" + std::to_string(at));
          const std::string text = planted(base, at);
          const std::vector<Symbol> symbols = engine.translate(text);
          const QueryOptions options{.variant = variant, .chunks = chunks};
          const QueryResult bytes = engine.recognize(text, options);
          expect_same(bytes, engine.recognize(std::span<const Symbol>(symbols), options));
          // The serial oracle walks the bytes one at a time through the map.
          EXPECT_EQ(engine.accepts(text), engine.accepts(symbols));
          EXPECT_EQ(bytes.accepted, engine.accepts(text));
        }
      }
    }
  }
}

/// Window cuts of a kLength text: the walker's block edges plus `extra`
/// random ones, ascending and unique, every cut inside (0, kLength).
std::vector<std::size_t> window_cuts(Prng& prng, std::size_t extra) {
  std::vector<std::size_t> cuts{511, 512, 1023, 1024};
  for (std::size_t i = 0; i < extra; ++i) cuts.push_back(1 + prng.next_below(kLength - 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

TEST(BytePath, StreamFeedsMatchRecognizeForEveryVariant) {
  // Recognize is the device's window body run once on a fresh carry, so a
  // single-window feed equals it in decision AND transitions; any split
  // (unmapped bytes planted inside windows and at their edges) keeps the
  // decision.
  Prng prng(0x57ea);
  for (const char* regex : {"(a|b)*a(a|b){2}", "(a|b)*a(a|b){8}"}) {
    const Engine engine(Pattern::compile(regex), {.threads = 3, .sfa_budget = 4096});
    const std::string base = random_text(prng, "ab", {1, 1}, kLength);
    for (const Variant variant : {Variant::kDfa, Variant::kNfa, Variant::kRid,
                                  Variant::kSfa}) {
      if (engine.try_device(variant) == nullptr) continue;  // SFA over budget
      for (const std::size_t chunks : {1u, 3u, 8u}) {
        std::vector<std::size_t> aliens = alien_positions(kLength, chunks);
        aliens.push_back(kLength);  // none
        for (const std::size_t at : aliens) {
          SCOPED_TRACE(std::string(regex) + " " + variant_name(variant) + " chunks=" +
                       std::to_string(chunks) + " alien@" + std::to_string(at));
          const std::string text = planted(base, at);
          const QueryOptions options{.variant = variant, .chunks = chunks};
          const QueryResult one_shot = engine.recognize(text, options);

          StreamSession whole = engine.stream(options);
          whole.feed(text);
          EXPECT_EQ(whole.accepted(), one_shot.accepted);
          EXPECT_EQ(whole.transitions(), one_shot.transitions);

          StreamSession split = engine.stream(options);
          std::size_t offset = 0;
          for (const std::size_t cut : window_cuts(prng, 3)) {
            split.feed(std::string_view(text).substr(offset, cut - offset));
            offset = cut;
          }
          split.feed(std::string_view(text).substr(offset));
          EXPECT_EQ(split.accepted(), one_shot.accepted);
        }
      }
    }
  }
}

TEST(BytePath, ExactStreamFindResumesAtEveryCut) {
  // kExact streaming find keeps the raw byte tail: checkpointing and
  // resuming at every cut must still emit the serial oracle's list.
  Prng prng(0xe8ac);
  for (const char* regex : {"ab", "a(a|b)*b", "a|ba", "(ab|ba){2}"}) {
    const Engine engine(Pattern::compile(regex), {.threads = 3});
    const Dfa& searcher = engine.searcher();
    const std::string text = random_text(prng, "abz", {5, 5, 1}, kLength);
    const QueryResult oracle =
        find_matches_serial(searcher, searcher.symbols().translate(text), 0,
                            &engine.pattern().reverse_begins().dfa);
    for (const std::size_t chunks : {1u, 3u}) {
      SCOPED_TRACE(std::string(regex) + " chunks=" + std::to_string(chunks));
      const QueryOptions options{.chunks = chunks, .positions = true,
                                 .begin_mode = BeginMode::kExact};
      StreamSession session = engine.stream(options);
      std::vector<Match> collected;
      std::size_t offset = 0;
      for (const std::size_t cut : window_cuts(prng, 6)) {
        session.feed(std::string_view(text).substr(offset, cut - offset));
        for (const Match& match : session.take_matches()) collected.push_back(match);
        offset = cut;
        session = engine.resume_stream(session.checkpoint(), options);
      }
      session.feed(std::string_view(text).substr(offset));
      for (const Match& match : session.take_matches()) collected.push_back(match);
      EXPECT_EQ(collected, oracle.positions);
    }
  }
}

TEST(BytePath, MatchAllMatchesPerTextSymbols) {
  const Engine engine(Pattern::compile("(a|b)*a(a|b){2}"), {.threads = 3});
  Prng prng(0xa11);
  std::vector<std::string> owned;
  for (const std::size_t at : {0u, 511u, 1024u, 5000u})
    owned.push_back(planted(random_text(prng, "ab", {1, 1}, kLength), at));
  const std::vector<std::string_view> texts(owned.begin(), owned.end());
  for (const Variant variant : {Variant::kDfa, Variant::kNfa, Variant::kRid}) {
    const QueryOptions options{.variant = variant, .chunks = 4};
    const std::vector<QueryResult> batch = engine.match_all(texts, options);
    ASSERT_EQ(batch.size(), texts.size());
    for (std::size_t i = 0; i < texts.size(); ++i) {
      SCOPED_TRACE(std::string(variant_name(variant)) + " text " + std::to_string(i));
      const std::vector<Symbol> symbols = engine.translate(texts[i]);
      expect_same(batch[i], engine.recognize(std::span<const Symbol>(symbols), options));
    }
  }
}

TEST(BytePath, EngineCountAndFindMatchSymbolsAndOracles) {
  Prng prng(0xf1d);
  for (const char* regex : {"ab", "a(a|b)*b", "a|ba", "(ab|ba){2}"}) {
    const Engine engine(Pattern::compile(regex), {.threads = 3});
    const Dfa& searcher = engine.searcher();
    const ReverseBegins& reverse = engine.pattern().reverse_begins();
    const std::string text = random_text(prng, "abz", {5, 5, 1}, kLength);
    const std::vector<Symbol> symbols = searcher.symbols().translate(text);
    const QueryResult count_oracle = count_matches_serial(searcher, symbols);
    const QueryResult sep_oracle = find_matches_serial(searcher, symbols);
    const QueryResult exact_oracle =
        find_matches_serial(searcher, symbols, 0, &reverse.dfa);
    for (std::size_t chunks = 1; chunks <= 8; ++chunks) {
      SCOPED_TRACE(std::string(regex) + " chunks=" + std::to_string(chunks));
      QueryOptions options{.chunks = chunks};
      const QueryResult counted = engine.count(text, options);
      expect_same(counted, count_matches(searcher, symbols, engine.pool(), options));
      EXPECT_EQ(counted.matches, count_oracle.matches);
      const QueryResult found = engine.find(text, options);
      expect_same(found, find_matches(searcher, symbols, engine.pool(), options));
      EXPECT_EQ(found.positions, sep_oracle.positions);
      options.begin_mode = BeginMode::kExact;
      const QueryResult exact = engine.find(text, options);
      expect_same(exact, find_matches(searcher, symbols, engine.pool(), options, 0,
                                      nullptr, &reverse));
      EXPECT_EQ(exact.positions, exact_oracle.positions);
    }
  }
}

TEST(BytePath, PatternSetFindMatchesMergedSerialOracles) {
  const std::vector<std::string_view> regexes{"ab", "a(a|b)*b", "a|ba"};
  const PatternSet set = PatternSet::compile(regexes, {.threads = 3});
  Prng prng(0x5e7);
  const std::string text = random_text(prng, "abz", {5, 5, 1}, kLength);
  for (const BeginMode mode : {BeginMode::kSeparator, BeginMode::kExact}) {
    std::vector<Match> expected;
    for (std::size_t p = 0; p < set.size(); ++p) {
      const Dfa& searcher = set.pattern(p).searcher();
      const Dfa* reverse =
          mode == BeginMode::kExact ? &set.pattern(p).reverse_begins().dfa : nullptr;
      const QueryResult oracle = find_matches_serial(
          searcher, searcher.symbols().translate(text), static_cast<std::uint32_t>(p),
          reverse);
      expected.insert(expected.end(), oracle.positions.begin(), oracle.positions.end());
    }
    std::sort(expected.begin(), expected.end());
    for (const std::size_t chunks : {1u, 3u, 8u}) {
      SCOPED_TRACE("chunks=" + std::to_string(chunks) + " exact=" +
                   std::to_string(mode == BeginMode::kExact));
      EXPECT_EQ(set.find(text, {.chunks = chunks, .begin_mode = mode}).positions,
                expected);
    }
  }
}

}  // namespace
}  // namespace rispar
