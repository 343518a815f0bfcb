// Deadlines, cooperative cancellation and pool admission control
// (util/governance.hpp, the QueryOptions::{deadline, cancel} plumbing and
// ThreadPool's PoolAdmission) — the robustness layer of the query API.
//
// The determinism anchors: a pre-cancelled token and an already-elapsed
// deadline MUST trip at the first chunk-boundary poll (the top of every
// pool task), on every variant and query shape — no sleeps, no
// timing assumptions. The non-interference property: a governed run that
// completes returns bit-identical results to the ungoverned run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "helpers.hpp"
#include "parallel/thread_pool.hpp"
#include "util/prng.hpp"

namespace rispar {
namespace {

using namespace std::chrono_literals;

constexpr Variant kVariants[] = {Variant::kDfa, Variant::kNfa, Variant::kRid,
                                 Variant::kSfa};

CancelToken cancelled_token() {
  CancelSource source;
  source.request_cancel();
  return source.token();
}

/// A governed options set that can never trip: a huge deadline plus a live
/// (valid, uncancelled) token. Forces every poll site onto its active path.
QueryOptions never_trips(QueryOptions options, const CancelSource& source) {
  options.deadline = std::chrono::hours(1);
  options.cancel = source.token();
  return options;
}

// ------------------------------------------------------------ determinism

TEST(Governance, PreCancelledTokenTripsEveryVariantAndKernel) {
  const Engine engine(Pattern::compile("(ab|ba)*"), {.threads = 2});
  const std::vector<Symbol> input = engine.translate(std::string(4096, 'a'));
  for (const Variant variant : kVariants) {
    QueryOptions options{.variant = variant, .chunks = 7};
    options.cancel = cancelled_token();
    EXPECT_THROW(engine.recognize(input, options), QueryCancelled)
        << variant_name(variant);
  }
}

TEST(Governance, ElapsedDeadlineTripsEveryVariantAndKernel) {
  const Engine engine(Pattern::compile("(ab|ba)*"), {.threads = 2});
  const std::vector<Symbol> input = engine.translate(std::string(4096, 'a'));
  for (const Variant variant : kVariants) {
    QueryOptions options{.variant = variant, .chunks = 7};
    options.deadline = 1ns;  // elapsed before the first chunk task polls
    EXPECT_THROW(engine.recognize(input, options), DeadlineExceeded)
        << variant_name(variant);
  }
}

TEST(Governance, CancellationBeatsDeadlineWhenBothTripped) {
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
  const std::vector<Symbol> input = engine.translate("abababab");
  QueryOptions options{.chunks = 2};
  options.deadline = 1ns;
  options.cancel = cancelled_token();
  EXPECT_THROW(engine.recognize(input, options), QueryCancelled);
}

TEST(Governance, DeadlineCarriesElapsedAndBudget) {
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
  const std::vector<Symbol> input = engine.translate("abababab");
  QueryOptions options{.chunks = 2};
  options.deadline = 1ns;
  try {
    engine.recognize(input, options);
    FAIL() << "deadline did not trip";
  } catch (const DeadlineExceeded& error) {
    EXPECT_EQ(error.budget(), 1ns);
    EXPECT_GE(error.elapsed(), error.budget());
    EXPECT_NE(std::string(error.what()).find("deadline"), std::string::npos);
  }
}

TEST(Governance, CountAndFindHonorGovernance) {
  const Engine engine(Pattern::compile("ab"), {.threads = 2});
  const std::string text(4096, 'a');
  QueryOptions by_deadline{.chunks = 5};
  by_deadline.deadline = 1ns;
  EXPECT_THROW(engine.count(text, by_deadline), DeadlineExceeded);
  EXPECT_THROW(engine.find(text, by_deadline), DeadlineExceeded);
  QueryOptions by_cancel{.chunks = 5};
  by_cancel.cancel = cancelled_token();
  EXPECT_THROW(engine.count(text, by_cancel), QueryCancelled);
  EXPECT_THROW(engine.find(text, by_cancel), QueryCancelled);
}

TEST(Governance, MatchAllAndPatternSetHonorGovernance) {
  const Engine engine(Pattern::compile("(ab)*"), {.threads = 2});
  const std::vector<std::string_view> texts{"abab", "ab", "ba"};
  QueryOptions options;
  options.cancel = cancelled_token();
  EXPECT_THROW(engine.match_all(texts, options), QueryCancelled);

  const PatternSet set = PatternSet::compile({"ab", "ba"}, {.threads = 2});
  EXPECT_THROW(set.find_all(texts, options), QueryCancelled);
}

TEST(Governance, StreamingFeedTripsPerFeed) {
  const Engine engine(Pattern::compile("(ab|ba)*"), {.threads = 2});
  for (const Variant variant : kVariants) {
    QueryOptions options{.variant = variant, .chunks = 3};
    options.deadline = 1ns;
    StreamSession stream = engine.stream(options);
    EXPECT_THROW(stream.feed("abbaabba"), DeadlineExceeded) << variant_name(variant);
  }
}

// ------------------------------------------- exact-begin history bounding

TEST(Governance, MaxHistoryBytesTripsBeforeConsumingAndPoisons) {
  // The a|ba hazard pattern: its separator-purity certificate fails, so
  // kExact streaming retains history from the stream start — exactly the
  // unbounded growth QueryOptions::max_history_bytes exists to cap.
  const Engine engine(Pattern::compile("a|ba"), {.threads = 2});
  ASSERT_FALSE(engine.pattern().reverse_begins().separators_sound);
  QueryOptions options{.positions = true, .begin_mode = BeginMode::kExact};
  options.max_history_bytes = 64;
  StreamSession session = engine.stream(options);
  session.feed(std::string(48, 'b'));  // retained: 48 ≤ 64
  ASSERT_EQ(session.bytes_consumed(), 48u);
  try {
    session.feed(std::string(48, 'b'));  // peak would be 96 > 64
    FAIL() << "the history cap did not trip";
  } catch (const ResourceExhausted& error) {
    EXPECT_EQ(error.resource(), "exact-begin history");
    EXPECT_EQ(error.limit(), 64);
    EXPECT_EQ(error.observed(), 96);
  }
  // The trip consumed NOTHING and poisoned the session (standard stream
  // error semantics); reset() reuses it with the cap intact.
  EXPECT_EQ(session.bytes_consumed(), 48u);
  EXPECT_TRUE(session.poisoned());
  EXPECT_THROW(session.feed("b"), ValidationError);
  session.reset();
  EXPECT_FALSE(session.poisoned());
  session.feed(std::string(48, 'b'));
  EXPECT_THROW(session.feed(std::string(48, 'b')), ResourceExhausted);
}

TEST(Governance, MaxHistoryBytesZeroIsUnlimitedAndABoundThatFitsIsInert) {
  const Engine engine(Pattern::compile("a|ba"), {.threads = 2});
  std::string text;
  Prng prng(0x41aa);
  for (std::size_t i = 0; i < 4096; ++i) text.push_back("ab b"[prng.pick_index(4)]);

  const QueryOptions unlimited{.positions = true,
                               .begin_mode = BeginMode::kExact};  // cap 0
  QueryOptions bounded = unlimited;
  bounded.max_history_bytes = 1 << 20;  // far above peak retention

  StreamSession a = engine.stream(unlimited);
  StreamSession b = engine.stream(bounded);
  for (std::size_t offset = 0; offset < text.size(); offset += 97) {
    const std::string_view window = std::string_view(text).substr(offset, 97);
    a.feed(window);
    b.feed(window);
  }
  // Non-interference: a bound that never trips changes nothing, and both
  // agree with the one-shot exact find.
  const std::vector<Match> expected =
      engine.find_all(text, {.begin_mode = BeginMode::kExact});
  EXPECT_EQ(a.take_matches(), expected);
  EXPECT_EQ(b.take_matches(), expected);

  // One-shot shapes ignore the knob entirely (they retain no history).
  QueryOptions tiny{.begin_mode = BeginMode::kExact};
  tiny.max_history_bytes = 8;
  EXPECT_EQ(engine.find_all(text, tiny), expected);
}

TEST(Governance, MaxHistoryBytesGovernsMultiStreamSessions) {
  // One unsound-separator pattern in the fleet is enough: the shared cap
  // poisons the whole session when that pattern's tail would exceed it.
  const PatternSet set = PatternSet::compile({"ab", "a|ba"}, {.threads = 2});
  QueryOptions options{.begin_mode = BeginMode::kExact};
  options.max_history_bytes = 64;
  MultiStreamSession session = set.stream_find(options);
  session.feed(std::string(48, 'b'));
  EXPECT_THROW(session.feed(std::string(48, 'b')), ResourceExhausted);
  EXPECT_TRUE(session.poisoned());
  session.reset();
  EXPECT_FALSE(session.poisoned());
  session.feed(std::string(40, 'b'));
  EXPECT_EQ(session.bytes_consumed(), 40u);
}

// -------------------------------------------------------- non-interference

// A governed run that completes is indistinguishable from the ungoverned
// run: same decision, same transition counts, same positions. This is the
// fuzz-style sweep of the acceptance criteria — every variant × one-shot
// and streaming, on random inputs long enough that the in-kernel stride
// polls actually execute (length ≫ kGovernorStride).
TEST(Governance, GovernedRunThatCompletesEqualsUngoverned) {
  const CancelSource live;  // never cancelled
  Prng prng(0xC0FFEEu);
  const Engine engine(Pattern::from_nfa(testing::fig1_nfa()), {.threads = 2});
  const std::vector<Symbol> input =
      testing::random_word(prng, 3, 3 * kGovernorStride + 17);
  const std::string bytes = testing::to_bytes(engine.pattern().symbols(), input);

  for (const Variant variant : kVariants) {
    for (const std::size_t chunks : {1u, 2u, 7u}) {
      const QueryOptions plain{.variant = variant, .chunks = chunks};
      const QueryOptions governed = never_trips(plain, live);
      const QueryResult expected = engine.recognize(input, plain);
      const QueryResult actual = engine.recognize(input, governed);
      EXPECT_EQ(expected.accepted, actual.accepted)
          << variant_name(variant) << " chunks=" << chunks;
      EXPECT_EQ(expected.transitions, actual.transitions)
          << variant_name(variant) << " chunks=" << chunks;

      // Streaming: same window segmentation, governed vs not.
      StreamSession a = engine.stream(plain);
      StreamSession b = engine.stream(governed);
      std::size_t pos = 0;
      while (pos < bytes.size()) {
        const std::size_t len =
            std::min<std::size_t>(1 + prng.pick_index(9000), bytes.size() - pos);
        const std::string_view window = std::string_view(bytes).substr(pos, len);
        a.feed(window);
        b.feed(window);
        pos += len;
      }
      EXPECT_EQ(a.accepted(), b.accepted()) << variant_name(variant);
      EXPECT_EQ(a.transitions(), b.transitions()) << variant_name(variant);
    }
  }
}

TEST(Governance, GovernedFindEqualsUngoverned) {
  const CancelSource live;
  Prng prng(0xF00Du);
  const Engine engine(Pattern::compile("(ab|ba)"), {.threads = 2});
  std::string text;
  text.reserve(2 * kGovernorStride);
  for (std::size_t i = 0; i < 2 * kGovernorStride; ++i)
    text.push_back("ab x"[prng.pick_index(4)]);

  const QueryOptions plain{.chunks = 7};
  const QueryOptions governed = never_trips(plain, live);
  const QueryResult expected = engine.find(text, plain);
  const QueryResult actual = engine.find(text, governed);
  EXPECT_EQ(expected.matches, actual.matches);
  EXPECT_EQ(expected.transitions, actual.transitions);
  EXPECT_EQ(expected.positions, actual.positions);

  const QueryResult counted = engine.count(text, plain);
  const QueryResult counted_governed = engine.count(text, governed);
  EXPECT_EQ(counted.matches, counted_governed.matches);
  EXPECT_EQ(counted.transitions, counted_governed.transitions);
}

// The chunk walker polls at its block boundaries in every band of its
// live-count choice. Called directly (no pool task, so no chunk-boundary
// poll), a pre-cancelled governor can only trip from inside the walk:
// 16 live runs take the gather step, 4 the scalar column loop, 1 the
// lone-run loop — on a cycle automaton where every run survives the whole
// 3-stride chunk, so the count stays in its band until the first poll.
TEST(Governance, ChunkWalkerTripsInEveryStep) {
  Dfa cycle = Dfa::with_identity_alphabet(1);
  for (State s = 0; s < 64; ++s) cycle.add_state(false);
  cycle.set_initial(0);
  for (State s = 0; s < 64; ++s) cycle.set_transition(s, 0, (s + 1) % 64);
  const std::vector<Symbol> chunk(3 * kGovernorStride, 0);
  // The same chunk as raw bytes read through the cycle's map ('a' = 0).
  const std::string bytes(chunk.size(), 'a');
  const MappedBytes mapped(bytes, cycle.symbols());
  const QueryGovernor tripped(std::chrono::nanoseconds{0}, cancelled_token());
  for (const std::size_t live : {16u, 4u, 1u}) {
    std::vector<State> starts;
    for (std::size_t i = 0; i < live; ++i) starts.push_back(static_cast<State>(3 * i));
    for (const bool convergence : {false, true}) {
      EXPECT_THROW(run_chunk_det(cycle, chunk, starts,
                                 {.convergence = convergence, .governor = &tripped}),
                   QueryCancelled)
          << live << " live, conv=" << convergence;
      EXPECT_THROW(run_chunk_det(cycle, mapped, starts,
                                 {.convergence = convergence, .governor = &tripped}),
                   QueryCancelled)
          << live << " live, conv=" << convergence << ", bytes";
      // The same walks without the governor complete with every run alive.
      EXPECT_EQ(run_chunk_det(cycle, chunk, starts, {.convergence = convergence})
                    .lambda.size(),
                live);
      EXPECT_EQ(run_chunk_det(cycle, mapped, starts, {.convergence = convergence})
                    .lambda.size(),
                live);
    }
  }
}

// ------------------------------------------------------- admission control

/// Occupies a 1-worker pool plus the submitting helper thread with blocking
/// tasks so a batch sits in the injection queue deterministically: a batch
/// of 4 is enqueued whole, the worker claims one task and the submitter
/// claims another (both block on the gate), leaving exactly 2 queued.
struct OccupiedPool {
  explicit OccupiedPool(PoolAdmission admission)
      : pool(1, admission), gate_future(gate.get_future().share()) {
    submitter = std::thread([this] {
      pool.run(4, [this](std::size_t) {
        started.fetch_add(1);
        gate_future.wait();
      });
    });
    while (started.load() < 2) std::this_thread::yield();
  }

  ~OccupiedPool() {
    gate.set_value();  // release the blocked tasks
    submitter.join();
  }

  ThreadPool pool;
  std::atomic<int> started{0};
  std::promise<void> gate;
  std::shared_future<void> gate_future;
  std::thread submitter;
};

TEST(PoolAdmission, RejectPolicyThrowsResourceExhausted) {
  OccupiedPool occupied({.max_injected = 1, .policy = OverloadPolicy::kReject});
  EXPECT_EQ(occupied.pool.stats().queued, 2u);
  try {
    occupied.pool.run(1, [](std::size_t) {});
    FAIL() << "overloaded pool admitted the batch";
  } catch (const ResourceExhausted& error) {
    EXPECT_EQ(error.resource(), "pool admission");
    EXPECT_EQ(error.limit(), 1);
    EXPECT_EQ(error.observed(), 3);  // 2 queued + the batch of 1
  }
  EXPECT_EQ(occupied.pool.stats().rejected, 1u);
}

TEST(PoolAdmission, BlockPolicyTimesOutThenThrows) {
  OccupiedPool occupied({.max_injected = 1, .policy = OverloadPolicy::kBlock,
                         .block_timeout = 50ms});
  EXPECT_THROW(occupied.pool.run(1, [](std::size_t) {}), ResourceExhausted);
  EXPECT_EQ(occupied.pool.stats().rejected, 1u);
}

TEST(PoolAdmission, BlockPolicyHonorsGovernorWhileWaiting) {
  OccupiedPool occupied({.max_injected = 1, .policy = OverloadPolicy::kBlock});
  const QueryGovernor governor(20ms, CancelToken{});
  EXPECT_THROW(occupied.pool.run(1, [](std::size_t) {}, &governor),
               DeadlineExceeded);
}

TEST(PoolAdmission, BlockPolicyAdmitsOnceSpaceFrees) {
  std::atomic<bool> ran{false};
  {
    OccupiedPool occupied({.max_injected = 1, .policy = OverloadPolicy::kBlock});
    std::thread releaser([&] {
      std::this_thread::sleep_for(20ms);
      occupied.gate.set_value();
    });
    occupied.pool.run(1, [&](std::size_t) { ran = true; });  // blocks, then runs
    releaser.join();
    occupied.submitter.join();
    occupied.submitter = std::thread([] {});  // dtor gate already released
    occupied.gate = std::promise<void>();     // avoid double set_value in dtor
  }
  EXPECT_TRUE(ran.load());
}

TEST(PoolAdmission, PoolStaysUsableAfterRejection) {
  {
    OccupiedPool occupied({.max_injected = 1, .policy = OverloadPolicy::kReject});
    EXPECT_THROW(occupied.pool.run(1, [](std::size_t) {}), ResourceExhausted);
  }  // blocked batch released and joined
  ThreadPool pool(1, {.max_injected = 1, .policy = OverloadPolicy::kReject});
  std::atomic<int> hits{0};
  pool.run(8, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 8);
}

TEST(PoolAdmission, OversizedBatchAdmittedWhenQueueEmpty) {
  // All-or-nothing with the empty-queue overshoot: a batch larger than the
  // bound must still be admitted when nothing is queued, or a single big
  // query could never run at all.
  ThreadPool pool(2, {.max_injected = 4, .policy = OverloadPolicy::kReject});
  std::atomic<int> hits{0};
  pool.run(64, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 64);
}

TEST(PoolAdmission, NestedSubmissionsNeverDeadlockABoundedPool) {
  // Nesting under a tight bound must always make progress: worker-side
  // nested run() goes through the deques (never bounded — it is a
  // continuation of admitted work), and an external participant's nested
  // submission may wait for admission but the workers keep draining, so a
  // kBlock pool can never deadlock against its own nesting.
  ThreadPool pool(2, {.max_injected = 1, .policy = OverloadPolicy::kBlock});
  std::atomic<int> inner{0};
  pool.run(2, [&](std::size_t) {
    pool.run(16, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 32);
}

TEST(PoolAdmission, StatsCountersTrack) {
  ThreadPool pool(2);
  const PoolStats before = pool.stats();
  std::atomic<int> hits{0};
  pool.run(100, [&](std::size_t) { hits.fetch_add(1); });
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.executed, before.executed + 100);
  EXPECT_EQ(after.queued, 0u);
  EXPECT_EQ(after.running, 0u);
  EXPECT_EQ(after.rejected, 0u);
}

TEST(PoolAdmission, EngineConfigThreadsAdmissionThrough) {
  // End to end: an Engine built over a bounded kReject pool still answers
  // queries (the owned pool's queue is empty between calls — admission only
  // bites under concurrent overload).
  const Engine engine(Pattern::compile("(ab)*"),
                      {.threads = 2,
                       .admission = {.max_injected = 2,
                                     .policy = OverloadPolicy::kReject}});
  EXPECT_EQ(engine.pool().admission().max_injected, 2u);
  EXPECT_TRUE(engine.recognize("abab").accepted);
}

}  // namespace
}  // namespace rispar
