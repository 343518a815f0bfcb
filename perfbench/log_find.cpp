// log_find: one-shot positioned PatternSet::find of the log patterns over
// seeded log lines in the paper's traffic format. One caller in a closed
// loop cycles through {kSeparator, kExact} x {chunks = 1, chunks = host
// threads}.
//
//   main     = every find call
//   contrast = the kExact calls
//
// Every call is timed on the wall clock and in process CPU time. The gated
// rates are the text size over the median CPU time per call, summed over
// the shapes they cover (main_mb_per_cpu_s, alt_mb_per_cpu_s); the
// wall-clock find_mbps and exact_find_mbps are printed.
#include <algorithm>
#include <cstdio>
#include <initializer_list>

#include "engine/pattern_set.hpp"
#include "gen.hpp"
#include "parallel/match_count.hpp"
#include "workloads.hpp"

namespace perfbench {

using rispar::BeginMode;
using rispar::Match;
using rispar::PatternSet;
using rispar::QueryOptions;

std::vector<std::string> log_patterns(const Config& config) {
  std::vector<std::string> patterns;
  for (const std::vector<std::string>& f : config.all("log.pattern")) patterns.push_back(f.at(0));
  return patterns;
}

std::string log_input(const RunArgs& args, std::size_t bytes) {
  Rng rng(input_seed(args.seed, 100));
  std::string text = paper_text("traffic", bytes, rng);
  text.resize(bytes);
  return text;
}

namespace {

std::unique_ptr<PatternSet> build(const std::vector<std::string>& patterns) {
  std::vector<rispar::Pattern> compiled;
  for (const std::string& pattern : patterns) compiled.push_back(rispar::Pattern::compile(pattern));
  rispar::EngineConfig config;
  config.threads = host_threads();
  auto set = std::make_unique<PatternSet>(std::move(compiled), config);
  // Lazy artifacts the find path needs: the Σ*p searcher and, for kExact,
  // the reverse-begins DFA.
  for (std::size_t i = 0; i < set->size(); ++i) {
    (void)set->pattern(i).searcher();
    (void)set->pattern(i).reverse_begins();
  }
  return set;
}

/// find_matches_serial on each pattern's searcher, merged in PatternSet
/// order: ascending (end, begin, pattern id).
std::vector<Match> oracle(const PatternSet& set, const std::string& text, BeginMode mode) {
  std::vector<Match> all;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const rispar::Dfa& searcher = set.pattern(i).searcher();
    const std::vector<rispar::Symbol> symbols = searcher.symbols().translate(text);
    const rispar::Dfa* reverse =
        mode == BeginMode::kExact ? &set.pattern(i).reverse_begins().dfa : nullptr;
    const rispar::QueryResult r = rispar::find_matches_serial(
        searcher, symbols, static_cast<std::uint32_t>(i), reverse);
    all.insert(all.end(), r.positions.begin(), r.positions.end());
  }
  std::sort(all.begin(), all.end(), [](const Match& a, const Match& b) {
    if (a.end != b.end) return a.end < b.end;
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.pattern_id < b.pattern_id;
  });
  return all;
}

/// How many of `matches` each pattern has: the text's match density,
/// which sets how much merge and exact-begin work a call does.
void print_pattern_matches(const std::vector<std::string>& patterns,
                           const std::vector<Match> (&expected)[2]) {
  std::printf("log_find: matches per pattern on this seed's text (separator / exact):\n");
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    std::size_t counts[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode)
      for (const Match& m : expected[mode]) counts[mode] += m.pattern_id == i;
    std::string shown;
    for (const char ch : patterns[i]) shown += ch == '\n' ? std::string("\\n") : std::string(1, ch);
    std::printf("  %zu %6zu / %6zu  %s\n", i, counts[0], counts[1], shown.c_str());
  }
}

/// Span name of each shape of the loop, in shape order.
constexpr const char* kShapeSpans[4] = {"pattern_set.find.c1", "pattern_set.find_exact.c1",
                                         "pattern_set.find.cN", "pattern_set.find_exact.cN"};

struct Samples {
  std::vector<double> all_s, exact_s;  // wall clock, per call
  std::vector<double> by_shape[4];      // wall clock
  std::vector<double> cpu_by_shape[4];  // process CPU
  /// Text bytes over the summed median call time of `shapes` (wall or CPU):
  /// one call of each, timed robustly against a stalled call.
  static double mbps(const std::vector<double> (&times)[4], std::size_t bytes,
                     std::initializer_list<std::size_t> shapes) {
    double seconds = 0;
    for (const std::size_t shape : shapes) seconds += median(times[shape]);
    return static_cast<double>(bytes * shapes.size()) / seconds / 1e6;
  }
};

/// The closed loop, in whole cycles of the four shapes, until `seconds`
/// pass; every result is checked against the serial oracle. With a tracer,
/// every other cycle is traced into `traced`, so both halves see the same
/// host conditions.
void loop(const PatternSet& set, const std::string& text,
          const std::vector<Match> (&expected)[2], double seconds, Tracer* tracer,
          Samples& plain, Samples* traced, Outcome& outcome) {
  const QueryOptions shapes[] = {
      {.chunks = 1, .begin_mode = BeginMode::kSeparator},
      {.chunks = 1, .begin_mode = BeginMode::kExact},
      {.chunks = host_threads(), .begin_mode = BeginMode::kSeparator},
      {.chunks = host_threads(), .begin_mode = BeginMode::kExact},
  };
  Tracer off(false);
  const Clock::time_point start = Clock::now();
  // A traced loop makes at least one traced cycle, however short `seconds`.
  const std::uint64_t min_ops = tracer != nullptr ? 8 : 4;
  for (std::uint64_t op = 0;
       op < min_ops || op % 4 != 0 || seconds_between(start, Clock::now()) < seconds; ++op) {
    const bool trace = tracer != nullptr && traced != nullptr && op / 4 % 2 == 1;
    Samples& s = trace ? *traced : plain;
    const QueryOptions& options = shapes[op % 4];
    const bool exact = options.begin_mode == BeginMode::kExact;
    rispar::QueryResult r;
    const double c0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Scope scope(trace ? *tracer : off, kShapeSpans[op % 4], op);
      r = set.find(text, options);
    }
    const double took = seconds_between(t0, Clock::now());
    s.cpu_by_shape[op % 4].push_back(process_cpu_seconds() - c0);
    outcome.check(r.positions == expected[exact] && r.matches == expected[exact].size(),
                  std::string("find positions differ from find_matches_serial (") +
                      (exact ? "exact" : "separator") +
                      ", chunks=" + std::to_string(options.chunks) + ")");
    s.all_s.push_back(took);
    s.by_shape[op % 4].push_back(took);
    if (exact) s.exact_s.push_back(took);
  }
}

struct Inputs {
  std::vector<std::string> patterns;
  std::string text;
};

Inputs inputs(const RunArgs& args) {
  return {log_patterns(args.config),
          log_input(args, static_cast<std::size_t>(args.config.num("log.text_bytes")))};
}

}  // namespace

double trace_log_find(const RunArgs& args, double seconds, Tracer& tracer, Outcome& outcome) {
  const auto [patterns, text] = inputs(args);
  const std::unique_ptr<PatternSet> set = build(patterns);
  const std::vector<Match> expected[2] = {oracle(*set, text, BeginMode::kSeparator),
                                          oracle(*set, text, BeginMode::kExact)};
  outcome.check(!expected[0].empty(), "the log text holds no match at all");
  print_pattern_matches(patterns, expected);
  Samples plain, traced;
  loop(*set, text, expected, seconds, &tracer, plain, &traced, outcome);

  const auto span_median = [&tracer](int shape) {
    return median(tracer.self_times(kShapeSpans[shape]));
  };
  outcome.add("engine.find_speculation_ratio", span_median(2) / span_median(0), "ratio");
  outcome.add("engine.exact_extra_s", span_median(1) - span_median(0), "s");
  return Samples::mbps(plain.cpu_by_shape, text.size(), {0, 1, 2, 3}) /
             Samples::mbps(traced.cpu_by_shape, text.size(), {0, 1, 2, 3}) -
         1.0;
}

Outcome run_log_find(const RunArgs& args) {
  Outcome outcome;
  const auto [patterns, text] = inputs(args);

  const auto timed_build = [&patterns](std::vector<double>& setups) {
    const double c0 = process_cpu_seconds();
    std::unique_ptr<PatternSet> set = build(patterns);
    setups.push_back(process_cpu_seconds() - c0);
    return set;
  };
  std::vector<double> setups;
  const std::unique_ptr<PatternSet> set = timed_build(setups);
  const std::vector<Match> expected[2] = {oracle(*set, text, BeginMode::kSeparator),
                                          oracle(*set, text, BeginMode::kExact)};
  outcome.check(!expected[0].empty(), "the log text holds no match at all");
  print_pattern_matches(patterns, expected);

  Samples s;
  // The other set-ups are spread over the run, between stretches of the
  // loop, so slow stretches of the host weigh on set-up and loop alike.
  const auto reps = static_cast<int>(args.config.num("setup_reps"));
  for (int rep = 1; rep <= reps; ++rep) {
    loop(*set, text, expected, args.seconds / reps, nullptr, s, nullptr, outcome);
    if (rep < reps) (void)timed_build(setups);
  }

  std::printf("log_find: %zu patterns, %.2f MiB text, %zu separator + %zu exact matches, "
              "%zu calls\n",
              patterns.size(), static_cast<double>(text.size()) / (1 << 20), expected[0].size(),
              expected[1].size(), s.all_s.size());
  const auto n = [](const std::vector<double>& v) { return "n=" + std::to_string(v.size()); };
  say("find_mbps", Samples::mbps(s.by_shape, text.size(), {0, 1, 2, 3}), "MB/s",
      n(s.all_s) + ", wall clock");
  say("exact_find_mbps", Samples::mbps(s.by_shape, text.size(), {1, 3}), "MB/s",
      n(s.exact_s) + ", wall clock");
  say("find_p99_ms", quantile(s.all_s, 0.99) * 1e3, "ms", n(s.all_s) + ", wall clock");
  say("exact_find_p99_ms", quantile(s.exact_s, 0.99) * 1e3, "ms", n(s.exact_s) + ", wall clock");
  for (int shape = 0; shape < 4; ++shape)
    say(std::string("p50_ms.") + kShapeSpans[shape], median(s.by_shape[shape]) * 1e3, "ms",
        n(s.by_shape[shape]) + ", wall clock");
  // The four shapes cluster apart (chunks = 1 against chunks = nproc), so
  // the median of the mixed sample would sit in the gap between clusters:
  // report the shapes' median CPU times averaged instead.
  double shape_medians_s = 0;
  for (const std::vector<double>& shape : s.cpu_by_shape) shape_medians_s += median(shape);
  outcome.add("setup_s", median(setups), "s");
  outcome.add("op_cpu_ms", shape_medians_s / 4 * 1e3, "ms");
  outcome.add("main_mb_per_cpu_s", Samples::mbps(s.cpu_by_shape, text.size(), {0, 1, 2, 3}),
              "MB/cpu-s");
  outcome.add("alt_mb_per_cpu_s", Samples::mbps(s.cpu_by_shape, text.size(), {1, 3}),
              "MB/cpu-s");
  return outcome;
}

}  // namespace perfbench
