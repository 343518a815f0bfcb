// Microbenchmarks of the position-emitting finding path: find_matches
// against counting on the same (always convergent) chunk walker and
// against the serial oracle, plus PatternSet multi-pattern serving of one
// text. Rows on the pool report wall-clock throughput with
// process CPU time as a side counter (bench/benchmark_json_main.hpp).
//
// Unless the caller passes --benchmark_out, results are also written as
// machine-readable JSON to BENCH_find_all.json in the working directory,
// so CI and successive PRs can track the serving-path throughput
// trajectory next to BENCH_chunk_kernels.json (see docs/perf.md).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "benchmark_json_main.hpp"
#include "common.hpp"
#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "parallel/match_count.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace rispar;

struct FindFixture {
  Pattern pattern;
  std::string text;
  std::vector<Symbol> input;  ///< translated with the searcher's map
  ThreadPool pool;

  FindFixture(const char* regex, std::size_t bytes = 1u << 20)
      : pattern(Pattern::compile(regex)), pool(4) {
    Prng prng(stable_hash("find_all"));
    text = bible_workload().text(bytes, prng);
    input = pattern.searcher().symbols().translate(text);
  }
};

FindFixture& fixture() {
  static FindFixture f("<h3>");
  return f;
}

QueryOptions options_from_args(const benchmark::State& state) {
  QueryOptions options;
  options.chunks = static_cast<std::size_t>(state.range(0));
  return options;
}

std::string label_from_args(const benchmark::State& state) {
  return "c=" + std::to_string(state.range(0)) + "/walker";
}

// The serving path: positioned occurrences over the Σ*p searcher, one
// chunk walk per chunk on the pool. Arg: chunks.
void BM_FindMatches(benchmark::State& state) {
  FindFixture& f = fixture();
  const QueryOptions options = options_from_args(state);
  const bench::ProcessCpuCounter cpu;
  for (auto _ : state) {
    const QueryResult result =
        find_matches(f.pattern.searcher(), f.input, f.pool, options);
    benchmark::DoNotOptimize(result.positions.size());
  }
  cpu.report(state);
  state.SetLabel(label_from_args(state));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.input.size()));
}
BENCHMARK(BM_FindMatches)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The reference row: find_matches_serial, the one-scan oracle every
// BM_FindMatches row is property-tested against.
void BM_FindMatchesSerial(benchmark::State& state) {
  FindFixture& f = fixture();
  for (auto _ : state) {
    const QueryResult result = find_matches_serial(f.pattern.searcher(), f.input);
    benchmark::DoNotOptimize(result.positions.size());
  }
  state.SetLabel("c=1/reference");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.input.size()));
}
BENCHMARK(BM_FindMatchesSerial)->Unit(benchmark::kMillisecond);

// Exact-begin resolution layered on the same scan: every joined hit
// additionally walks the cached reverse DFA backwards from its end to the
// leftmost start. The expected cost over BM_FindMatches is the per-hit
// backward walk, bounded by match density × backward distance to the
// resolution floor (small for separator-sound patterns like this
// literal). Arg: chunks.
void BM_FindMatchesExactBegin(benchmark::State& state) {
  FindFixture& f = fixture();
  const ReverseBegins& reverse = f.pattern.reverse_begins();  // cached, unpaid
  QueryOptions options = options_from_args(state);
  options.begin_mode = BeginMode::kExact;
  const bench::ProcessCpuCounter cpu;
  for (auto _ : state) {
    const QueryResult result = find_matches(f.pattern.searcher(), f.input,
                                            f.pool, options, 0, nullptr, &reverse);
    benchmark::DoNotOptimize(result.positions.size());
  }
  cpu.report(state);
  state.SetLabel(label_from_args(state) + "/exact");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.input.size()));
}
BENCHMARK(BM_FindMatchesExactBegin)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// What positions cost over bare counting on the identical scan — the same
// walker with a hit counter instead of a hit list. Arg: chunks.
void BM_CountMatchesBaseline(benchmark::State& state) {
  FindFixture& f = fixture();
  const QueryOptions options = options_from_args(state);
  const bench::ProcessCpuCounter cpu;
  for (auto _ : state) {
    const QueryResult result =
        count_matches(f.pattern.searcher(), f.input, f.pool, options);
    benchmark::DoNotOptimize(result.matches);
  }
  cpu.report(state);
  state.SetLabel(label_from_args(state));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.input.size()));
}
BENCHMARK(BM_CountMatchesBaseline)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Multi-pattern serving: N patterns, one text, one pool — the PatternSet
// text×pattern fan-out. Arg: chunks per scan.
void BM_PatternSetFind(benchmark::State& state) {
  static const PatternSet set =
      PatternSet::compile({"<h3>", "section", "the"}, {.threads = 4});
  const FindFixture& f = fixture();
  QueryOptions options;
  options.chunks = static_cast<std::size_t>(state.range(0));
  const bench::ProcessCpuCounter cpu;
  for (auto _ : state) {
    const QueryResult result = set.find(f.text, options);
    benchmark::DoNotOptimize(result.matches);
  }
  cpu.report(state);
  state.SetLabel("3 patterns, c=" + std::to_string(state.range(0)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.text.size()));
}
BENCHMARK(BM_PatternSetFind)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rispar::bench::run_benchmarks_with_default_out(
      argc, argv, "BENCH_find_all.json");
}
