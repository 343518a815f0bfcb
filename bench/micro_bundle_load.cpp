// Microbenchmarks of the zero-copy deployment path (src/bundle/): what a
// pattern costs to bring up COLD, three ways —
//   * compile: regex → machines (parse, Glushkov, subset construction,
//     minimization, RI-DFA, searcher, SFA, packing) — the price every
//     process paid before bundles;
//   * text: Pattern::deserialize of serialize() output — skips parsing and
//     DFA derivation, still rebuilds the RI-DFA and repacks lazily;
//   * mapped: Pattern::load_mapped of a .rpb bundle — validates checksums
//     and adopts the packed tables in place; no derivation of any kind.
// Plus the serving-shaped sweep: rispard's build_catalog cold-reloading a
// regex manifest (uncached and compile-cache-warm) against a bundle
// manifest — the reload path docs/rispard.md promises is recompile-free.
//
// Entries carry `load_ms` / `reload_ms` counters, gated lower-is-better by
// tools/bench_compare.py at the same 15% threshold as throughput
// (LOWER_IS_BETTER). After the benchmarks, main() self-checks the
// acceptance ratio — mapped load must be >= 50x faster than compile — and
// exits nonzero when it is not, so the CI leg fails loudly, not just
// slowly. Unless the caller passes --benchmark_out, results are written to
// BENCH_bundle_load.json (the fifth gated CI artifact).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "automata/glushkov.hpp"
#include "benchmark_json_main.hpp"
#include "bundle/mapped_bundle.hpp"
#include "engine/compile_cache.hpp"
#include "engine/pattern.hpp"
#include "server/catalog.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace rispar;

constexpr const char* kBundlePath = "bench_bundle_corpus.rpb";

/// Literal regexes exercising the parser-driven compile path (the five
/// paper workloads ride along as ASTs with their names as sources).
const std::vector<std::string>& corpus_regexes() {
  static const std::vector<std::string> regexes = {
      "(ab|ba)*",
      "a+b(ab)*",
      "(a|b)*a(a|b)(a|b)(a|b)",
      "(GATTACA|CCTAGG|TTTTCCCC)(A|C|G|T)*",
  };
  return regexes;
}

/// Compiles the whole corpus from scratch, forcing the lazy artifacts the
/// bundle ships (searcher + SFA) — the honest cold-start unit of every
/// series here.
std::vector<Pattern> compile_corpus() {
  std::vector<Pattern> corpus;
  for (const std::string& regex : corpus_regexes())
    corpus.push_back(Pattern::compile(regex));
  for (const WorkloadSpec& w : benchmark_suite())
    corpus.push_back(Pattern::from_nfa(glushkov_nfa(w.regex()), {}, w.name));
  for (const Pattern& p : corpus) {
    (void)p.searcher();
    (void)p.sfa();
  }
  return corpus;
}

struct BundleFixture {
  std::vector<Pattern> corpus;
  std::vector<std::string> texts;  ///< serialize() forms, one per pattern

  BundleFixture() : corpus(compile_corpus()) {
    Pattern::save_bundle_many(kBundlePath, corpus);
    for (const Pattern& p : corpus) texts.push_back(p.serialize());
  }
};

BundleFixture& fixture() {
  static BundleFixture f;
  return f;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Full compile of the corpus — the baseline every other series divides.
void BM_BundleColdCompile(benchmark::State& state) {
  fixture();  // build the bundle outside the timing
  double total_ms = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<Pattern> corpus = compile_corpus();
    benchmark::DoNotOptimize(corpus.size());
    total_ms += ms_since(start);
  }
  state.SetLabel("bundle/compile");
  state.counters["load_ms"] =
      benchmark::Counter(total_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BundleColdCompile)->Unit(benchmark::kMillisecond);

// Text deserialization of every pattern (no parse, no DFA derivation, but
// RI-DFA reconstruction per pattern and lazy packing later).
void BM_BundleTextDeserialize(benchmark::State& state) {
  BundleFixture& f = fixture();
  double total_ms = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (const std::string& text : f.texts) {
      const Pattern p = Pattern::deserialize(text);
      benchmark::DoNotOptimize(p.min_dfa().num_states());
    }
    total_ms += ms_since(start);
  }
  state.SetLabel("bundle/text");
  state.counters["load_ms"] =
      benchmark::Counter(total_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BundleTextDeserialize)->Unit(benchmark::kMillisecond);

// The tentpole: map the bundle and restore every pattern zero-copy. Each
// iteration re-opens the file — mmap + checksum validation included, the
// true cold-process cost (the page cache stays warm, as it does for a
// fleet).
void BM_BundleMappedLoad(benchmark::State& state) {
  BundleFixture& f = fixture();
  double total_ms = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto bundle = bundle::MappedBundle::open(kBundlePath);
    for (std::uint32_t i = 0; i < bundle->pattern_count(); ++i) {
      const Pattern p = Pattern::from_bundle(bundle, i);
      benchmark::DoNotOptimize(p.min_dfa().num_states());
    }
    total_ms += ms_since(start);
  }
  if (f.corpus.size() != bundle::MappedBundle::open(kBundlePath)->pattern_count())
    state.SkipWithError("bundle pattern count drifted");
  state.SetLabel("bundle/mapped");
  state.counters["load_ms"] =
      benchmark::Counter(total_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BundleMappedLoad)->Unit(benchmark::kMillisecond);

// Serving-shaped cold reload: rispard's build_catalog over (0) a regex
// manifest with no cache — every reload recompiles; (1) the same manifest
// through a warm CompileCache — the unchanged-manifest reload, pure hits;
// (2) a bundle manifest — mapped loads, no compile ever.
void BM_CatalogColdReload(benchmark::State& state) {
  BundleFixture& f = fixture();
  (void)f;
  std::vector<std::string> manifest;
  EngineConfig config;
  const char* mode = "";
  switch (state.range(0)) {
    case 0:
      manifest = corpus_regexes();
      mode = "regex";
      break;
    case 1: {
      manifest = corpus_regexes();
      config.compile_cache = std::make_shared<CompileCache>();
      // Warm it: iterations then measure steady-state reload, all hits.
      (void)rispard::build_catalog(manifest, 0, config);
      mode = "regex_cached";
      break;
    }
    default:
      manifest = {kBundlePath};
      mode = "mapped";
      break;
  }
  double total_ms = 0;
  std::uint64_t generation = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto catalog = rispard::build_catalog(manifest, ++generation, config);
    benchmark::DoNotOptimize(catalog->patterns.size());
    total_ms += ms_since(start);
  }
  state.SetLabel(std::string("bundle/catalog_reload/") + mode);
  state.counters["reload_ms"] =
      benchmark::Counter(total_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CatalogColdReload)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

/// The acceptance gate: mapped load must be >= 50x faster than compile.
/// Measured directly (medians over a few repetitions) so the check cannot
/// drift from whatever subset of benchmarks a caller filtered.
int self_check() {
  fixture();  // ensure the bundle exists
  const auto compile_start = std::chrono::steady_clock::now();
  {
    std::vector<Pattern> corpus = compile_corpus();
    benchmark::DoNotOptimize(corpus.size());
  }
  const double compile_ms = ms_since(compile_start);

  double best_mapped_ms = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const auto bundle = bundle::MappedBundle::open(kBundlePath);
    for (std::uint32_t i = 0; i < bundle->pattern_count(); ++i) {
      const Pattern p = Pattern::from_bundle(bundle, i);
      benchmark::DoNotOptimize(p.min_dfa().num_states());
    }
    const double ms = ms_since(start);
    if (ms < best_mapped_ms) best_mapped_ms = ms;
  }

  const double ratio = best_mapped_ms > 0 ? compile_ms / best_mapped_ms : 1e30;
  std::fprintf(stderr,
               "bundle self-check: compile %.2f ms, mapped load %.3f ms "
               "-> %.0fx\n",
               compile_ms, best_mapped_ms, ratio);
  if (ratio < 50.0) {
    std::fprintf(stderr,
                 "bundle self-check FAILED: mapped load is only %.1fx faster "
                 "than compile (acceptance floor is 50x)\n",
                 ratio);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = rispar::bench::run_benchmarks_with_default_out(
      argc, argv, "BENCH_bundle_load.json");
  if (rc != 0) return rc;
  return self_check();
}
