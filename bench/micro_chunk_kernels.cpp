// Microbenchmarks of the reach-phase kernels: speculative deterministic
// runs (the chunk walker vs the reference oracle, independent vs
// convergent) and the NFA frontier kernel, on one chunk of each benchmark
// group's representative, plus whole byte-text recognition on the pool
// (BM_RecognizeBytes).
//
// Unless the caller passes --benchmark_out, results are also written as
// machine-readable JSON to BENCH_chunk_kernels.json in the working
// directory, so CI and successive PRs can track the kernel throughput
// trajectory (see docs/perf.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "benchmark_json_main.hpp"
#include "common.hpp"
#include "automata/glushkov.hpp"
#include "parallel/ca_run.hpp"
#include "engine/engine.hpp"
#include "engine/pattern.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace rispar;

struct ChunkFixture {
  Pattern pattern;
  std::vector<Symbol> chunk;
  std::vector<State> dfa_starts;
  std::vector<State> nfa_starts;

  explicit ChunkFixture(const WorkloadSpec& spec, std::size_t bytes = 1u << 16)
      : pattern(Pattern::from_nfa(glushkov_nfa(spec.regex()))),
        chunk([&] {
          Prng prng(stable_hash(spec.name) ^ 0xc0ffee);
          return pattern.translate(spec.text(bytes, prng));
        }()) {
    for (State s = 0; s < pattern.min_dfa().num_states(); ++s) dfa_starts.push_back(s);
    for (State s = 0; s < pattern.nfa().num_states(); ++s) nfa_starts.push_back(s);
  }
};

const ChunkFixture& bible_fixture() {
  static const ChunkFixture fixture(bible_workload());
  return fixture;
}
const ChunkFixture& traffic_fixture() {
  static const ChunkFixture fixture(traffic_workload());
  return fixture;
}

// Every deterministic shape runs twice: through the production chunk
// walker (run_chunk_det, series label "walker") and through the seed
// oracle (run_chunk_det_reference, label "reference"), so each walker row
// has its A/B baseline next to it.
using ChunkFn = DetChunkResult (*)(const Dfa&, std::span<const Symbol>,
                                   std::span<const State>, const DetChunkOptions&);

const char* impl_label(ChunkFn run) {
  return run == &run_chunk_det_reference ? "reference" : "walker";
}

std::string mode_label(const benchmark::State& state, ChunkFn run) {
  return std::string(state.range(0) ? "convergent/" : "independent/") + impl_label(run);
}

// The many-starts shape: >= 16 speculative starts over a 64 KiB chunk
// (bible's minimal DFA has 17 states). Arg: convergence.
void BM_DetKernelAllStarts_Winning(benchmark::State& state, ChunkFn run) {
  const ChunkFixture& f = bible_fixture();
  const DetChunkOptions options{.convergence = state.range(0) != 0};
  for (auto _ : state) {
    const DetChunkResult result =
        run(f.pattern.min_dfa(), f.chunk, f.dfa_starts, options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetLabel(mode_label(state, run));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK_CAPTURE(BM_DetKernelAllStarts_Winning, walker, &run_chunk_det)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetKernelAllStarts_Winning, reference, &run_chunk_det_reference)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_DetKernelAllStarts_Even(benchmark::State& state, ChunkFn run) {
  const ChunkFixture& f = traffic_fixture();
  const DetChunkOptions options{.convergence = state.range(0) != 0};
  for (auto _ : state) {
    const DetChunkResult result =
        run(f.pattern.min_dfa(), f.chunk, f.dfa_starts, options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetLabel(mode_label(state, run));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK_CAPTURE(BM_DetKernelAllStarts_Even, walker, &run_chunk_det)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetKernelAllStarts_Even, reference, &run_chunk_det_reference)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The paper's RID shape: the interface starts of bible's RI-DFA, which
// collapse to under two live runs within a few symbols.
void BM_RidKernelInterfaceStarts(benchmark::State& state, ChunkFn run) {
  const ChunkFixture& f = bible_fixture();
  for (auto _ : state) {
    const DetChunkResult result = run(f.pattern.ridfa().dfa(), f.chunk,
                                      f.pattern.ridfa().initial_states(), {});
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetLabel(impl_label(run));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK_CAPTURE(BM_RidKernelInterfaceStarts, walker, &run_chunk_det)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RidKernelInterfaceStarts, reference, &run_chunk_det_reference)
    ->Unit(benchmark::kMillisecond);

// The many-live-runs sweep across the three table widths: synthetic cycle
// DFAs sized to force u8 / u16 / i32 packing, 64 speculative starts that
// all survive a 64 KiB chunk — the pure gather shape, where the per-symbol
// advance is everything. Cycle steps preserve start distinctness, so the
// convergent rows keep every group live too (no collapse to the lone-run
// loop). Args: (width: 0=u8 1=u16 2=i32, convergence).
Dfa cycle_dfa(std::int32_t n) {
  Dfa dfa = Dfa::with_identity_alphabet(2);
  for (std::int32_t s = 0; s < n; ++s) dfa.add_state(s == n - 1);
  dfa.set_initial(0);
  for (std::int32_t s = 0; s < n; ++s) dfa.set_transition(s, 0, (s + 1) % n);
  dfa.set_transition(0, 1, 0);  // symbol 1 is dead everywhere else
  return dfa;
}

void BM_GatherWidthSweep(benchmark::State& state, ChunkFn run) {
  static const Dfa u8_dfa = cycle_dfa(200);
  static const Dfa u16_dfa = cycle_dfa(4000);
  static const Dfa i32_dfa = cycle_dfa(70000);
  const Dfa& dfa =
      state.range(0) == 0 ? u8_dfa : (state.range(0) == 1 ? u16_dfa : i32_dfa);
  static const std::vector<Symbol> chunk(1u << 16, 0);  // every run survives
  std::vector<State> starts;
  Prng prng(7);
  for (int i = 0; i < 64; ++i)
    starts.push_back(static_cast<State>(
        prng.pick_index(static_cast<std::size_t>(dfa.num_states()))));
  const DetChunkOptions options{.convergence = state.range(1) != 0};
  for (auto _ : state) {
    const DetChunkResult result = run(dfa, chunk, starts, options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  const char* width = state.range(0) == 0 ? "u8" : (state.range(0) == 1 ? "u16" : "i32");
  state.SetLabel(std::string(width) + (state.range(1) ? "/convergent/" : "/") +
                 impl_label(run));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * chunk.size()));
}
BENCHMARK_CAPTURE(BM_GatherWidthSweep, walker, &run_chunk_det)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GatherWidthSweep, reference, &run_chunk_det_reference)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

// Governance-overhead series (the deadline_checkpoint rows of
// BENCH_chunk_kernels.json, guarded by CI's bench-compare gate): the same
// all-starts chunk run with an ACTIVE governor — a generous 1 h deadline
// that makes every stride poll take the real clock-read path but never
// trips — against the ungoverned baseline. The poll amortizes over
// kGovernorStride symbols (util/governance.hpp), so the governed rows must
// stay within the documented <2% of their baselines (docs/perf.md,
// "Checkpoint polling granularity"). Arg: governed.
void BM_DeadlineCheckpoint(benchmark::State& state, ChunkFn run) {
  const ChunkFixture& f = bible_fixture();
  static const QueryGovernor governor(std::chrono::hours(1), CancelToken{});
  DetChunkOptions options;
  if (state.range(0) != 0) options.governor = &governor;
  for (auto _ : state) {
    const DetChunkResult result =
        run(f.pattern.min_dfa(), f.chunk, f.dfa_starts, options);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetLabel(std::string(impl_label(run)) +
                 (state.range(0) ? "/governed" : "/baseline"));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK_CAPTURE(BM_DeadlineCheckpoint, walker, &run_chunk_det)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DeadlineCheckpoint, reference, &run_chunk_det_reference)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_NfaKernelAllStarts(benchmark::State& state) {
  const ChunkFixture& f = traffic_fixture();
  for (auto _ : state) {
    const NfaChunkResult result = run_chunk_nfa(f.pattern.nfa(), f.chunk, f.nfa_starts);
    benchmark::DoNotOptimize(result.lambda.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK(BM_NfaKernelAllStarts)->Unit(benchmark::kMillisecond);

void BM_SingleDfaRun(benchmark::State& state) {
  // The non-speculative baseline: one run over the chunk.
  const ChunkFixture& f = bible_fixture();
  const std::vector<State> one{f.pattern.min_dfa().initial()};
  for (auto _ : state) {
    const DetChunkResult result = run_chunk_det(f.pattern.min_dfa(), f.chunk, one);
    benchmark::DoNotOptimize(result.transitions);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.chunk.size()));
}
BENCHMARK(BM_SingleDfaRun)->Unit(benchmark::kMillisecond);

// The byte path end to end, gated beside the symbol-span rows above (the
// "walker" label puts it in tools/bench_compare.py's guarded series):
// Engine::recognize(string_view) at chunks = hardware_concurrency() over
// 1 MiB of the workload's text — every chunk walk reads its raw bytes
// through the pattern's map; pool fan-out and join included. Pooled, so
// wall-clock throughput plus process_cpu_ms. Args: (workload: 0=bible
// 1=traffic, variant: 0=RID 1=DFA).
struct RecognizeFixture {
  Engine engine;
  std::string text;

  explicit RecognizeFixture(const WorkloadSpec& spec)
      : engine(Pattern::from_nfa(glushkov_nfa(spec.regex()))), text([&] {
          Prng prng(stable_hash(spec.name) ^ 0xb17e5);
          return spec.text(1u << 20, prng);
        }()) {}
};

void BM_RecognizeBytes(benchmark::State& state) {
  static const RecognizeFixture bible(bible_workload());
  static const RecognizeFixture traffic(traffic_workload());
  const RecognizeFixture& f = state.range(0) == 0 ? bible : traffic;
  const QueryOptions options{
      .variant = state.range(1) == 0 ? Variant::kRid : Variant::kDfa,
      .chunks = std::max(1u, std::thread::hardware_concurrency())};
  const bench::ProcessCpuCounter cpu;
  for (auto _ : state) {
    const QueryResult result = f.engine.recognize(f.text, options);
    benchmark::DoNotOptimize(result.accepted);
  }
  cpu.report(state);
  state.SetLabel(std::string(state.range(0) == 0 ? "bible/" : "traffic/") +
                 variant_name(options.variant) + "/c=" + std::to_string(options.chunks) +
                 "/walker");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * f.text.size()));
}
BENCHMARK(BM_RecognizeBytes)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rispar::bench::run_benchmarks_with_default_out(
      argc, argv, "BENCH_chunk_kernels.json");
}
