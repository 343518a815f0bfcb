// The two workloads and the traced run.
//
// Untraced runs (--trace 0) report the end-to-end metrics under the same
// names in both workloads, so that their runs line up:
//
//   setup_s            compile / build engines / warm lazy artifacts, up to
//                      the first timed operation: CPU seconds, median of
//                      `setup_reps` set-ups spread over the run
//   peak_rss_mb        peak resident set of the process
//   ok_ratio           1 - failed/attempted (failures: oracle mismatches)
//   op_cpu_ms          median CPU time of the workload's main operation
//   main_mb_per_cpu_s  bytes per CPU-second of the main operation
//   alt_mb_per_cpu_s   bytes per CPU-second of the contrast operation
//
// CPU time is process-wide (every thread) and leaves out the time the
// hypervisor steals from the vCPUs; on a shared host that steal moves
// wall-clock rates of a 4-thread job by a quarter between identical runs.
// The wall-clock rates and latency percentiles are printed in the summary
// lines. What "main" and "contrast" are is stated in each run_* function.
//
// Traced runs (--trace 1) report the per-layer metrics (run_traced).
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunArgs {
  const Config& config;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  /// Directory inside the checkout for run artifacts (bundles, traces).
  std::string work_dir;
};

Outcome run_paper_recognize(const RunArgs& args);
Outcome run_log_find(const RunArgs& args);

/// The workload loops of a traced run: `seconds` of the closed loop with
/// every other pass traced, plus the per-layer metrics that the traced
/// passes' spans and results give. Each returns the tracing overhead:
/// untraced over traced CPU-time rate, minus 1.
double trace_paper_recognize(const RunArgs& args, double seconds, Tracer& tracer,
                             Outcome& outcome);
double trace_log_find(const RunArgs& args, double seconds, Tracer& tracer, Outcome& outcome);

/// A traced run of `workload`: its own loop (for trace.overhead_share) and
/// a shorter stretch of the other's, then the probes of layers.cpp, so
/// that every traced run reports every per-layer metric.
Outcome run_traced(const std::string& workload, const RunArgs& args);

/// Seed of input `index` of a run: distinct streams per input.
inline std::uint64_t input_seed(std::uint64_t seed, std::uint64_t index) {
  return seed * 1000003ull + index * 7919ull + 17ull;
}

/// One benchmark of the paper's Tab. 3 suite with its generated inputs.
struct PaperBench {
  std::string name;
  std::string group;  ///< "winning" or "even"
  std::string regex;
  std::string paper_speedup;      ///< Tab. 3 DFA/RID time ratio (informational)
  std::string paper_transitions;  ///< the paper's DFA/RID transition ratio
  std::string member;
  std::string non_member;
};
std::vector<PaperBench> paper_benches(const RunArgs& args);

std::vector<std::string> log_patterns(const Config& config);
/// The first `bytes` of this seed's log text: traffic-format lines.
std::string log_input(const RunArgs& args, std::size_t bytes);

}  // namespace perfbench
