// Shared main() body of the JSON-emitting microbenchmarks: unless the
// caller passes --benchmark_out, results are also written as
// machine-readable JSON to `json_path` in the working directory, so CI and
// successive PRs can track throughput trajectories (docs/perf.md,
// "Measurement protocol"). One definition — the per-driver mains differ
// only in the output filename.
#pragma once

#include <benchmark/benchmark.h>
#include <time.h>

#include <cstring>
#include <string>
#include <vector>

namespace rispar::bench {

/// CPU seconds of the whole process, over every thread.
inline double process_cpu_seconds() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Rows that run on the thread pool report wall-clock throughput
/// (UseRealTime at registration): google-benchmark's own cpu_time covers
/// only the main thread, which idles while the workers scan. This side
/// counter keeps the CPU cost in view — process CPU milliseconds per
/// iteration, every worker included. Construct before the timed loop,
/// call report() after it.
class ProcessCpuCounter {
 public:
  ProcessCpuCounter() : start_(process_cpu_seconds()) {}
  void report(benchmark::State& state) const {
    state.counters["process_cpu_ms"] = benchmark::Counter(
        (process_cpu_seconds() - start_) * 1e3, benchmark::Counter::kAvgIterations);
  }

 private:
  double start_;
};

inline int run_benchmarks_with_default_out(int argc, char** argv,
                                           const char* json_path) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0 &&
        (argv[i][15] == '=' || argv[i][15] == '\0'))
      has_out = true;
  // Stable storage for the injected defaults (benchmark keeps pointers).
  std::string out_flag = std::string("--benchmark_out=") + json_path;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace rispar::bench
