// perfbench — rispar's benchmark program (run through perfbench/run.py).
//
//   perfbench --workload <paper_recognize|log_find>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//             < flattened config.json (see run.py)
//
// Prints human-readable summary lines, a `fingerprint {...}` line, and as
// the last line one JSON object {correct, attempted, failed, metrics}.
// Exit code 0 = correct, 1 = a correctness check failed, 2 = usage or
// set-up error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "util/cpuid.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_recognize|log_find> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> < config\n");
  return 2;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir = ".";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stod(value);
    else if (flag == "--trace") trace = std::stoi(value);
    else if (flag == "--work-dir") work_dir = value;
    else return usage();
  }
  if ((workload != "paper_recognize" && workload != "log_find") || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage();

  Outcome outcome;
  try {
    const Config config = Config::read(std::cin);
    const RunArgs args{config, seed, seconds, trace == 1, work_dir};
    if (args.trace) outcome = run_traced(workload, args);
    else if (workload == "paper_recognize") outcome = run_paper_recognize(args);
    else outcome = run_log_find(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
  if (trace == 0) {
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
    outcome.add("ok_ratio",
                outcome.attempted == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(outcome.failed) /
                                static_cast<double>(outcome.attempted),
                "ratio");
  }

  bool finite = true;
  std::printf("%s metrics (seed %llu, %s):\n", workload.c_str(),
              static_cast<unsigned long long>(seed), trace ? "traced" : "untraced");
  for (const Metric& m : outcome.metrics) {
    say(m.name, m.value, m.unit);
    finite = finite && std::isfinite(m.value);
  }
  std::printf("  fail_ratio = %llu/%llu\n", static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  std::printf("fingerprint {\"nproc\": %u, \"avx2\": %s, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              host_threads(), rispar::cpu_has_avx2() ? "true" : "false",
              json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE);

  const bool correct = outcome.failed == 0 && outcome.attempted > 0 && finite;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
