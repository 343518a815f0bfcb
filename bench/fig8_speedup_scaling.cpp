// Figure 8 — sensitivity of the RID-vs-DFA speedup for the winning
// benchmarks (bible, regexp):
//   8a/8b: speedup vs number of threads/chunks at fixed (maximum) text size;
//   8c/8d: speedup vs text size at a fixed thread count.
//
// Speedup = exec time of the DFA variant / exec time of RID at the same c.
// The defaults stop at the host's hardware thread count, so every chunk
// has a core of its own; `--threads 2,6,10,18,26,34,42,50,58
// --fixed-threads 58` reproduces the paper's sweep (oversubscribed on
// smaller hosts).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace rispar;
using namespace rispar::bench;

namespace {

/// 1, 2, 4, ... below the host's hardware thread count, then that count.
std::string default_thread_sweep(unsigned hardware) {
  std::string sweep;
  for (unsigned t = 1; t < hardware; t *= 2) sweep += std::to_string(t) + ",";
  return sweep + std::to_string(hardware);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  Cli cli("fig8_speedup_scaling", "Fig. 8: RID vs DFA speedup scaling");
  cli.add_option("threads", default_thread_sweep(hardware),
                 "thread sweep for Fig. 8a/8b (default: powers of two up to the "
                 "hardware threads; paper: 2..66)");
  cli.add_option("fixed-threads", std::to_string(hardware),
                 "thread count for Fig. 8c/8d (default: hardware threads; paper: 58)");
  cli.add_option("scale", "1.0", "text-size scale factor");
  cli.add_option("k", "6", "regexp family parameter k");
  cli.add_option("seed", "8", "text generation seed");
  cli.add_option("min-seconds", "0.15", "measurement budget per point");
  if (!cli.parse(argc, argv)) return 0;

  const double scale = cli.get_double("scale");
  const double budget = cli.get_double("min-seconds");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto thread_sweep = cli.get_int_list("threads");
  const auto fixed_threads = static_cast<std::size_t>(cli.get_int("fixed-threads"));

  std::printf("=== Fig. 8 (host has %u hardware threads; beyond that the curve "
              "flattens) ===\n",
              std::thread::hardware_concurrency());

  const std::vector<WorkloadSpec> winning{
      bible_workload(), regexp_workload(static_cast<int>(cli.get_int("k")))};

  // --- Fig. 8a / 8b: speedup vs threads at max text size -------------------
  for (const auto& spec : winning) {
    const std::size_t bytes = scaled_bytes(spec.paper_bytes, scale);
    const Prepared prepared(spec, bytes, seed);
    std::printf("\n--- Fig. 8%c: %s, %.2f MB, speedup vs #threads ---\n",
                spec.name == "bible" ? 'a' : 'b', spec.name.c_str(),
                static_cast<double>(prepared.input.size()) / (1 << 20));
    Table table({"threads", "DFA time (ms)", "RID time (ms)", "speedup DFA/RID"});
    for (const auto threads : thread_sweep) {
      // One Engine per pool size; the compiled Pattern is shared.
      const Engine engine(prepared.engine.pattern(),
                          {.threads = static_cast<unsigned>(threads)});
      const auto chunks = static_cast<std::size_t>(threads);
      const double rid = timed_recognition(
          engine, prepared.name, prepared.input,
          {.variant = Variant::kRid, .chunks = chunks}, budget);
      const double dfa = timed_recognition(
          engine, prepared.name, prepared.input,
          {.variant = Variant::kDfa, .chunks = chunks}, budget);
      table.add_row({Table::cell(threads), Table::cell(dfa * 1e3, 3),
                     Table::cell(rid * 1e3, 3), Table::ratio(dfa, rid)});
    }
    table.render(std::cout);
  }

  // --- Fig. 8c / 8d: speedup vs text size at fixed threads -----------------
  for (const auto& spec : winning) {
    std::printf("\n--- Fig. 8%c: %s, speedup vs text size at %zu threads ---\n",
                spec.name == "bible" ? 'c' : 'd', spec.name.c_str(), fixed_threads);
    Table table({"text size (KB)", "DFA time (ms)", "RID time (ms)", "speedup DFA/RID"});
    const std::size_t max_bytes = scaled_bytes(spec.paper_bytes, scale);
    for (int step = 1; step <= 6; ++step) {
      const std::size_t bytes = max_bytes * static_cast<std::size_t>(step) / 6;
      if (bytes < 4096) continue;
      const Prepared prepared(spec, bytes, seed,
                              static_cast<unsigned>(fixed_threads));
      const double rid = timed_recognition(
          prepared, {.variant = Variant::kRid, .chunks = fixed_threads}, budget);
      const double dfa = timed_recognition(
          prepared, {.variant = Variant::kDfa, .chunks = fixed_threads}, budget);
      table.add_row(
          {Table::cell(static_cast<std::uint64_t>(prepared.input.size() / 1024)),
                     Table::cell(dfa * 1e3, 3), Table::cell(rid * 1e3, 3),
                     Table::ratio(dfa, rid)});
    }
    table.render(std::cout);
  }

  std::puts("\npaper shapes: 8a/8b speedup decreases as the fixed text is cut into");
  std::puts("more chunks; 8c/8d speedup grows with text length at fixed threads.");
  return 0;
}
