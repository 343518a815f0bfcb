// Table 3 — for every benchmark at maximum (scaled) text size: the speedup
// of RID over the DFA and NFA variants (ratio of execution times at the
// same chunk count) and the corresponding transition ratios.
//
// The paper uses 58 threads on a 64-core machine. The default here is the
// host's hardware thread count, so every chunk has a core of its own;
// `--threads 58` reproduces the paper's chunk count (oversubscribed on
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

int main(int argc, char** argv) {
  Cli cli("table3_speedup", "Tab. 3: speedup of RID vs the DFA and NFA variants");
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  cli.add_option("threads", std::to_string(hardware),
                 "chunk/thread count (default: hardware threads; paper: 58)");
  cli.add_option("scale", "1.0", "text-size scale factor");
  cli.add_option("k", "6", "regexp family parameter k");
  cli.add_option("seed", "3", "text generation seed");
  cli.add_option("min-seconds", "0.25", "measurement budget per variant");
  if (!cli.parse(argc, argv)) return 0;

  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  const double scale = cli.get_double("scale");
  const double budget = cli.get_double("min-seconds");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::printf("=== Table 3: %zu threads (host has %u hardware threads) ===\n\n",
              threads, std::thread::hardware_concurrency());

  Table table({"benchmark", "group", "DFA/RID speedup", "NFA/RID speedup",
               "DFA/RID transitions", "NFA/RID transitions", "text (MB)"});

  for (const auto& spec : benchmark_suite(static_cast<int>(cli.get_int("k")))) {
    const std::size_t bytes = scaled_bytes(spec.paper_bytes, scale);
    const Prepared prepared(spec, bytes, seed, static_cast<unsigned>(threads));
    const QueryOptions rid_options{.variant = Variant::kRid, .chunks = threads};
    const QueryOptions dfa_options{.variant = Variant::kDfa, .chunks = threads};
    const QueryOptions nfa_options{.variant = Variant::kNfa, .chunks = threads};

    const double rid_time = timed_recognition(prepared, rid_options, budget);
    const double dfa_time = timed_recognition(prepared, dfa_options, budget);
    const double nfa_time = timed_recognition(prepared, nfa_options, budget);

    const auto dfa_trans = transitions_of(prepared, dfa_options);
    const auto nfa_trans = transitions_of(prepared, nfa_options);
    const auto rid_trans = transitions_of(prepared, rid_options);

    table.add_row(
        {spec.name, spec.winning ? "winning" : "even",
         Table::ratio(dfa_time, rid_time), Table::ratio(nfa_time, rid_time),
         Table::ratio(static_cast<double>(dfa_trans), static_cast<double>(rid_trans)),
         Table::ratio(static_cast<double>(nfa_trans), static_cast<double>(rid_trans)),
         Table::cell(static_cast<double>(prepared.input.size()) / (1 << 20), 2)});
  }
  table.render(std::cout);

  std::puts("\npaper (Tab. 3): bigdata 1.01/73.2, regexp 6.31/56.6, bible 3.07/84.2,");
  std::puts("fasta 0.94/38.9, traffic 0.97/109.6 (DFA/RID and NFA/RID speedups);");
  std::puts("expected shape: even group ~1, winning group >1, NFA always >>1.");
  return 0;
}
