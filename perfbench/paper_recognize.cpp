// paper_recognize: the paper's own experiment (Tab. 3). One caller in a
// closed loop alternates RID and DFA Engine::recognize over the five
// benchmark texts at chunks = the host's thread count.
//
//   main     = RID recognize calls
//   contrast = DFA recognize calls
//
// Every call is timed on the wall clock and in process CPU time. The gated
// rates are one pass over the five texts divided by the sum of their median
// CPU times per call (main_mb_per_cpu_s, alt_mb_per_cpu_s); the wall-clock
// rid_mbps and dfa_mbps, the same over median wall times, are printed.
#include <cstdio>
#include <memory>

#include "engine/engine.hpp"
#include "gen.hpp"
#include "workloads.hpp"

namespace perfbench {

using rispar::Engine;
using rispar::EngineConfig;
using rispar::Pattern;
using rispar::QueryOptions;
using rispar::Variant;

std::vector<PaperBench> paper_benches(const RunArgs& args) {
  std::vector<PaperBench> benches;
  std::uint64_t index = 0;
  for (const std::vector<std::string>& f : args.config.all("paper.bench")) {
    // name, group, bytes, paper DFA/RID speedup, paper transition ratio, regex
    PaperBench bench{f.at(0), f.at(1), f.at(5), f.at(3), f.at(4), {}, {}};
    Rng rng(input_seed(args.seed, index++));
    bench.member = paper_text(bench.name, std::stoull(f.at(2)), rng);
    bench.non_member = non_member(bench.name, bench.member);
    benches.push_back(std::move(bench));
  }
  return benches;
}

namespace {

struct Built {
  std::shared_ptr<rispar::ThreadPool> pool;
  std::vector<std::unique_ptr<Engine>> engines;
};

/// Compiles every pattern and builds its Engine on one shared pool; the
/// RI-DFA and minimal DFA are built (and their packed tables warmed) by the
/// Engine's devices, and one small call per variant settles the rest.
Built build(const std::vector<PaperBench>& benches) {
  Built built;
  built.pool = std::make_shared<rispar::ThreadPool>(host_threads());
  EngineConfig config;
  config.shared_pool = built.pool;
  for (const PaperBench& bench : benches) {
    built.engines.push_back(std::make_unique<Engine>(Pattern::compile(bench.regex), config));
    const std::string_view head = std::string_view(bench.member).substr(0, 4096);
    for (const Variant variant : {Variant::kRid, Variant::kDfa})
      (void)built.engines.back()->recognize(head, QueryOptions{.variant = variant, .chunks = 2});
  }
  return built;
}

struct Samples {
  std::vector<double> rid_s, dfa_s, rid_cpu_s;  // per call
  std::vector<double> reach_share, join_share;   // per RID call, from its QueryResult
  std::vector<std::vector<double>> rid_by_bench, dfa_by_bench;          // wall
  std::vector<std::vector<double>> rid_cpu_by_bench, dfa_cpu_by_bench;  // process CPU
  std::vector<std::uint64_t> rid_transitions, dfa_transitions;
};

/// Bytes of one pass over every text divided by the sum of the per-text
/// median call times (wall or CPU): a rate a stalled call cannot skew.
double robust_mbps(const std::vector<PaperBench>& benches,
                   const std::vector<std::vector<double>>& by_bench) {
  double bytes = 0, seconds = 0;
  for (std::size_t b = 0; b < benches.size(); ++b) {
    bytes += static_cast<double>(benches[b].member.size());
    seconds += median(by_bench[b]);
  }
  return bytes / seconds / 1e6;
}

/// The closed loop: RID then DFA on each text in turn until `seconds`
/// pass. Every result is checked against the serial oracle. With a
/// tracer, every other pass is traced into `traced` (each RID call split
/// into its translate and symbol-recognize calls), so both halves see the
/// same host conditions.
void loop(const std::vector<PaperBench>& benches, const Built& built, double seconds,
          Tracer* tracer, Samples& plain, Samples* traced, Outcome& outcome) {
  const QueryOptions rid{.variant = Variant::kRid, .chunks = host_threads()};
  const QueryOptions dfa{.variant = Variant::kDfa, .chunks = host_threads()};
  for (Samples* s : {&plain, traced}) {
    if (s == nullptr) continue;
    s->rid_by_bench.resize(benches.size());
    s->dfa_by_bench.resize(benches.size());
    s->rid_cpu_by_bench.resize(benches.size());
    s->dfa_cpu_by_bench.resize(benches.size());
    s->rid_transitions.assign(benches.size(), 0);
    s->dfa_transitions.assign(benches.size(), 0);
  }
  Tracer off(false);
  const Clock::time_point start = Clock::now();
  std::uint64_t op = 0;
  // A traced loop makes at least one traced pass, however short `seconds`.
  const std::uint64_t min_passes = tracer != nullptr ? 2 : 1;
  for (std::uint64_t pass = 0;
       pass < min_passes || seconds_between(start, Clock::now()) < seconds; ++pass) {
    const bool trace = tracer != nullptr && traced != nullptr && pass % 2 == 1;
    Tracer& t = trace ? *tracer : off;
    Samples& s = trace ? *traced : plain;
    for (std::size_t b = 0; b < benches.size(); ++b, ++op) {
      const Engine& engine = *built.engines[b];
      const std::string& text = benches[b].member;
      rispar::QueryResult r;
      const double c0 = process_cpu_seconds();
      Clock::time_point t0 = Clock::now();
      if (trace) {
        const Tracer::Scope scope(t, "op.recognize_rid", op);
        std::vector<rispar::Symbol> symbols;
        {
          const Tracer::Scope translate(t, "engine.translate", op);
          symbols = engine.translate(text);
        }
        const Tracer::Scope reach(t, "engine.recognize_symbols", op);
        r = engine.recognize(std::span<const rispar::Symbol>(symbols), rid);
      } else {
        r = engine.recognize(text, rid);
      }
      const double rid_s = seconds_between(t0, Clock::now());
      const double c1 = process_cpu_seconds();
      outcome.check(r.accepted, benches[b].name + ": RID rejected a member text");
      rispar::QueryResult d;
      t0 = Clock::now();
      {
        const Tracer::Scope scope(t, "op.recognize_dfa", op);
        d = engine.recognize(text, dfa);
      }
      const double dfa_s = seconds_between(t0, Clock::now());
      const double c2 = process_cpu_seconds();
      outcome.check(d.accepted, benches[b].name + ": DFA rejected a member text");
      s.rid_s.push_back(rid_s);
      s.dfa_s.push_back(dfa_s);
      s.rid_cpu_s.push_back(c1 - c0);
      s.rid_by_bench[b].push_back(rid_s);
      s.dfa_by_bench[b].push_back(dfa_s);
      s.rid_cpu_by_bench[b].push_back(c1 - c0);
      s.dfa_cpu_by_bench[b].push_back(c2 - c1);
      s.reach_share.push_back(r.reach_seconds / rid_s);
      s.join_share.push_back(r.join_seconds / rid_s);
      s.rid_transitions[b] = r.transitions;
      s.dfa_transitions[b] = d.transitions;
    }
  }
}

/// Oracle gate before timing: the serial minimal-DFA run accepts every
/// member text, rejects every damaged one, and both parallel variants agree.
void check_oracles(const std::vector<PaperBench>& benches, const Built& built,
                   Outcome& outcome) {
  for (std::size_t b = 0; b < benches.size(); ++b) {
    const Engine& engine = *built.engines[b];
    const std::string& name = benches[b].name;
    outcome.check(engine.accepts(benches[b].member), name + ": oracle rejects the member text");
    outcome.check(!engine.accepts(benches[b].non_member),
                  name + ": oracle accepts the damaged text");
    for (const Variant variant : {Variant::kRid, Variant::kDfa})
      outcome.check(!engine.recognize(benches[b].non_member,
                                      QueryOptions{.variant = variant, .chunks = host_threads()})
                         .accepted,
                    name + ": " + rispar::variant_name(variant) + " accepts the damaged text");
  }
}

}  // namespace

double trace_paper_recognize(const RunArgs& args, double seconds, Tracer& tracer,
                             Outcome& outcome) {
  const std::vector<PaperBench> benches = paper_benches(args);
  const Built built = build(benches);
  check_oracles(benches, built, outcome);
  Samples plain, traced;
  const rispar::PoolStats before = built.pool->stats();
  loop(benches, built, seconds, &tracer, plain, &traced, outcome);
  const rispar::PoolStats after = built.pool->stats();

  for (std::size_t b = 0; b < benches.size(); ++b) {
    const auto bytes = static_cast<double>(benches[b].member.size());
    outcome.add("core.transitions_per_byte.rid." + benches[b].name,
                static_cast<double>(traced.rid_transitions[b]) / bytes, "1/B");
    outcome.add("core.transitions_per_byte.dfa." + benches[b].name,
                static_cast<double>(traced.dfa_transitions[b]) / bytes, "1/B");
  }
  outcome.add("parallel.reach_share", median(traced.reach_share), "ratio");
  outcome.add("parallel.join_share", median(traced.join_share), "ratio");
  outcome.add("parallel.pool_steals", static_cast<double>(after.stolen - before.stolen), "count");
  outcome.add("parallel.pool_rejected", static_cast<double>(after.rejected - before.rejected),
              "count");
  outcome.add("engine.translate_share",
              sum(tracer.self_times("engine.translate")) /
                  sum(tracer.durations("op.recognize_rid")),
              "ratio");
  return robust_mbps(benches, plain.rid_cpu_by_bench) /
             robust_mbps(benches, traced.rid_cpu_by_bench) -
         1.0;
}

Outcome run_paper_recognize(const RunArgs& args) {
  Outcome outcome;
  const std::vector<PaperBench> benches = paper_benches(args);

  const auto timed_build = [&benches](std::vector<double>& setups) {
    const double c0 = process_cpu_seconds();
    Built built = build(benches);
    setups.push_back(process_cpu_seconds() - c0);
    return built;
  };
  std::vector<double> setups;
  const Built built = timed_build(setups);
  check_oracles(benches, built, outcome);

  Samples s;
  // The other set-ups are spread over the run, between stretches of the
  // loop, so slow stretches of the host weigh on set-up and loop alike.
  const auto reps = static_cast<int>(args.config.num("setup_reps"));
  for (int rep = 1; rep <= reps; ++rep) {
    loop(benches, built, args.seconds / reps, nullptr, s, nullptr, outcome);
    if (rep < reps) (void)timed_build(setups);
  }

  std::printf("paper_recognize: %zu RID + %zu DFA calls at chunks=%u\n", s.rid_s.size(),
              s.dfa_s.size(), host_threads());
  std::printf("  Tab. 3 reproduction (informational, gates nothing):\n");
  std::printf("  %-8s %-8s %12s %12s %14s %14s\n", "bench", "group", "DFA/RID time",
              "paper", "DFA/RID trans", "paper");
  for (std::size_t b = 0; b < benches.size(); ++b) {
    const double bytes = static_cast<double>(benches[b].member.size());
    std::printf("  %-8s %-8s %12.3f %12s %14.2f %14s   (%.2f vs %.2f transitions/byte)\n",
                benches[b].name.c_str(), benches[b].group.c_str(),
                median(s.dfa_by_bench[b]) / median(s.rid_by_bench[b]),
                benches[b].paper_speedup.c_str(),
                static_cast<double>(s.dfa_transitions[b]) /
                    static_cast<double>(s.rid_transitions[b]),
                benches[b].paper_transitions.c_str(),
                static_cast<double>(s.dfa_transitions[b]) / bytes,
                static_cast<double>(s.rid_transitions[b]) / bytes);
  }
  const auto n = [](const std::vector<double>& v) { return "n=" + std::to_string(v.size()); };
  say("rid_mbps", robust_mbps(benches, s.rid_by_bench), "MB/s", n(s.rid_s) + ", wall clock");
  say("dfa_mbps", robust_mbps(benches, s.dfa_by_bench), "MB/s", n(s.dfa_s) + ", wall clock");
  say("rid_p50_ms", median(s.rid_s) * 1e3, "ms", n(s.rid_s) + ", wall clock");
  say("rid_p99_ms", quantile(s.rid_s, 0.99) * 1e3, "ms", n(s.rid_s) + ", wall clock");
  say("dfa_p99_ms", quantile(s.dfa_s, 0.99) * 1e3, "ms", n(s.dfa_s) + ", wall clock");
  outcome.add("setup_s", median(setups), "s");
  outcome.add("op_cpu_ms", median(s.rid_cpu_s) * 1e3, "ms");
  outcome.add("main_mb_per_cpu_s", robust_mbps(benches, s.rid_cpu_by_bench), "MB/cpu-s");
  outcome.add("alt_mb_per_cpu_s", robust_mbps(benches, s.dfa_cpu_by_bench), "MB/cpu-s");
  return outcome;
}

}  // namespace perfbench
