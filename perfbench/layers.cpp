// The traced run: the workload loops with every other pass traced, then the
// probe suite. Every number comes from timing calls into a layer's public
// functions from outside, each call wrapped in a span (self time = duration
// minus the children's). The loops give the metrics of the calls they make
// (paper_recognize.cpp, log_find.cpp); the probes here time the calls the
// loops never make. Which end-to-end metric each per-layer metric should
// move, on which workload, is recorded in perfbench/layers.json.
#include <netinet/tcp.h>
#include <sys/stat.h>

#include <cstdio>
#include <numeric>
#include <optional>

#include "automata/searcher.hpp"
#include "core/serial_match.hpp"
#include "engine/engine.hpp"
#include "engine/pattern_set.hpp"
#include "parallel/ca_run.hpp"
#include "regex/parser.hpp"
#include "stream_client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rd = rispar::rispard;
using rispar::BeginMode;
using rispar::Engine;
using rispar::Pattern;

namespace {

constexpr int kReps = 3;
constexpr std::uint64_t kBenchStride = 1000;  ///< op id = bench * stride + rep

/// Median over the reps of bench `bench` of the per-op summed self time.
double bench_median(const Tracer& t, const char* name, std::size_t bench) {
  std::vector<double> values;
  for (const auto& [op, seconds] : t.self_by_op(name))
    if (op / kBenchStride == bench) values.push_back(seconds);
  return median(values);
}

void regex_and_automata(const RunArgs& args, const std::vector<PaperBench>& benches,
                        Tracer& t, Outcome& out) {
  const std::vector<std::string> patterns = log_patterns(args.config);
  double dfa_states = 0, searcher_states = 0;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    for (const PaperBench& bench : benches) {
      const Tracer::Scope s(t, "regex.parse_regex", rep);
      (void)rispar::parse_regex(bench.regex);
    }
    for (const std::string& regex : patterns) {
      {
        const Tracer::Scope s(t, "regex.parse_regex", rep);
        (void)rispar::parse_regex(regex);
      }
      std::optional<Pattern> pattern;
      {
        const Tracer::Scope s(t, "automata.Pattern::compile", rep);
        pattern.emplace(Pattern::compile(regex));
      }
      {
        const Tracer::Scope s(t, "automata.searcher", rep);
        (void)pattern->searcher();
      }
      {
        const Tracer::Scope s(t, "automata.reverse_begins", rep);
        (void)pattern->reverse_begins();
      }
      if (rep == 0) {
        dfa_states += pattern->min_dfa().num_states();
        searcher_states += pattern->searcher().num_states();
      }
    }
  }
  out.add("regex.parse_s", t.median_self_per_op("regex.parse_regex"), "s");
  out.add("automata.compile_s", t.median_self_per_op("automata.Pattern::compile"), "s");
  out.add("automata.searcher_build_s", t.median_self_per_op("automata.searcher"), "s");
  out.add("automata.reverse_build_s", t.median_self_per_op("automata.reverse_begins"), "s");
  out.add("automata.dfa_states", dfa_states, "count");
  out.add("automata.searcher_states", searcher_states, "count");
}

/// The kernels under the parallel recognizers, one benchmark at a time:
/// the serial oracle over the whole text and one speculative chunk (the
/// second of nproc) run from each device's start set.
void core_and_parallel(const std::vector<PaperBench>& benches, Tracer& t, Outcome& out) {
  const unsigned nproc = host_threads();
  for (std::size_t b = 0; b < benches.size(); ++b) {
    const PaperBench& bench = benches[b];
    const Engine engine(Pattern::compile(bench.regex), {.threads = 1});
    const Pattern& pattern = engine.pattern();
    const std::vector<rispar::Symbol> symbols = engine.translate(bench.member);
    out.add("core.rid_starts." + bench.name, pattern.ridfa().initial_count(), "count");
    out.add("core.dfa_starts." + bench.name, pattern.min_dfa().num_states(), "count");

    const std::size_t chunk_len = symbols.size() / nproc;
    const std::span<const rispar::Symbol> chunk(symbols.data() + chunk_len, chunk_len);
    std::vector<rispar::State> all_states(static_cast<std::size_t>(pattern.min_dfa().num_states()));
    std::iota(all_states.begin(), all_states.end(), 0);
    for (std::uint64_t rep = 0; rep < kReps; ++rep) {
      const std::uint64_t op = b * kBenchStride + rep;
      {
        const Tracer::Scope s(t, "core.serial_match", op);
        out.check(rispar::serial_match(pattern.min_dfa(), symbols).accepted,
                  bench.name + ": serial_match rejects the member text");
      }
      {
        const Tracer::Scope s(t, "parallel.run_chunk_det.rid", op);
        (void)rispar::run_chunk_det(pattern.ridfa().dfa(), chunk, pattern.ridfa().initial_states());
      }
      {
        const Tracer::Scope s(t, "parallel.run_chunk_det.dfa", op);
        (void)rispar::run_chunk_det(pattern.min_dfa(), chunk, all_states);
      }
    }
    out.add("core.serial_mbps." + bench.name,
            static_cast<double>(bench.member.size()) / bench_median(t, "core.serial_match", b) / 1e6,
            "MB/s");
    const auto chunk_mb = static_cast<double>(chunk_len) / 1e6;
    out.add("parallel.chunk_kernel_mbps.rid." + bench.name,
            chunk_mb / bench_median(t, "parallel.run_chunk_det.rid", b), "MB/s");
    out.add("parallel.chunk_kernel_mbps.dfa." + bench.name,
            chunk_mb / bench_median(t, "parallel.run_chunk_det.dfa", b), "MB/s");
  }
  rispar::ThreadPool pool(nproc);
  for (std::uint64_t rep = 0; rep < 200; ++rep) {
    const Tracer::Scope s(t, "parallel.ThreadPool::run", rep);
    pool.run(nproc, [](std::size_t) {});
  }
  out.add("parallel.pool_run_us", median(t.self_times("parallel.ThreadPool::run")) * 1e6, "us");
}

/// In-process streaming: a single-pattern and a whole-catalog session fed
/// the same 4 KiB windows the server sees; checkpoint and resume.
double engine_stream(const std::string& stream, std::size_t window,
                     const std::vector<Pattern>& patterns, Tracer& t, Outcome& out) {
  const std::size_t windows = std::min<std::size_t>(200, stream.size() / window);
  const Engine engine(patterns.front(), {.threads = host_threads()});
  rispar::StreamSession single = engine.stream({.positions = true});
  const rispar::PatternSet set(patterns, {.threads = host_threads()});
  rispar::MultiStreamSession multi = set.stream_find();
  for (std::size_t w = 0; w < windows; ++w) {
    const std::string_view bytes = std::string_view(stream).substr(w * window, window);
    {
      const Tracer::Scope s(t, "engine.StreamSession::feed", w);
      single.feed(bytes);
    }
    (void)single.take_matches();
    {
      const Tracer::Scope s(t, "engine.MultiStreamSession::feed", w);
      multi.feed(bytes);
    }
    (void)multi.take_matches();
  }
  std::string blob;
  for (std::uint64_t rep = 0; rep < 50; ++rep) {
    {
      const Tracer::Scope s(t, "engine.checkpoint", rep);
      blob = multi.checkpoint();
    }
    const Tracer::Scope s(t, "engine.resume_stream", rep);
    (void)set.resume_stream(blob);
  }
  const double feed_us = median(t.self_times("engine.StreamSession::feed")) * 1e6;
  out.add("engine.stream_feed_us", feed_us, "us");
  out.add("engine.stream_feed_us.multi",
          median(t.self_times("engine.MultiStreamSession::feed")) * 1e6, "us");
  out.add("engine.checkpoint_us", median(t.self_times("engine.checkpoint")) * 1e6, "us");
  out.add("engine.checkpoint_bytes", static_cast<double>(blob.size()), "B");
  out.add("engine.resume_us", median(t.self_times("engine.resume_stream")) * 1e6, "us");
  return feed_us;
}

void bundle_load(const std::string& path, const std::vector<Pattern>& patterns, Tracer& t,
                 Outcome& out) {
  Pattern::save_bundle_many(path, patterns);
  struct stat info{};
  ::stat(path.c_str(), &info);
  for (std::uint64_t rep = 0; rep < 5; ++rep)
    for (std::uint32_t i = 0; i < patterns.size(); ++i) {
      const Tracer::Scope s(t, "bundle.Pattern::load_mapped", rep);
      (void)Pattern::load_mapped(path, i);
    }
  out.add("bundle.load_s", t.median_self_per_op("bundle.Pattern::load_mapped"), "s");
  out.add("bundle.bytes", static_cast<double>(info.st_size), "B");
}

/// Blocking request/response on one connection: sends `request`, then
/// reads frames until one of type `until` arrives.
bool round_trip(int fd, rd::FrameReader& reader, const std::string& request,
                rd::FrameType until) {
  if (!rd::send_all(fd, request)) return false;
  rd::Frame frame;
  while (rd::recv_frame(fd, reader, frame)) {
    if (frame.type == until) return true;
    if (frame.type != rd::FrameType::kMatches) return false;
  }
  return false;
}

void server_from_outside(const RunArgs& args, const std::string& bundle,
                         const std::string& stream, double engine_feed_us, Tracer& t,
                         Outcome& out) {
  const auto window = static_cast<std::size_t>(args.config.num("stream.window_bytes"));
  const std::size_t windows = std::min<std::size_t>(200, stream.size() / window);
  const LiveServer server(bundle);
  const int fd = rd::connect_backoff(server.port());
  out.check(fd >= 0, "connect to rispard");
  rd::FrameReader reader;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  out.check(round_trip(fd, reader, rd::make_open_session(1, 0, 0, 1), rd::FrameType::kOpened),
            "OPENED");
  for (std::size_t w = 0; w < windows; ++w) {
    const Tracer::Scope s(t, "rispard.feed_round_trip", w);
    out.check(round_trip(fd, reader,
                         rd::make_feed(1, std::string_view(stream).substr(w * window, window)),
                         rd::FrameType::kFed),
              "FED");
  }
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    const Tracer::Scope s(t, "rispard.checkpoint_round_trip", rep);
    out.check(round_trip(fd, reader, rd::make_checkpoint(1), rd::FrameType::kCheckpointed),
              "CHECKPOINTED");
  }
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    const Tracer::Scope s(t, "rispard.reload_round_trip", rep);
    out.check(round_trip(fd, reader, rd::make_reload(bundle + "\n"), rd::FrameType::kReloaded),
              "RELOADED");
  }
  rd::Frame frame;
  out.check(rd::send_all(fd, rd::make_stats()) && rd::recv_frame(fd, reader, frame) &&
                frame.type == rd::FrameType::kStatsJson,
            "STATS_JSON");
  const std::string stats(frame.payload);
  ::close(fd);

  out.add("server.overhead_us",
          median(t.self_times("rispard.feed_round_trip")) * 1e6 - engine_feed_us, "us");
  out.add("server.checkpoint_rtt_ms", median(t.self_times("rispard.checkpoint_round_trip")) * 1e3,
          "ms");
  out.add("server.reload_ms", median(t.self_times("rispard.reload_round_trip")) * 1e3, "ms");
  const double error_frames = stats_number(stats, "error_frames");
  const double feed_rejects = stats_number(stats, "feed_rejects");
  out.check(error_frames == 0 && feed_rejects == 0, "STATS_JSON: no error frames, no feed rejects");
  out.add("server.error_frames", error_frames, "count");
  out.add("server.feed_rejects", feed_rejects, "count");

  // The frame codec alone: FrameReader over a buffer of FEED frames, and
  // make_feed per window.
  std::string frames;
  for (std::size_t w = 0; w < windows; ++w)
    frames += rd::make_feed(1, std::string_view(stream).substr(w * window, window));
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    const Tracer::Scope s(t, "rispard.FrameReader", rep);
    rd::FrameReader decoder;
    decoder.append(frames.data(), frames.size());
    std::size_t count = 0;
    while (decoder.next(frame)) ++count;
    out.check(count == windows, "FrameReader pops every frame");
  }
  out.add("server.frame_decode_mbps",
          static_cast<double>(frames.size()) / median(t.self_times("rispard.FrameReader")) / 1e6,
          "MB/s");
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    const Tracer::Scope s(t, "rispard.make_feed.batch", rep);
    for (std::size_t w = 0; w < windows; ++w)
      (void)rd::make_feed(1, std::string_view(stream).substr(w * window, window));
  }
  out.add("server.frame_encode_us",
          median(t.self_times("rispard.make_feed.batch")) * 1e6 / static_cast<double>(windows),
          "us");
}

/// One second of open load at the nominal rate: how late the generator
/// runs while it also drains acknowledgements. Above a few milliseconds
/// the open-loop figures of a run measure the generator, not the server.
void loadgen_lag(const RunArgs& args, const std::string& bundle, const std::string& stream,
                 const std::vector<Pattern>& patterns, Outcome& out) {
  const rispar::PatternSet set(patterns, {.threads = host_threads()});
  const std::vector<rispar::Match> expected[2] = {
      set.find_all(stream, {.begin_mode = BeginMode::kSeparator}),
      set.find_all(stream, {.begin_mode = BeginMode::kExact})};
  const LiveServer server(bundle);
  StreamPlan plan;
  plan.port = server.port();
  plan.stream = stream;
  plan.window_bytes = static_cast<std::size_t>(args.config.num("stream.window_bytes"));
  plan.connections = host_threads();
  plan.catalog_size = static_cast<std::uint32_t>(patterns.size());
  plan.expected[0] = &expected[0];
  plan.expected[1] = &expected[1];
  OpenLoopClient client(plan, out);
  client.run(args.config.num("stream.nominal_feeds_per_s"), 1.0);
  client.finish();
  if (client.mislabeled_matches != 0)
    std::printf("KNOWN DEFECT: %llu single-pattern matches arrived tagged with a pattern id "
                "other than the catalog id docs/rispard.md specifies\n",
                static_cast<unsigned long long>(client.mislabeled_matches));
  out.add("loadgen.lag_p99_ms", quantile(client.lag_ms, 0.99), "ms");
}

}  // namespace

Outcome run_traced(const std::string& workload, const RunArgs& args) {
  // The workload's own loop runs longest: its trace.overhead_share is the
  // one reported.
  constexpr double kOwnShare = 0.4, kOtherShare = 0.15;
  const bool paper = workload == "paper_recognize";
  Outcome outcome;
  Tracer tracer(true);
  const double paper_overhead = trace_paper_recognize(
      args, args.seconds * (paper ? kOwnShare : kOtherShare), tracer, outcome);
  const double log_overhead =
      trace_log_find(args, args.seconds * (paper ? kOtherShare : kOwnShare), tracer, outcome);
  outcome.add("trace.overhead_share", paper ? paper_overhead : log_overhead, "ratio");

  const std::vector<PaperBench> benches = paper_benches(args);
  regex_and_automata(args, benches, tracer, outcome);
  core_and_parallel(benches, tracer, outcome);
  std::vector<Pattern> patterns;
  for (const std::string& regex : log_patterns(args.config))
    patterns.push_back(Pattern::compile(regex));
  const auto window = static_cast<std::size_t>(args.config.num("stream.window_bytes"));
  const std::string stream =
      log_input(args, window * static_cast<std::size_t>(args.config.num("stream.session_windows")));
  const double feed_us = engine_stream(stream, window, patterns, tracer, outcome);
  const std::string bundle = args.work_dir + "/layers.rpb";
  bundle_load(bundle, patterns, tracer, outcome);
  server_from_outside(args, bundle, stream, feed_us, tracer, outcome);
  loadgen_lag(args, bundle, stream, patterns, outcome);

  tracer.print_summary();
  tracer.write_json(args.work_dir + "/trace_" + workload + ".json");
  return outcome;
}

}  // namespace perfbench
