// Shared pieces of the perfbench program: seeded generators, sample
// statistics, the metric record, the run configuration and the span tracer.
//
// Everything here lives in the benchmark, not in the library: a change to
// the program can never change the benchmark's inputs or how it measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// splitmix64: tiny, fully specified, identical on every platform, so one
/// seed always yields the same bytes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); the modulo bias is irrelevant at these bounds.
  std::size_t below(std::size_t bound) { return static_cast<std::size_t>(next() % bound); }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }
double sum(const std::vector<double>& values);

/// CPU time of every thread of this process so far. Time the hypervisor
/// steals from a vCPU is not in it, unlike wall-clock time.
double process_cpu_seconds();

/// Peak resident set of this process so far, in MB (10^6 bytes).
double peak_rss_mb();
unsigned host_threads();

// ------------------------------------------------------------ configuration

/// The constants of perfbench/config.json, flattened by run.py into
/// tab-separated lines on stdin: `key<TAB>field<TAB>field...`. A key may
/// repeat (one pattern per line).
class Config {
 public:
  static Config read(std::istream& in);
  const std::vector<std::vector<std::string>>& all(const std::string& key) const;
  const std::vector<std::string>& fields(const std::string& key) const;
  std::string str(const std::string& key) const { return fields(key).at(0); }
  double num(const std::string& key) const;
  std::vector<double> nums(const std::string& key) const;

 private:
  std::map<std::string, std::vector<std::vector<std::string>>> entries_;
};

// ------------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count every
/// checked operation; any failure makes the run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records one checked operation; prints the first few failures.
  void check(bool ok, const std::string& what);
};

/// "  name = value unit  [detail]" — the human-readable summary lines that
/// precede the final JSON line.
void say(const std::string& name, double value, const std::string& unit,
         const std::string& detail = "");

// ------------------------------------------------------------------- tracer

/// In-memory spans around the benchmark's calls into the library: name,
/// start, end, parent span and operation id. Nothing is written until the
/// run ends. Single-threaded: every traced call is made from the thread
/// that owns the tracer. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_;
  };

  /// Per operation id, the summed self time (duration minus the time its
  /// child spans cover) of every span called `name`; returns the median
  /// over operations, in seconds. 0 when no such span was recorded.
  double median_self_per_op(std::string_view name) const;
  /// Summed self time of the spans called `name`, per operation id.
  std::map<std::uint64_t, double> self_by_op(std::string_view name) const;
  /// Self time of every span called `name`, in seconds.
  std::vector<double> self_times(std::string_view name) const;
  /// Duration of every span called `name`, children included, in seconds.
  std::vector<double> durations(std::string_view name) const;
  /// One line per span name: count and self-time quartiles.
  void print_summary() const;
  void write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::uint64_t op;
    std::int64_t child_ns = 0;  ///< wall time covered by direct children
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

}  // namespace perfbench
