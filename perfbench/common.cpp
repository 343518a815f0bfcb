#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <istream>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double process_cpu_seconds() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

unsigned host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

namespace {
// run.py escapes backslash, newline and tab inside fields.
std::string unescape(const std::string& field) {
  std::string out;
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '\\' || i + 1 == field.size()) {
      out += field[i];
      continue;
    }
    const char next = field[++i];
    out += next == 'n' ? '\n' : next == 't' ? '\t' : next;
  }
  return out;
}
}  // namespace

Config Config::read(std::istream& in) {
  Config config;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
      const std::size_t tab = line.find('\t', start);
      fields.push_back(unescape(line.substr(start, tab - start)));
      if (tab == std::string::npos) break;
      start = tab + 1;
    }
    const std::string key = fields.front();
    fields.erase(fields.begin());
    config.entries_[key].push_back(std::move(fields));
  }
  return config;
}

const std::vector<std::vector<std::string>>& Config::all(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) throw std::runtime_error("config: missing key " + key);
  return it->second;
}

const std::vector<std::string>& Config::fields(const std::string& key) const {
  return all(key).front();
}

double Config::num(const std::string& key) const { return std::stod(str(key)); }

std::vector<double> Config::nums(const std::string& key) const {
  std::vector<double> out;
  for (const std::string& field : fields(key)) out.push_back(std::stod(field));
  return out;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 5) std::printf("FAILED: %s\n", what.c_str());
}

void say(const std::string& name, double value, const std::string& unit,
         const std::string& detail) {
  std::printf("  %-40s %14.6g %-8s %s\n", name.c_str(), value, unit.c_str(),
              detail.c_str());
}

// ------------------------------------------------------------------- tracer

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t op)
    : tracer_(tracer), index_(-1) {
  if (!tracer.enabled_) return;
  const std::int64_t parent = tracer.stack_.empty() ? -1 : tracer.stack_.back();
  index_ = static_cast<std::int64_t>(tracer.spans_.size());
  tracer.spans_.push_back({name, now_ns(), 0, parent, op});
  tracer.stack_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  tracer_.stack_.pop_back();
  if (span.parent >= 0)
    tracer_.spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
}

std::vector<double> Tracer::self_times(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (name == span.name)
      out.push_back(static_cast<double>(span.end_ns - span.start_ns - span.child_ns) * 1e-9);
  return out;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (name == span.name) out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
  return out;
}

std::map<std::uint64_t, double> Tracer::self_by_op(std::string_view name) const {
  std::map<std::uint64_t, double> per_op;
  for (const Span& span : spans_)
    if (name == span.name)
      per_op[span.op] += static_cast<double>(span.end_ns - span.start_ns - span.child_ns) * 1e-9;
  return per_op;
}

double Tracer::median_self_per_op(std::string_view name) const {
  std::vector<double> values;
  for (const auto& [op, seconds] : self_by_op(name)) values.push_back(seconds);
  return median(values);
}

void Tracer::print_summary() const {
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& span : spans_)
    by_name[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - span.child_ns) * 1e-6);
  for (const auto& [name, self_ms] : by_name)
    std::printf("  span %-36s n=%-7zu self ms p25=%.4f p50=%.4f p75=%.4f\n", name.c_str(),
                self_ms.size(), quantile(self_ms, 0.25), median(self_ms),
                quantile(self_ms, 0.75));
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"self_ns\":" << (s.end_ns - s.start_ns - s.child_ns) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench
