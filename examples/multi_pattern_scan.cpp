// Serving a signature set over a log stream — the multi-pattern scenario
// the production scanners the paper motivates actually run: N compiled
// patterns, one pool, one pass per document, positioned matches tagged by
// pattern. Builds a synthetic incident log, scans it with a PatternSet,
// prints where each signature fired, and cross-checks every reported
// position against naive substring search.
#include <cstdio>
#include <string>
#include <vector>

#include "engine/pattern_set.hpp"
#include "util/prng.hpp"
#include "util/stopwatch.hpp"

using namespace rispar;

int main(int argc, char** argv) {
  const std::size_t lines = argc > 1 ? std::strtoul(argv[1], nullptr, 10) * 1000 : 50'000;

  // Synthetic incident log: mostly routine lines, a few carrying the
  // signatures we serve.
  const std::vector<std::string> signatures{"ERROR", "timeout", "oom-kill"};
  Prng prng(7);
  std::string log;
  std::vector<std::size_t> planted(signatures.size(), 0);
  for (std::size_t i = 0; i < lines; ++i) {
    log += "svc[" + std::to_string(i % 97) + "] ";
    const std::size_t roll = prng.pick_index(100);
    if (roll < 3) {
      log += "ERROR request failed";
      ++planted[0];
    } else if (roll < 5) {
      log += "upstream timeout after 30s";
      ++planted[1];
    } else if (roll == 5) {
      log += "worker reaped by oom-kill";
      ++planted[2];
    } else {
      log += "request served ok";
    }
    log += '\n';
  }
  std::printf("scanning %zu log lines (%zu bytes) for %zu signatures...\n", lines,
              log.size(), signatures.size());

  const PatternSet set =
      PatternSet::compile({"ERROR", "timeout", "oom-kill"}, {.threads = 0});
  Stopwatch clock;
  const QueryResult report = set.find(log, {.chunks = 32});
  std::printf("%llu hits in %.2f ms (%llu transitions)\n\n",
              static_cast<unsigned long long>(report.matches), clock.millis(),
              static_cast<unsigned long long>(report.transitions));

  // Per-signature totals plus the first firing position of each, the shape
  // a triage dashboard renders.
  std::vector<std::size_t> counted(signatures.size(), 0);
  std::vector<const Match*> first(signatures.size(), nullptr);
  for (const Match& m : report.positions) {
    if (first[m.pattern_id] == nullptr) first[m.pattern_id] = &m;
    ++counted[m.pattern_id];
  }
  bool ok = true;
  for (std::size_t p = 0; p < signatures.size(); ++p) {
    std::printf("  %-8s: %6zu hits (planted %6zu)", signatures[p].c_str(), counted[p],
                planted[p]);
    if (first[p] != nullptr)
      std::printf("   first at byte %llu: \"%.*s\"",
                  static_cast<unsigned long long>(first[p]->begin),
                  static_cast<int>(first[p]->end - first[p]->begin),
                  log.data() + first[p]->begin);
    std::printf("\n");
    if (counted[p] != planted[p]) ok = false;
    // Literal signatures never chain partial occurrences across distinct
    // hits here, so every begin must be exact — verify against the text.
    for (const Match& m : report.positions)
      if (m.pattern_id == p &&
          log.compare(m.begin, signatures[p].size(), signatures[p]) != 0)
        ok = false;
  }

  // Paging, the server cap: first page of 5.
  const QueryResult page = set.find(log, {.chunks = 32, .limit = 5});
  std::printf("\nfirst page (limit 5 of %llu): ",
              static_cast<unsigned long long>(page.matches));
  for (const Match& m : page.positions)
    std::printf("[%llu,%llu) ", static_cast<unsigned long long>(m.begin),
                static_cast<unsigned long long>(m.end));
  std::printf("\n%s\n", ok ? "all positions verified against naive search"
                           : "POSITION MISMATCH (bug!)");
  return ok ? 0 : 1;
}
