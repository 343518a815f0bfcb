// Quickstart: the rispar::Engine query API in one file.
//
//   $ ./example_quickstart "(ab|ba)*" abbaabba
//
// With no arguments it runs a built-in demonstration. The walkthrough:
//   1. Pattern::compile  — one compilation, every chunk automaton;
//   2. Engine::recognize — parallel recognition with any variant;
//   3. Engine::count     — occurrences of the pattern in arbitrary bytes;
//   4. Engine::find_all  — WHERE those occurrences sit (paged positions);
//   5. Engine::stream    — window-by-window recognition of unbounded input;
//   6. Engine::match_all — many texts batched over one shared pool.
// (For N patterns over one text, see examples/multi_pattern_scan.cpp.)
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"

using namespace rispar;

int main(int argc, char** argv) {
  const std::string pattern_text = argc > 1 ? argv[1] : "(ab|ba)*";
  std::string text = argc > 2 ? argv[2] : "";
  if (text.empty())
    for (int i = 0; i < 2000; ++i) text += (i % 3 == 0) ? "ba" : "ab";

  std::printf("pattern: %s\ntext   : %zu bytes\n\n", pattern_text.c_str(), text.size());

  // 1. Compile once. The Pattern owns (with shared ownership) the Glushkov
  //    NFA, the minimal DFA and the interface-minimized RI-DFA, with the
  //    packed transition tables pre-warmed.
  const Pattern pattern = Pattern::compile(pattern_text);
  std::printf("NFA states            : %d\n", pattern.nfa().num_states());
  std::printf("minimal DFA states    : %d\n", pattern.min_dfa().num_states());
  std::printf("RI-DFA states         : %d\n", pattern.ridfa().num_states());
  std::printf("RI-DFA initial states : %d   <- the speculation interface\n\n",
              pattern.ridfa().initial_count());

  // 2. Recognize with every device. The Engine owns the thread pool and
  //    translates raw bytes internally; options a device cannot honor
  //    raise QueryError instead of being silently ignored.
  const Engine engine(pattern);
  for (const Variant variant :
       {Variant::kDfa, Variant::kNfa, Variant::kRid, Variant::kSfa}) {
    if (engine.try_device(variant) == nullptr) {
      std::printf("%-4s variant: unavailable (SFA construction exploded)\n",
                  variant_name(variant));
      continue;
    }
    const QueryResult result =
        engine.recognize(text, {.variant = variant, .chunks = 8});
    std::printf("%-4s variant: %s, %llu transitions, reach %.3f ms + join %.3f ms\n",
                variant_name(variant), result.accepted ? "ACCEPTED" : "rejected",
                static_cast<unsigned long long>(result.transitions),
                result.reach_seconds * 1e3, result.join_seconds * 1e3);
  }

  // 3. Count occurrences (overlaps included) — any bytes may surround them.
  const QueryResult counted =
      engine.count("??" + text + "--" + text, {.chunks = 8});
  std::printf("\ncount : %llu occurrences of the pattern in text+noise\n",
              static_cast<unsigned long long>(counted.matches));

  // 4. Positioned matches: one Match per counted end position (so
  //    find_all(t).size() == count(t).matches), offset/limit paging for
  //    response caps. Match::begin/end are byte offsets.
  const std::string noisy = "??" + text + "--" + text;
  const QueryResult found = engine.find(noisy, {.chunks = 8, .limit = 3});
  std::printf("find  : %llu total, first %zu at",
              static_cast<unsigned long long>(found.matches),
              found.positions.size());
  for (const Match& m : found.positions)
    std::printf(" [%llu,%llu)", static_cast<unsigned long long>(m.begin),
                static_cast<unsigned long long>(m.end));
  std::printf("\n");

  // 5. Stream the same text in 512-byte windows: same decision, bounded
  //    memory — only the PLAS carry crosses window boundaries.
  StreamSession session = engine.stream({.variant = Variant::kRid, .chunks = 4});
  for (std::size_t offset = 0; offset < text.size(); offset += 512)
    session.feed(std::string_view(text).substr(offset, 512));
  std::printf("stream: %s after %llu windows (%llu transitions)\n",
              session.accepted() ? "ACCEPTED" : "rejected",
              static_cast<unsigned long long>(session.windows()),
              static_cast<unsigned long long>(session.transitions()));

  // 6. Batch many texts over the one shared pool.
  const std::vector<std::string_view> batch{text, "ab", "ba", "abx", ""};
  const auto results = engine.match_all(batch, {.variant = Variant::kRid, .chunks = 4});
  std::size_t accepted = 0;
  for (const QueryResult& r : results) accepted += r.accepted ? 1 : 0;
  std::printf("batch : %zu/%zu texts accepted\n", accepted, batch.size());

  std::puts("\nThe RID variant speculates from the RI-DFA interface states only;");
  std::puts("the DFA variant must start a run from every DFA state per chunk.");
  return 0;
}
