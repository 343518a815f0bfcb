#include "server/catalog.hpp"

#include <utility>

#include "bundle/mapped_bundle.hpp"
#include "engine/compile_cache.hpp"

namespace rispar::rispard {

std::vector<std::string> parse_manifest(std::string_view text) {
  std::vector<std::string> regexes;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string_view::npos) continue;
    std::size_t end = line.find_last_not_of(" \t");
    line = line.substr(start, end - start + 1);
    if (line.empty() || line.front() == '#') continue;
    regexes.emplace_back(line);
  }
  return regexes;
}

bool is_bundle_entry(std::string_view manifest_line) {
  return manifest_line.size() > 4 &&
         manifest_line.substr(manifest_line.size() - 4) == ".rpb";
}

std::shared_ptr<const PatternCatalog> build_catalog(
    const std::vector<std::string>& regexes, std::uint64_t generation,
    const EngineConfig& base_config) {
  auto catalog = std::make_shared<PatternCatalog>();
  catalog->generation = generation;
  catalog->patterns.reserve(regexes.size());
  const auto& cache = base_config.compile_cache;

  const auto add_tenant = [&](std::string display, Pattern pattern) {
    // Pre-warm the Σ*p searcher (streaming find runs on it): a blow-up
    // pattern trips ResourceExhausted HERE — at reload, where the old
    // generation still serves — never inside a session open or feed. A
    // bundle-shipped searcher makes this a no-op.
    (void)pattern.searcher(base_config.subset_budget);
    catalog->patterns.push_back({std::move(display), std::move(pattern)});
  };

  for (const std::string& entry : regexes) {
    if (is_bundle_entry(entry)) {
      // One map per manifest entry; every pattern of the bundle becomes a
      // tenant (ids keep line-then-bundle order). Cached under the file's
      // (path, index, mtime, size) identity — an unchanged bundle across
      // reloads is pure hits, and even a miss is a zero-copy mapped load,
      // not a compile.
      const auto bundle = bundle::MappedBundle::open(entry);
      for (std::uint32_t i = 0; i < bundle->pattern_count(); ++i) {
        Pattern pattern =
            cache != nullptr
                ? cache->get_or_compile(
                      CompileCache::bundle_key(entry, i),
                      [&] { return Pattern::from_bundle(bundle, i); })
                : Pattern::from_bundle(bundle, i);
        std::string display = !pattern.source().empty()
                                  ? std::string(pattern.source())
                                  : entry + "#" + std::to_string(i);
        add_tenant(std::move(display), std::move(pattern));
      }
    } else if (cache != nullptr) {
      add_tenant(entry, cache->get_or_compile(CompileCache::regex_key(entry, 0),
                                              [&] { return Pattern::compile(entry); }));
    } else {
      add_tenant(entry, Pattern::compile(entry));
    }
  }
  return catalog;
}

}  // namespace rispar::rispard
