// The multi-tenant pattern catalog behind rispard's RELOAD.
//
// One PatternCatalog is an IMMUTABLE generation of the serving set: N
// compiled patterns, the ids every OPEN_SESSION subscribes by. Each session
// is one MultiStreamSession over its subscribed patterns, running on the
// server's one work-stealing pool. The server holds the current generation
// behind a std::atomic<std::shared_ptr<...>>; RELOAD (or SIGHUP) builds a
// whole new catalog off to the side and swaps the pointer in one atomic
// store:
//
//  * sessions opened BEFORE the swap copied the shared_ptr at open and keep
//    feeding against the generation they opened with — a reload never tears
//    an in-flight session;
//  * the retired generation (and its Patterns, whose compiled automata the
//    sessions scan) is destroyed when the LAST such session closes — plain
//    shared_ptr reference counting, tested in tests/test_server.cpp
//    (RispardReload.RetiredGenerationIsFreedWhenItsLastSessionCloses);
//  * a reload that fails to compile leaves the current generation in place:
//    swap-on-success, never swap-then-fix.
//
// The manifest is the operator surface: one regex per line, '#' comments,
// blank lines ignored. Pattern ids are line order — the contract a client
// and its manifest must agree on (docs/rispard.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"  // Pattern, EngineConfig

namespace rispar::rispard {

/// One tenant: the manifest line and its compiled pattern.
struct TenantPattern {
  std::string regex;
  Pattern pattern;
};

/// One immutable generation of the serving set.
struct PatternCatalog {
  std::uint64_t generation = 0;
  std::vector<TenantPattern> patterns;
};

/// Splits a manifest into its pattern lines ('#' comments and blank lines
/// dropped, trailing '\r' of CRLF manifests stripped). Line order is
/// pattern-id order.
std::vector<std::string> parse_manifest(std::string_view text);

/// True when a manifest line names a compiled .rpb bundle instead of a
/// regex. A bundle line expands IN PLACE to all of its patterns (ids keep
/// line-then-bundle order), loaded zero-copy via Pattern::load_mapped —
/// the cold-start path of docs/rispard.md "Bundle deployment".
bool is_bundle_entry(std::string_view manifest_line);

/// Compiles every manifest entry into a catalog. Regex entries compile
/// (through base_config.compile_cache when set — an unchanged manifest
/// reloads as pure cache hits); .rpb entries map their bundles and expand
/// to every contained pattern (cached under the file's identity stamp). The
/// Σ*p searcher each streaming-find session needs is pre-warmed here, under
/// base_config.subset_budget, at reload time, so no session-open or feed
/// ever pays a lazy subset construction. Throws RegexError on a malformed
/// pattern, ResourceExhausted when a construction budget trips, and
/// ValidationError / std::system_error on a bad bundle — in every case the
/// caller keeps serving the old generation.
std::shared_ptr<const PatternCatalog> build_catalog(
    const std::vector<std::string>& regexes, std::uint64_t generation,
    const EngineConfig& base_config);

}  // namespace rispar::rispard
