// Session checkpoints — the durable-session layer.
//
// A checkpoint is a versioned, checksummed binary image of everything a
// streaming session carries between windows: for a StreamSession the
// device's decision carry, and for every streaming-find pattern the Σ*p
// searcher's find carry (state, consumed/last_sep/matches counters, the
// kExact history tail) plus the shared byte count. A StreamSession with
// positions is the decision carry plus a one-pattern MultiStreamSession,
// so both session kinds write the ONE body layout below. A client (or the
// rispard server on its behalf) takes one with StreamSession::checkpoint()
// / MultiStreamSession::checkpoint(), stores the opaque blob anywhere, and
// resumes byte-exact with Engine::resume_stream() /
// PatternSet::resume_stream() — on the same Engine, a fresh one, or a
// different process entirely: the resumed session's match stream equals the
// uninterrupted session's and the serial oracle's under every window
// segmentation (CheckpointFuzz in tests/test_fuzz.cpp).
//
// Blob layout, version 2 (all integers little-endian, unaligned):
//
//   u32 magic "RSCK" | u32 version | u8 variant | u8 positions |
//   u8 begin_mode | u64 fingerprint | body | u64 checksum64(everything
//   before the trailer)
//
//   body := u8 has_decision | [u8 at_start | u64 transitions | u64 windows |
//           u32 nstates | nstates x u32 state]  (only when has_decision) |
//           u64 consumed | u32 npatterns | npatterns x find-carry image
//           (parallel/match_count.hpp encode_find_carry)
//
// `variant` is the decision device's (0 without a decision side). A blob
// with a decision side resumes only a StreamSession, one without only a
// MultiStreamSession; version 1 blobs (the two-kind layout) reject.
//
// The fingerprint is fleet_fingerprint over the session's patterns (one
// for a StreamSession): per pattern a checksum64 over the minimal DFA's
// content (shape, initial state, finals, transition table, byte→symbol
// map), canonical for the language — so resuming against a different
// pattern (or a reordered fleet) rejects with ValidationError instead of
// silently producing garbage offsets, and the same source recompiled
// elsewhere fingerprints equal. The trailing checksum64 (the bundle layer's
// 4-lane FNV-1a, src/bundle/format.hpp) makes corruption and truncation a
// typed error, never a wild read: every truncation and random byte flip of
// a blob throws (fuzzed).
//
// What a checkpoint does NOT carry: buffered-but-untaken matches (drain
// take_matches() first — checkpoint() rejects otherwise, so nothing is
// silently lost) and the speculative-start scratch set (refilled lazily).
// Poisoned sessions cannot checkpoint — their carry is mid-window.
//
// Fault-injection sites: "checkpoint.encode" / "checkpoint.decode"
// (util/fault_inject.hpp; swept in tests/test_fault_inject.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/device.hpp"
#include "engine/pattern.hpp"
#include "engine/query.hpp"
#include "parallel/match_count.hpp"

namespace rispar::checkpoint {

inline constexpr std::uint32_t kMagic = 0x4b435352u;  // "RSCK" as u32le
inline constexpr std::uint32_t kVersion = 2;

/// Stable identity of one compiled pattern for resume validation: a
/// checksum64 over the minimal DFA's content (shape, initial state, finals,
/// transition table, byte→symbol map). Identical for the same source
/// recompiled in another process — the property the rispard RESUME_SESSION
/// path relies on across restarts.
std::uint64_t pattern_fingerprint(const Pattern& pattern);

/// Combined ordered-fleet fingerprint of a session's patterns: mixes every
/// pattern's fingerprint with its position, so a reordered or resubset
/// fleet rejects at resume.
std::uint64_t fleet_fingerprint(std::span<const Pattern> patterns);

/// A decoded blob body.
struct Image {
  std::optional<StreamCarry> decision;  ///< engaged for StreamSession blobs
  std::uint64_t consumed = 0;           ///< bytes fed to the find side
  std::vector<FindCarry> carries;       ///< one per pattern, fleet order
};

/// Serializes a session's between-window state: the decision carry
/// (nullptr for a find-only session), the shared byte count and one find
/// carry per pattern. The header records options.variant (with a decision
/// side), options.positions and options.begin_mode. Fault site
/// "checkpoint.encode".
std::string encode(const StreamCarry* decision, std::uint64_t consumed,
                   std::span<const FindCarry> carries, const QueryOptions& options,
                   std::uint64_t fingerprint);

/// Validates and decodes an encode() blob for a session that has a
/// decision side iff `decision` and `patterns` find carries. Throws
/// ValidationError on ANY mismatch: magic/version/checksum (corruption,
/// truncation), the decision side's presence, variant/positions/begin_mode
/// against `options`, the fingerprint, the carry count. Fault site
/// "checkpoint.decode".
Image decode(std::string_view blob, const QueryOptions& options, bool decision,
             std::size_t patterns, std::uint64_t fingerprint);

}  // namespace rispar::checkpoint
