#include "engine/checkpoint.hpp"

#include <cstddef>
#include <string>

#include "bundle/format.hpp"
#include "util/fault_inject.hpp"
#include "util/governance.hpp"

namespace rispar::checkpoint {
namespace {

constexpr std::size_t kHeaderBytes = 19;  // magic + version + 3 flags + fingerprint
constexpr std::size_t kTrailerBytes = 8;  // checksum64

[[noreturn]] void reject(const std::string& what) {
  throw ValidationError("checkpoint: " + what);
}

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((value >> shift) & 0xffu));
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((value >> shift) & 0xffu));
}

std::uint8_t get_u8(std::string_view image, std::size_t& pos) {
  if (pos >= image.size()) reject("truncated blob");
  return static_cast<std::uint8_t>(image[pos++]);
}

std::uint32_t get_u32(std::string_view image, std::size_t& pos) {
  if (image.size() - pos < 4) reject("truncated blob");
  std::uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8)
    value |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(image[pos++])) << shift;
  return value;
}

std::uint64_t get_u64(std::string_view image, std::size_t& pos) {
  if (image.size() - pos < 8) reject("truncated blob");
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8)
    value |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(image[pos++])) << shift;
  return value;
}

bool get_flag(std::string_view image, std::size_t& pos, const char* name) {
  const std::uint8_t raw = get_u8(image, pos);
  if (raw > 1) reject(std::string("malformed ") + name + " flag");
  return raw != 0;
}

/// A DFA's full resume-relevant content: shape, initial state, the
/// final-state bitmap, the transition table and the byte→symbol map.
/// Shapes alone cannot tell `a` from `b` (identical minimal automata up to
/// the byte classes), so the fingerprint hashes the content — still
/// memory-speed via checksum64.
void append_dfa_content(std::string& buf, const Dfa& dfa) {
  put_u32(buf, static_cast<std::uint32_t>(dfa.num_states()));
  put_u32(buf, static_cast<std::uint32_t>(dfa.num_symbols()));
  put_u32(buf, static_cast<std::uint32_t>(dfa.initial()));
  std::uint8_t bits = 0;
  for (State state = 0; state < dfa.num_states(); ++state) {
    if (dfa.is_final(state)) bits |= static_cast<std::uint8_t>(1u << (state & 7));
    if ((state & 7) == 7) {
      buf.push_back(static_cast<char>(bits));
      bits = 0;
    }
  }
  if (dfa.num_states() & 7) buf.push_back(static_cast<char>(bits));
  for (const State target : dfa.table()) put_u32(buf, static_cast<std::uint32_t>(target));
  for (const std::int32_t symbol : dfa.symbols().raw_table())
    put_u32(buf, static_cast<std::uint32_t>(symbol));
}

void seal(std::string& out) { put_u64(out, bundle::checksum64(out.data(), out.size())); }

struct Envelope {
  std::uint8_t variant = 0;
  bool positions = false;
  BeginMode begin_mode = BeginMode::kSeparator;
  std::uint64_t fingerprint = 0;
  std::string_view body;  ///< between the header and the checksum trailer
};

/// Integrity first, meaning second: length, magic, version, then the
/// whole-blob checksum — only after those pass are the header fields
/// interpreted. A truncation or byte flip anywhere therefore reaches at
/// most the checksum comparison, never a field-driven allocation.
Envelope open_envelope(std::string_view blob) {
  if (blob.size() < kHeaderBytes + kTrailerBytes) reject("truncated blob");
  std::size_t pos = 0;
  if (get_u32(blob, pos) != kMagic) reject("bad magic (not a session checkpoint)");
  if (const std::uint32_t version = get_u32(blob, pos); version != kVersion)
    reject("unsupported version " + std::to_string(version));
  std::size_t trailer_pos = blob.size() - kTrailerBytes;
  const std::uint64_t stored = get_u64(blob, trailer_pos);
  if (bundle::checksum64(blob.data(), blob.size() - kTrailerBytes) != stored)
    reject("checksum mismatch (corrupted or truncated blob)");

  Envelope env;
  env.variant = get_u8(blob, pos);
  env.positions = get_flag(blob, pos, "positions");
  const std::uint8_t mode = get_u8(blob, pos);
  if (mode > static_cast<std::uint8_t>(BeginMode::kExact)) reject("malformed begin mode");
  env.begin_mode = static_cast<BeginMode>(mode);
  env.fingerprint = get_u64(blob, pos);
  env.body = blob.substr(kHeaderBytes, blob.size() - kHeaderBytes - kTrailerBytes);
  return env;
}

}  // namespace

std::uint64_t pattern_fingerprint(const Pattern& pattern) {
  // The minimal DFA is canonical for the language and its byte classes, so
  // its content identifies the pattern across processes without forcing
  // the lazy searcher build (decision-only sessions checkpoint too).
  std::string buf;
  append_dfa_content(buf, pattern.min_dfa());
  return bundle::checksum64(buf.data(), buf.size());
}

std::uint64_t fleet_fingerprint(std::span<const Pattern> patterns) {
  std::string buf;
  put_u64(buf, patterns.size());
  for (const Pattern& pattern : patterns) put_u64(buf, pattern_fingerprint(pattern));
  return bundle::checksum64(buf.data(), buf.size());
}

std::string encode(const StreamCarry* decision, std::uint64_t consumed,
                   std::span<const FindCarry> carries, const QueryOptions& options,
                   std::uint64_t fingerprint) {
  fault::maybe_throw("checkpoint.encode");
  std::string out;
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  out.push_back(static_cast<char>(decision != nullptr ? options.variant : Variant{}));
  out.push_back(static_cast<char>(options.positions ? 1 : 0));
  out.push_back(static_cast<char>(options.begin_mode));
  put_u64(out, fingerprint);
  out.push_back(static_cast<char>(decision != nullptr ? 1 : 0));
  if (decision != nullptr) {
    out.push_back(static_cast<char>(decision->at_start ? 1 : 0));
    put_u64(out, decision->transitions);
    put_u64(out, decision->windows);
    put_u32(out, static_cast<std::uint32_t>(decision->states.size()));
    for (const State state : decision->states)
      put_u32(out, static_cast<std::uint32_t>(state));
  }
  put_u64(out, consumed);
  put_u32(out, static_cast<std::uint32_t>(carries.size()));
  for (const FindCarry& carry : carries) encode_find_carry(carry, out);
  seal(out);
  return out;
}

Image decode(std::string_view blob, const QueryOptions& options, const Device* decision,
             std::span<const State> searcher_states, std::uint64_t fingerprint) {
  fault::maybe_throw("checkpoint.decode");
  // The blob is internally consistent once the envelope opens (checksum
  // passed); what remains is whether it belongs to THIS session.
  const Envelope env = open_envelope(blob);
  if (env.fingerprint != fingerprint)
    reject("pattern fingerprint mismatch (checkpoint was taken against a "
           "different pattern or fleet)");
  if (env.positions != options.positions)
    reject(env.positions ? "blob carries a find side but positions=false was requested"
                         : "positions=true requested but the blob has no find side");
  if (env.begin_mode != options.begin_mode)
    reject(std::string("begin-mode mismatch (blob ") + begin_mode_name(env.begin_mode) +
           ", resume requested " + begin_mode_name(options.begin_mode) + ")");

  Image image;
  std::size_t pos = 0;
  if (get_flag(env.body, pos, "has_decision") != (decision != nullptr))
    reject(decision != nullptr ? "find-only blob offered to a StreamSession resume"
                               : "blob with a decision side offered to a find-only resume");
  if (decision != nullptr) {
    if (env.variant != static_cast<std::uint8_t>(options.variant))
      reject(env.variant > static_cast<std::uint8_t>(Variant::kSfa)
                 ? "malformed variant"
                 : std::string("variant mismatch (blob ") +
                       variant_name(static_cast<Variant>(env.variant)) +
                       ", resume requested " + variant_name(options.variant) +
                       ") — decision states do not transfer");
    StreamCarry& carry = image.decision.emplace();
    carry.at_start = get_flag(env.body, pos, "at_start");
    carry.transitions = get_u64(env.body, pos);
    carry.windows = get_u64(env.body, pos);
    const std::uint32_t nstates = get_u32(env.body, pos);
    if (nstates > (env.body.size() - pos) / 4) reject("truncated decision state list");
    carry.states.reserve(nstates);
    for (std::uint32_t i = 0; i < nstates; ++i) {
      const State state = static_cast<State>(get_u32(env.body, pos));
      if (state < 0 || state >= decision->carry_states())
        reject("decision state out of range");
      carry.states.push_back(state);
    }
    if (carry.at_start && (!carry.states.empty() || carry.windows != 0))
      reject("at_start carry with fed windows");
  } else if (env.variant != 0) {
    reject("malformed variant (find-only blobs carry none)");
  }

  image.consumed = get_u64(env.body, pos);
  const std::uint32_t npatterns = get_u32(env.body, pos);
  if (npatterns != searcher_states.size())
    reject("fleet size mismatch (blob has " + std::to_string(npatterns) +
           " carries, resuming session has " + std::to_string(searcher_states.size()) +
           ")");
  image.carries.reserve(npatterns);
  for (const State states : searcher_states) {
    FindCarry carry = decode_find_carry(env.body, pos, states);
    // Every pattern of a session is fed the same windows, so each carry's
    // byte count must equal the session's.
    if (carry.consumed != image.consumed)
      reject("carry byte count disagrees with the session's");
    image.carries.push_back(std::move(carry));
  }
  if (pos != env.body.size()) reject("trailing bytes after carry images");
  return image;
}

}  // namespace rispar::checkpoint
