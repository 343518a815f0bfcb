// Vectorized column gathers for the chunk walker's many-live-runs step.
//
// The hot loop of the chunk walker (parallel/chunk_walker.hpp) is "advance
// N live runs over one symbol": N independent loads from one symbol-major
// packed-table column (automata/packed_table.hpp). With few live runs the
// walker issues those loads one at a time; from eight live runs on it
// hands the whole live block to one of these gather routines, which widens
// the state ids to i32 indices and issues the loads eight at a time:
//
//  * AVX2 backend — `vpgatherdd` on the column base with scale 1/2/4 for
//    the u8/u16/i32 entry widths; the two narrow widths mask the gathered
//    dwords down to the entry value. Compiled in a dedicated -mavx2
//    translation unit (util/simd_gather_avx2.cpp) so the rest of the
//    library keeps the portable ISA baseline.
//  * portable backend — an 8-wide (4-wide for the tail) unrolled scalar
//    loop: no ISA requirement, still branch-free, and what every build runs
//    when AVX2 is absent or disabled (RISPAR_DISABLE_AVX2).
//
// `gather_ops()` picks the backend once per process via util/cpuid.hpp.
// Output contract: out[i] is the ZERO-EXTENDED entry col[idx[i]] — the dead
// sentinel therefore arrives as PackedWideDead<T> (0xFF / 0xFFFF /
// kDeadState), which is what the walker compares against. The gathers may
// read up to 3 bytes past an entry (dword loads at narrow widths), which
// PackedTable's build-time tail slack makes safe (kGatherSlackEntries).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rispar::simd {

/// out[i] = zero-extended col[idx[i]] for i in [0, n). `col` points at one
/// packed-table column of the backing entry width; idx values must be valid
/// state ids for that table. In-place operation (out == idx) is supported:
/// every implementation reads a lane's index before writing its output.
using GatherFn = void (*)(const void* col, const std::int32_t* idx, std::size_t n,
                          std::int32_t* out);

/// The chunk walker's whole gather step for independent runs with nothing
/// recorded (parallel/chunk_walker.hpp), in one call, so the per-symbol
/// work — column base, gather, survivor test, dead-run compaction,
/// transition accounting — never crosses the dispatch boundary. Advances
/// `state[0..live)` (with parallel `origin` tags) over `symbols[0..count)`,
/// all pre-validated to be in range: one column gather per symbol,
/// survivors compacted to the front in order, the per-symbol survivor count
/// accumulated into `transitions` (one executed transition per run
/// surviving that symbol). Runs only while live >= min_live and stops after
/// the symbol that leaves fewer (the caller's narrower step takes over).
/// Updates `live` in place and returns the number of symbols fully
/// consumed. The AVX2 backend's movemask fast path makes the all-survive
/// block — the common case while many runs are live — one gather plus one
/// store, no per-lane work.
using AdvanceSpanFn = std::size_t (*)(const void* entries, std::size_t num_states,
                                      const std::int32_t* symbols, std::size_t count,
                                      std::int32_t* state, std::uint32_t* origin,
                                      std::size_t& live, std::uint64_t& transitions,
                                      std::size_t min_live);

struct GatherOps {
  GatherFn u8;
  GatherFn u16;
  GatherFn i32;
  AdvanceSpanFn span_u8;
  AdvanceSpanFn span_u16;
  AdvanceSpanFn span_i32;
  const char* backend;
};

/// The backend selected for this process: AVX2 when the build compiled it
/// and the CPU reports it (util/cpuid.hpp), the portable loops otherwise.
const GatherOps& gather_ops();

/// The portable unrolled backend, always available — exposed so tests can
/// cross-check the AVX2 results and benches can sweep gather-vs-scalar.
const GatherOps& portable_gather_ops();

/// The AVX2 backend when this build contains it (x86-64, AVX2 not
/// disabled), nullptr otherwise. Defined in util/simd_gather_avx2.cpp.
const GatherOps* avx2_gather_ops();

/// Name of the backend gather_ops() actually dispatches — "avx2" or
/// "portable". For CLI/bench labels and logs; by construction it can never
/// disagree with the dispatch.
const char* simd_backend_name();

/// The width-typed accessors the templated walker uses.
template <typename T>
GatherFn gather_fn(const GatherOps& ops);
template <>
inline GatherFn gather_fn<std::uint8_t>(const GatherOps& ops) {
  return ops.u8;
}
template <>
inline GatherFn gather_fn<std::uint16_t>(const GatherOps& ops) {
  return ops.u16;
}
template <>
inline GatherFn gather_fn<std::int32_t>(const GatherOps& ops) {
  return ops.i32;
}

template <typename T>
AdvanceSpanFn advance_span_fn(const GatherOps& ops);
template <>
inline AdvanceSpanFn advance_span_fn<std::uint8_t>(const GatherOps& ops) {
  return ops.span_u8;
}
template <>
inline AdvanceSpanFn advance_span_fn<std::uint16_t>(const GatherOps& ops) {
  return ops.span_u16;
}
template <>
inline AdvanceSpanFn advance_span_fn<std::int32_t>(const GatherOps& ops) {
  return ops.span_i32;
}

}  // namespace rispar::simd
