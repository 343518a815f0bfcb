// The AVX2 gather backend. This translation unit is the ONLY one compiled
// with -mavx2 (see CMakeLists.txt); everything it exports is reached through
// the function-pointer table in util/simd_gather.hpp after the runtime CPU
// check, so no AVX2 instruction can execute on hardware without it. Builds
// without the flag (non-x86, RISPAR_DISABLE_AVX2) compile the nullptr stub
// at the bottom and the dispatch stays on the portable backend.
#include "util/simd_gather.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace rispar::simd {

namespace {

// One vpgatherdd per eight runs: the i32 state ids are the gather indices,
// the column base is the pointer, and the scale is the entry width. The
// narrow widths gather a full dword at each entry's byte offset and mask it
// down — PackedTable's tail slack keeps the 3 (u8) / 2 (u16) byte over-read
// of the last entries in bounds.
void gather_u8_avx2(const void* col_v, const std::int32_t* idx, std::size_t n,
                    std::int32_t* out) {
  const auto* base = static_cast<const int*>(col_v);
  const __m256i mask = _mm256_set1_epi32(0xFF);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i indices =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256i raw = _mm256_i32gather_epi32(base, indices, 1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(raw, mask));
  }
  const auto* col = static_cast<const std::uint8_t*>(col_v);
  for (; i < n; ++i) out[i] = static_cast<std::int32_t>(col[idx[i]]);
}

void gather_u16_avx2(const void* col_v, const std::int32_t* idx, std::size_t n,
                     std::int32_t* out) {
  const auto* base = static_cast<const int*>(col_v);
  const __m256i mask = _mm256_set1_epi32(0xFFFF);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i indices =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256i raw = _mm256_i32gather_epi32(base, indices, 2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(raw, mask));
  }
  const auto* col = static_cast<const std::uint16_t*>(col_v);
  for (; i < n; ++i) out[i] = static_cast<std::int32_t>(col[idx[i]]);
}

void gather_i32_avx2(const void* col_v, const std::int32_t* idx, std::size_t n,
                     std::int32_t* out) {
  const auto* base = static_cast<const int*>(col_v);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i indices =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_i32gather_epi32(base, indices, 4));
  }
  const auto* col = static_cast<const std::int32_t*>(col_v);
  for (; i < n; ++i) out[i] = col[idx[i]];
}

// The walker's gather step for independent passive runs (simd_gather.hpp,
// AdvanceSpanFn): per pre-validated symbol, one gather advances up to 8
// runs at a time. One constant serves as both the width mask and the
// widened dead sentinel (0xFF / 0xFFFF zero-extended; all-ones for i32,
// where the AND is the identity). The movemask fast path makes the
// all-survive block — the common case while many runs are live — one
// gather plus one store with no per-lane work; blocks with deaths fall
// back to the branchless scalar compaction over the already-gathered
// lanes. Living here (not in the walker) keeps the per-symbol work free
// of cross-TU calls: the dispatch boundary is crossed once per validated
// span, not once per symbol.
template <typename T, int kScale>
std::size_t advance_span_avx2(const void* entries_v, std::size_t num_states,
                              const std::int32_t* symbols, std::size_t count,
                              std::int32_t* state, std::uint32_t* origin,
                              std::size_t& live, std::uint64_t& transitions,
                              std::size_t min_live) {
  const T* entries = static_cast<const T*>(entries_v);
  constexpr auto kDead = static_cast<std::int32_t>(static_cast<T>(-1));
  const __m256i mask = _mm256_set1_epi32(kDead);
  std::size_t consumed = 0;
  while (consumed < count && live >= min_live) {
    const T* col = entries + static_cast<std::size_t>(symbols[consumed]) * num_states;
    const auto* base = reinterpret_cast<const int*>(col);
    std::size_t write = 0;
    std::size_t i = 0;
    for (; i + 8 <= live; i += 8) {
      const __m256i indices =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + i));
      const __m256i gathered =
          _mm256_and_si256(_mm256_i32gather_epi32(base, indices, kScale), mask);
      const int dead_lanes = _mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpeq_epi32(gathered, mask)));
      if (dead_lanes == 0) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + write), gathered);
        if (write != i)
          _mm256_storeu_si256(
              reinterpret_cast<__m256i*>(origin + write),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(origin + i)));
        write += 8;
      } else {
        alignas(32) std::int32_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), gathered);
        for (int lane = 0; lane < 8; ++lane) {
          state[write] = lanes[lane];
          origin[write] = origin[i + lane];
          write += static_cast<std::size_t>(lanes[lane] != kDead);
        }
      }
    }
    for (; i < live; ++i) {
      const auto value = static_cast<std::int32_t>(col[state[i]]);
      state[write] = value;
      origin[write] = origin[i];
      write += static_cast<std::size_t>(value != kDead);
    }
    transitions += write;
    live = write;
    ++consumed;
  }
  return consumed;
}

}  // namespace

const GatherOps* avx2_gather_ops() {
  static constexpr GatherOps ops{gather_u8_avx2,
                                 gather_u16_avx2,
                                 gather_i32_avx2,
                                 advance_span_avx2<std::uint8_t, 1>,
                                 advance_span_avx2<std::uint16_t, 2>,
                                 advance_span_avx2<std::int32_t, 4>,
                                 "avx2"};
  return &ops;
}

}  // namespace rispar::simd

#else  // !__AVX2__

namespace rispar::simd {

const GatherOps* avx2_gather_ops() { return nullptr; }

}  // namespace rispar::simd

#endif
