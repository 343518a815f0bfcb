#include "util/simd_gather.hpp"

#include "util/cpuid.hpp"

namespace rispar::simd {

namespace {

// The portable backend: unrolled so the compiler keeps the eight loads
// independent (no loop-carried branch), 4-wide then scalar for the tail.
template <typename T>
void gather_portable(const void* col_v, const std::int32_t* idx, std::size_t n,
                     std::int32_t* out) {
  const T* col = static_cast<const T*>(col_v);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::int32_t a = static_cast<std::int32_t>(col[idx[i + 0]]);
    const std::int32_t b = static_cast<std::int32_t>(col[idx[i + 1]]);
    const std::int32_t c = static_cast<std::int32_t>(col[idx[i + 2]]);
    const std::int32_t d = static_cast<std::int32_t>(col[idx[i + 3]]);
    const std::int32_t e = static_cast<std::int32_t>(col[idx[i + 4]]);
    const std::int32_t f = static_cast<std::int32_t>(col[idx[i + 5]]);
    const std::int32_t g = static_cast<std::int32_t>(col[idx[i + 6]]);
    const std::int32_t h = static_cast<std::int32_t>(col[idx[i + 7]]);
    out[i + 0] = a;
    out[i + 1] = b;
    out[i + 2] = c;
    out[i + 3] = d;
    out[i + 4] = e;
    out[i + 5] = f;
    out[i + 6] = g;
    out[i + 7] = h;
  }
  for (; i + 4 <= n; i += 4) {
    const std::int32_t a = static_cast<std::int32_t>(col[idx[i + 0]]);
    const std::int32_t b = static_cast<std::int32_t>(col[idx[i + 1]]);
    const std::int32_t c = static_cast<std::int32_t>(col[idx[i + 2]]);
    const std::int32_t d = static_cast<std::int32_t>(col[idx[i + 3]]);
    out[i + 0] = a;
    out[i + 1] = b;
    out[i + 2] = c;
    out[i + 3] = d;
  }
  for (; i < n; ++i) out[i] = static_cast<std::int32_t>(col[idx[i]]);
}

// The portable span loop: per symbol, unrolled loads (4-wide plus tail)
// and a branchless compaction — the survivor predicate feeds the write
// cursor. The width's dead sentinel zero-extends to static_cast<T>(-1)
// widened, i.e. 0xFF / 0xFFFF / kDeadState (PackedWideDead in
// packed_table.hpp).
template <typename T>
std::size_t advance_span_portable(const void* entries_v, std::size_t num_states,
                                  const std::int32_t* symbols, std::size_t count,
                                  std::int32_t* state, std::uint32_t* origin,
                                  std::size_t& live, std::uint64_t& transitions,
                                  std::size_t min_live) {
  const T* entries = static_cast<const T*>(entries_v);
  constexpr auto kDead = static_cast<std::int32_t>(static_cast<T>(-1));
  std::size_t consumed = 0;
  while (consumed < count && live >= min_live) {
    const T* col = entries + static_cast<std::size_t>(symbols[consumed]) * num_states;
    std::size_t write = 0;
    std::size_t i = 0;
    for (; i + 4 <= live; i += 4) {
      const std::int32_t a = static_cast<std::int32_t>(col[state[i + 0]]);
      const std::int32_t b = static_cast<std::int32_t>(col[state[i + 1]]);
      const std::int32_t c = static_cast<std::int32_t>(col[state[i + 2]]);
      const std::int32_t d = static_cast<std::int32_t>(col[state[i + 3]]);
      state[write] = a;
      origin[write] = origin[i + 0];
      write += static_cast<std::size_t>(a != kDead);
      state[write] = b;
      origin[write] = origin[i + 1];
      write += static_cast<std::size_t>(b != kDead);
      state[write] = c;
      origin[write] = origin[i + 2];
      write += static_cast<std::size_t>(c != kDead);
      state[write] = d;
      origin[write] = origin[i + 3];
      write += static_cast<std::size_t>(d != kDead);
    }
    for (; i < live; ++i) {
      const std::int32_t value = static_cast<std::int32_t>(col[state[i]]);
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

const GatherOps& portable_gather_ops() {
  static constexpr GatherOps ops{gather_portable<std::uint8_t>,
                                 gather_portable<std::uint16_t>,
                                 gather_portable<std::int32_t>,
                                 advance_span_portable<std::uint8_t>,
                                 advance_span_portable<std::uint16_t>,
                                 advance_span_portable<std::int32_t>,
                                 "portable"};
  return ops;
}

const GatherOps& gather_ops() {
  static const GatherOps& selected = []() -> const GatherOps& {
    if (cpu_has_avx2())
      if (const GatherOps* avx2 = avx2_gather_ops()) return *avx2;
    return portable_gather_ops();
  }();
  return selected;
}

const char* simd_backend_name() { return gather_ops().backend; }

}  // namespace rispar::simd
