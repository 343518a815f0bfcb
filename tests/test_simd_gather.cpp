// The gather backends behind the chunk walker's gather step
// (util/simd_gather.hpp): the AVX2 vpgatherdd path and the portable
// unrolled fallback must agree with each other and with a naive scalar loop
// for every table width, index pattern and block length (including the <8
// and <4 tails), and the runtime dispatch must pick a backend consistent
// with util/cpuid.hpp.
#include "util/simd_gather.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "automata/packed_table.hpp"
#include "util/cpuid.hpp"
#include "util/prng.hpp"

namespace rispar {
namespace {

template <typename T>
void expect_backend_matches_naive(const simd::GatherOps& ops, Prng& prng) {
  // A column with every representable value class: state ids and the dead
  // sentinel, plus kGatherSlackEntries of sentinel tail slack exactly as
  // PackedTable::build lays it out.
  constexpr std::size_t kColumn = 300;
  std::vector<T> column(kColumn + kGatherSlackEntries, PackedDead<T>::value);
  for (std::size_t s = 0; s < kColumn; ++s)
    column[s] = prng.pick_index(4) == 0
                    ? PackedDead<T>::value
                    : static_cast<T>(prng.pick_index(kColumn < 250 ? kColumn : 250));

  const simd::GatherFn gather = simd::gather_fn<T>(ops);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 15u, 16u, 65u, 200u}) {
    std::vector<std::int32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
      idx[i] = static_cast<std::int32_t>(prng.pick_index(kColumn));
    // The last entries are the over-read hazard; always include them.
    if (n > 0) idx[n - 1] = static_cast<std::int32_t>(kColumn - 1);
    if (n > 1) idx[0] = static_cast<std::int32_t>(kColumn - 2);

    std::vector<std::int32_t> out(n, -7);
    gather(column.data(), idx.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], static_cast<std::int32_t>(column[static_cast<std::size_t>(
                            idx[i])]))
          << ops.backend << " n=" << n << " lane=" << i;
  }
}

template <typename T>
void expect_advance_span_matches_naive(const simd::GatherOps& ops, Prng& prng,
                                       std::size_t min_live) {
  // A little 2-symbol table (num_states × 2) with ~1/4 dead entries, plus
  // the build-time tail slack.
  constexpr std::size_t kStates = 150;
  std::vector<T> entries(kStates * 2 + kGatherSlackEntries, PackedDead<T>::value);
  for (std::size_t e = 0; e < kStates * 2; ++e)
    entries[e] = prng.pick_index(4) == 0 ? PackedDead<T>::value
                                         : static_cast<T>(prng.pick_index(kStates));

  const simd::AdvanceSpanFn advance = simd::advance_span_fn<T>(ops);
  for (const std::size_t n : {2u, 4u, 7u, 8u, 9u, 16u, 17u, 64u, 130u}) {
    std::vector<std::int32_t> symbols(40);
    for (auto& symbol : symbols) symbol = static_cast<std::int32_t>(prng.pick_index(2));
    std::vector<std::int32_t> state(n);
    std::vector<std::uint32_t> origin(n);
    for (std::size_t i = 0; i < n; ++i) {
      state[i] = static_cast<std::int32_t>(prng.pick_index(kStates));
      origin[i] = static_cast<std::uint32_t>(1000 + i);
    }
    state[n - 1] = static_cast<std::int32_t>(kStates - 1);  // over-read hazard

    // The naive span loop this must equal lane for lane: advance+compact
    // per symbol, stop after the symbol that leaves < min_live survivors.
    std::vector<std::int32_t> expected_state = state;
    std::vector<std::uint32_t> expected_origin = origin;
    std::uint64_t expected_transitions = 0;
    std::size_t expected_live = n;
    std::size_t expected_consumed = 0;
    while (expected_consumed < symbols.size() && expected_live >= min_live) {
      const T* col = entries.data() +
                     static_cast<std::size_t>(symbols[expected_consumed]) * kStates;
      std::size_t write = 0;
      for (std::size_t i = 0; i < expected_live; ++i) {
        const auto value = static_cast<std::int32_t>(
            col[static_cast<std::size_t>(expected_state[i])]);
        if (value == PackedWideDead<T>) continue;
        expected_state[write] = value;
        expected_origin[write] = expected_origin[i];
        ++write;
      }
      expected_transitions += write;
      expected_live = write;
      ++expected_consumed;
    }

    std::size_t live = n;
    std::uint64_t transitions = 0;
    const std::size_t consumed =
        advance(entries.data(), kStates, symbols.data(), symbols.size(),
                state.data(), origin.data(), live, transitions, min_live);
    SCOPED_TRACE(std::string(ops.backend) + " n=" + std::to_string(n) +
                 " min_live=" + std::to_string(min_live));
    ASSERT_EQ(consumed, expected_consumed);
    ASSERT_EQ(live, expected_live);
    ASSERT_EQ(transitions, expected_transitions);
    for (std::size_t i = 0; i < live; ++i) {
      ASSERT_EQ(state[i], expected_state[i]);
      ASSERT_EQ(origin[i], expected_origin[i]);
    }
  }
}

// min_live 8 is the chunk walker's gather band; 2 runs the span down to the
// last pair.
void expect_advance_span_all_widths(const simd::GatherOps& ops, Prng& prng) {
  for (const std::size_t min_live : {2u, 8u}) {
    expect_advance_span_matches_naive<std::uint8_t>(ops, prng, min_live);
    expect_advance_span_matches_naive<std::uint16_t>(ops, prng, min_live);
    expect_advance_span_matches_naive<std::int32_t>(ops, prng, min_live);
  }
}

TEST(SimdGather, AdvanceSpanPortableMatchesNaive) {
  Prng prng(21);
  expect_advance_span_all_widths(simd::portable_gather_ops(), prng);
}

TEST(SimdGather, AdvanceSpanAvx2MatchesNaiveWhenPresent) {
  if (!cpu_has_avx2() || simd::avx2_gather_ops() == nullptr)
    GTEST_SKIP() << "no AVX2 backend in this build/machine";
  Prng prng(22);
  expect_advance_span_all_widths(*simd::avx2_gather_ops(), prng);
}

template <typename T>
void expect_in_place_gather_works(const simd::GatherOps& ops, Prng& prng) {
  // The walker's gather step gathers with out == idx when it records or
  // converges; every backend must read a lane's index before writing its
  // slot.
  constexpr std::size_t kColumn = 120;
  std::vector<T> column(kColumn + kGatherSlackEntries, PackedDead<T>::value);
  for (std::size_t s = 0; s < kColumn; ++s)
    column[s] = static_cast<T>(prng.pick_index(kColumn));
  const simd::GatherFn gather = simd::gather_fn<T>(ops);
  for (const std::size_t n : {1u, 7u, 8u, 23u, 64u}) {
    std::vector<std::int32_t> buffer(n);
    for (std::size_t i = 0; i < n; ++i)
      buffer[i] = static_cast<std::int32_t>(prng.pick_index(kColumn));
    const std::vector<std::int32_t> idx = buffer;
    gather(column.data(), buffer.data(), n, buffer.data());
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(buffer[i], static_cast<std::int32_t>(
                               column[static_cast<std::size_t>(idx[i])]))
          << ops.backend << " n=" << n << " lane=" << i;
  }
}

TEST(SimdGather, InPlaceGatherAllBackends) {
  Prng prng(31);
  expect_in_place_gather_works<std::uint8_t>(simd::portable_gather_ops(), prng);
  expect_in_place_gather_works<std::uint16_t>(simd::portable_gather_ops(), prng);
  expect_in_place_gather_works<std::int32_t>(simd::portable_gather_ops(), prng);
  if (cpu_has_avx2() && simd::avx2_gather_ops() != nullptr) {
    expect_in_place_gather_works<std::uint8_t>(*simd::avx2_gather_ops(), prng);
    expect_in_place_gather_works<std::uint16_t>(*simd::avx2_gather_ops(), prng);
    expect_in_place_gather_works<std::int32_t>(*simd::avx2_gather_ops(), prng);
  }
}

TEST(SimdGather, PortableMatchesNaiveAllWidths) {
  Prng prng(11);
  expect_backend_matches_naive<std::uint8_t>(simd::portable_gather_ops(), prng);
  expect_backend_matches_naive<std::uint16_t>(simd::portable_gather_ops(), prng);
  expect_backend_matches_naive<std::int32_t>(simd::portable_gather_ops(), prng);
}

TEST(SimdGather, Avx2MatchesNaiveAllWidthsWhenPresent) {
  if (!cpu_has_avx2() || simd::avx2_gather_ops() == nullptr)
    GTEST_SKIP() << "no AVX2 backend in this build/machine";
  Prng prng(12);
  expect_backend_matches_naive<std::uint8_t>(*simd::avx2_gather_ops(), prng);
  expect_backend_matches_naive<std::uint16_t>(*simd::avx2_gather_ops(), prng);
  expect_backend_matches_naive<std::int32_t>(*simd::avx2_gather_ops(), prng);
}

TEST(SimdGather, DispatchAgreesWithCpuDetection) {
  const simd::GatherOps& ops = simd::gather_ops();
  if (cpu_has_avx2() && simd::avx2_gather_ops() != nullptr) {
    EXPECT_STREQ(ops.backend, "avx2");
    EXPECT_EQ(&ops, simd::avx2_gather_ops());
  } else {
    EXPECT_STREQ(ops.backend, "portable");
    EXPECT_EQ(&ops, &simd::portable_gather_ops());
  }
  EXPECT_STREQ(simd::simd_backend_name(), ops.backend);
}

TEST(SimdGather, PackedTableCarriesGatherSlack) {
  // build() must append the sentinel slack the dword gathers rely on; the
  // last real entry of the last column is the one the AVX2 path over-reads
  // past.
  const std::vector<State> rows{0, 1, 1, kDeadState};  // 2 states × 2 symbols
  const PackedTable table = PackedTable::build(rows, 2, 2);
  ASSERT_EQ(table.width(), TableWidth::kU8);
  const std::uint8_t* data = table.data<std::uint8_t>();
  EXPECT_EQ(data[3], PackedDead<std::uint8_t>::value);  // packed [s=1][a=1]
  for (std::size_t pad = 0; pad < kGatherSlackEntries; ++pad)
    EXPECT_EQ(data[4 + pad], PackedDead<std::uint8_t>::value);
}

}  // namespace
}  // namespace rispar
