// Runtime CPU feature detection for the gather dispatch.
//
// The chunk walker's gather step (parallel/chunk_walker.hpp) wants AVX2
// gathers but must run everywhere: the dispatch asks this module
// once per process and falls back to the portable unrolled loops when the
// hardware (or the build — see RISPAR_DISABLE_AVX2 in CMakeLists.txt) does
// not provide AVX2. Detection is a cached `__builtin_cpu_supports` probe on
// x86-64 and constant-false elsewhere, so the per-call cost is one predicted
// branch on a namespace-scope boolean.
#pragma once

namespace rispar {

/// True when this process may execute AVX2 instructions: x86-64 hardware
/// reporting AVX2, in a build that did not define RISPAR_DISABLE_AVX2
/// (which forces false so the portable path is what runs and what gets
/// tested). Cached after the first call. The name of the backend actually
/// dispatched — which also requires the AVX2 TU to have been compiled in —
/// is simd_backend_name() in util/simd_gather.hpp.
bool cpu_has_avx2();

}  // namespace rispar
