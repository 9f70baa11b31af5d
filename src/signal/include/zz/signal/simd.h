// CPU dispatch of the SIMD lane kernels.
//
// The image render (chan::render), the block interpolator
// (SincInterpolator::at_batch) and the chunk decoder (phy::ChunkDecoder)
// each have an AVX2 lane route and a portable route. Every route is
// bit-identical to the others by contract: a lane performs exactly the
// scalar operations of one sample, in the same order. One width, read by
// all three, picks the route; tests cap it to pin each route.
#pragma once

#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
/// Compiled on x86-64 GCC/Clang: the AVX2 routes are built, behind
/// __attribute__((target("avx2"))) and a runtime CPU check.
#define ZZ_SIMD_AVX2_DISPATCH 1
#endif

namespace zz::sig {

/// Lane width the kernels may use: 4 where the AVX2 routes are built and
/// the CPU has AVX2, else 2 (baseline SSE2 pairs in the render, portable
/// loops elsewhere), lowered by set_simd_width_for_test.
std::size_t simd_width();

/// Test hook: cap simd_width() at `width` (0 = no cap, the CPU dispatch).
/// 4 keeps the AVX2 routes; 2 pins the portable ones (and the render's
/// SSE2 weight pairs); 1 also pins the render's scalar weight loop.
void set_simd_width_for_test(int width);

}  // namespace zz::sig
