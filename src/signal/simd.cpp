#include "zz/signal/simd.h"

#include <algorithm>

namespace zz::sig {
namespace {

/// 0 = no cap (see set_simd_width_for_test).
int g_simd_width_cap = 0;

std::size_t cpu_width() {
#if defined(ZZ_SIMD_AVX2_DISPATCH)
  static const std::size_t width = __builtin_cpu_supports("avx2") ? 4 : 2;
  return width;
#else
  return 2;
#endif
}

}  // namespace

std::size_t simd_width() {
  const std::size_t width = cpu_width();
  if (g_simd_width_cap <= 0) return width;
  return std::min(width, static_cast<std::size_t>(g_simd_width_cap));
}

void set_simd_width_for_test(int width) { g_simd_width_cap = width; }

}  // namespace zz::sig
