#include "zz/signal/interp.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "zz/common/mathutil.h"
#include "zz/signal/simd.h"

#if defined(ZZ_SIMD_AVX2_DISPATCH)
#include <immintrin.h>
#endif

namespace zz::sig {
namespace {

/// Σ_j x[lo + j]·w[j] over j in [0, n), in ascending j: each part sums its
/// own products from +0.0 (what cplx·double and += compile to, spelled
/// out so that no optimization level can turn x·w into a complex product).
cplx dot(const CVec& x, std::ptrdiff_t lo, const double* w, std::size_t n) {
  const cplx* xs = x.data() + lo;
  double re = 0.0, im = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    re += xs[j].real() * w[j];
    im += xs[j].imag() * w[j];
  }
  return {re, im};
}

/// floor(t) as an integer, for t ≥ 0 whose floor fits one: truncation —
/// exact, with no libm call.
std::ptrdiff_t floor_index(double t) { return static_cast<std::ptrdiff_t>(t); }

/// Longest run of consecutive interior positions at_batch sums together.
constexpr std::size_t kRun = 8;

/// at_batch's loop. An edge position takes `edge(t)` (the renormalized
/// window). An interior position fixes the weight key (recomputing the
/// weights through `weigh(x0, w)` when its x0 differs from carry's) and
/// starts a run: it and up to kRun - 1 following interior positions with
/// the same key. A lone position takes dot(); a longer run's window starts
/// go to `sum(lo, n, out)`.
template <typename Sum, typename Edge, typename Weigh>
__attribute__((always_inline)) inline void batch_loop(
    const CVec& x, std::span<const double> t, cplx* out,
    SincInterpolator::Weights& carry, std::ptrdiff_t hw, Sum sum, Edge edge,
    Weigh weigh) {
  // A window is interior — lo = floor(t) - hw + 1 ≥ 0 and its last tap
  // lo + 2·hw - 1 ≤ x.size() - 1 — exactly when hw - 1 ≤ t < x.size() - hw
  // (integer bounds, exact as doubles); NaN is never interior.
  const auto t_lo = static_cast<double>(hw - 1);
  const double t_hi =
      static_cast<double>(static_cast<std::ptrdiff_t>(x.size()) - hw);
  const auto interior = [&](double tj) { return tj >= t_lo && tj < t_hi; };
  std::size_t j = 0;
  while (j < t.size()) {
    if (!interior(t[j])) {
      out[j] = edge(t[j]);
      ++j;
      continue;
    }
    const std::ptrdiff_t lo = floor_index(t[j]) - hw + 1;
    const double x0 = t[j] - static_cast<double>(lo);
    const auto bits = std::bit_cast<std::uint64_t>(x0);
    if (carry.n == 0 || bits != carry.key) {
      carry.n = weigh(x0, carry.w);
      carry.key = bits;
    }
    std::ptrdiff_t run[kRun] = {lo};
    std::size_t n = 1;
    for (; n < kRun && j + n < t.size() && interior(t[j + n]); ++n) {
      const std::ptrdiff_t l = floor_index(t[j + n]) - hw + 1;
      if (std::bit_cast<std::uint64_t>(t[j + n] - static_cast<double>(l)) !=
          bits)
        break;
      run[n] = l;
    }
    if (n == 1)
      out[j] = dot(x, lo, carry.w, carry.n);
    else
      sum(run, n, out + j);
    j += n;
  }
}

#if defined(ZZ_SIMD_AVX2_DISPATCH)
/// dot() for a run of n ≤ 2R positions: out[i] = dot(x, lo[i], w, nw).
/// Register r holds positions 2r and 2r + 1 as (re, im, re, im); each lane
/// adds x·w[j] in ascending j, as dot() does. Each step loads taps j and
/// j + 1 of both positions and pairs them up with two lane permutes. An
/// odd last tap loads one sample past it, which an interior window (nw ≤
/// 2·hw taps, 2·hw inside x) still holds, and uses only the first. An
/// unused lane repeats position 0 and is not stored.
template <std::size_t R>
__attribute__((target("avx2"))) inline void dot_lanes(
    const CVec& x, const std::ptrdiff_t* lo, std::size_t n, const double* w,
    std::size_t nw, cplx* out) {
  const double* src[2 * R];
  for (std::size_t i = 0; i < 2 * R; ++i)
    src[i] = reinterpret_cast<const double*>(x.data() + lo[i < n ? i : 0]);
  __m256d acc[R];
  for (auto& a : acc) a = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 2 <= nw; j += 2) {
    const __m256d w0 = _mm256_broadcast_sd(w + j);
    const __m256d w1 = _mm256_broadcast_sd(w + j + 1);
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d a = _mm256_loadu_pd(src[2 * r] + 2 * j);
      const __m256d b = _mm256_loadu_pd(src[2 * r + 1] + 2 * j);
      acc[r] = _mm256_add_pd(
          acc[r], _mm256_mul_pd(_mm256_permute2f128_pd(a, b, 0x20), w0));
      acc[r] = _mm256_add_pd(
          acc[r], _mm256_mul_pd(_mm256_permute2f128_pd(a, b, 0x31), w1));
    }
  }
  if (j < nw) {
    const __m256d w0 = _mm256_broadcast_sd(w + j);
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d a = _mm256_loadu_pd(src[2 * r] + 2 * j);
      const __m256d b = _mm256_loadu_pd(src[2 * r + 1] + 2 * j);
      acc[r] = _mm256_add_pd(
          acc[r], _mm256_mul_pd(_mm256_permute2f128_pd(a, b, 0x20), w0));
    }
  }
  alignas(32) double sums[4 * R];
  for (std::size_t r = 0; r < R; ++r) _mm256_store_pd(sums + 4 * r, acc[r]);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = cplx{sums[2 * i], sums[2 * i + 1]};
}

/// A run of two or more positions summed in lanes.
struct LaneSum {
  const CVec& x;
  const SincInterpolator::Weights& weights;
  __attribute__((target("avx2"))) void operator()(
      const std::ptrdiff_t* lo, std::size_t n, cplx* out) const {
    static_assert(kRun == 8, "dot_lanes<4> covers the longest run");
    const double* w = weights.w;
    switch ((n + 1) / 2) {
      case 1: dot_lanes<1>(x, lo, n, w, weights.n, out); break;
      case 2: dot_lanes<2>(x, lo, n, w, weights.n, out); break;
      case 3: dot_lanes<3>(x, lo, n, w, weights.n, out); break;
      default: dot_lanes<4>(x, lo, n, w, weights.n, out); break;
    }
  }
};

/// at_batch's loop with the runs summed in lanes, compiled for AVX2 as a
/// whole so that an interior run never leaves it for a call.
template <typename Edge, typename Weigh>
__attribute__((target("avx2"))) void batch_lanes(
    const CVec& x, std::span<const double> t, cplx* out,
    SincInterpolator::Weights& carry, std::ptrdiff_t hw, Edge edge,
    Weigh weigh) {
  batch_loop(x, t, out, carry, hw, LaneSum{x, carry}, edge, weigh);
}
#endif

}  // namespace

SincInterpolator::SincInterpolator(std::size_t half_width)
    : half_width_(half_width) {
  if (half_width_ == 0 || half_width_ > kMaxHalfWidth)
    throw std::invalid_argument("SincInterpolator: half width out of range");
  const double dphi = kPi / static_cast<double>(half_width_);
  cd_ = std::cos(dphi);
  sd_ = std::sin(dphi);
}

std::size_t SincInterpolator::interior_weights(double x0, double* w) const {
  const double hwd = static_cast<double>(half_width_);
  const double cd = cd_, sd = sd_;  // locals: stores to w may alias members
  // The Hann window keeps the truncated kernel's sidelobes low enough that
  // the reconstruction error sits well below the AWGN floor of every
  // experiment. Consecutive kernel arguments differ by exactly 1, so the
  // two transcendental factors recur instead of being re-evaluated per tap:
  //   sin(π(x0 - j)) = ±sin(πf)          (alternating sign)
  //   cos(π(x0 - j)/hw)                  (fixed-angle rotor)
  // This is ~2 sin/cos calls per window instead of 2 per tap, and matches
  // the direct evaluation to ~1e-15.
  const double s0 = std::sin(kPi * x0);
  const double phi0 = kPi * x0 / hwd;
  double cw = std::cos(phi0);
  double sw = std::sin(phi0);
  double sign = 1.0;  // (-1)^j for the sine alternation
  const std::size_t taps = 2 * half_width_;
  std::size_t j = 0;
  for (; j < taps; ++j) {
    const double xv = x0 - static_cast<double>(j);
    // x0 < hw, so only the last tap can leave the window (at xv = -hw,
    // when the position sits on the sample grid).
    if (std::abs(xv) >= hwd) break;
    if (std::abs(xv) < 1e-9) {
      w[j] = 0.5 * (1.0 + cw);
    } else {
      const double s = sign * s0 / (kPi * xv);  // sinc(xv)
      w[j] = s * 0.5 * (1.0 + cw);              // Hann window
    }
    // Advance the window rotor: cos(phi0 - (j+1)·dphi).
    const double cn = cw * cd + sw * sd;
    sw = sw * cd - cw * sd;
    cw = cn;
    sign = -sign;
  }
  return j;
}

cplx SincInterpolator::at(const CVec& x, double t) const {
  // A NaN or far-off position (|t| ≥ 2^62, no tap anywhere near a stream)
  // reads implicit zeros without an integer conversion out of range.
  if (!(std::abs(t) < 0x1p62)) return cplx{0.0, 0.0};
  const auto n0 = static_cast<std::ptrdiff_t>(std::floor(t));
  const auto hw = static_cast<std::ptrdiff_t>(half_width_);
  const std::ptrdiff_t full_lo = n0 - hw + 1;
  const std::ptrdiff_t full_hi = n0 + hw;
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(full_lo, 0);
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
      full_hi, static_cast<std::ptrdiff_t>(x.size()) - 1);
  if (hi < lo) return cplx{0.0, 0.0};
  const double hwd = static_cast<double>(half_width_);

  if (lo == full_lo && hi == full_hi) {
    // Interior fast path: the whole kernel window is inside the stream.
    double w[2 * kMaxHalfWidth];
    return dot(x, lo, w, interior_weights(t - static_cast<double>(lo), w));
  }

  // Edge path: the stream boundary truncates the kernel window. A plain
  // truncated sum loses the clipped taps' weight and comes back attenuated
  // (a DC stream would read ~0.5 at the very first sample), so the clipped
  // window is renormalized by the summed kernel weight: the usable taps are
  // scaled by (full-window weight) / (in-range weight). Guarded so a
  // pathological clipped weight near zero (possible in principle since
  // sidelobes are negative) never amplifies noise.
  const double x0 = t - static_cast<double>(full_lo);
  const double s0 = std::sin(kPi * x0);
  const double phi0 = kPi * x0 / hwd;
  double cw = std::cos(phi0);
  double sw = std::sin(phi0);

  cplx acc{0.0, 0.0};
  double wsum_full = 0.0;
  double wsum_clip = 0.0;
  double sign = 1.0;
  for (std::ptrdiff_t i = full_lo; i <= full_hi; ++i) {
    const double xv = t - static_cast<double>(i);
    if (std::abs(xv) < hwd) {
      double k;
      if (std::abs(xv) < 1e-9) {
        k = 0.5 * (1.0 + cw);
      } else {
        const double s = sign * s0 / (kPi * xv);
        k = s * 0.5 * (1.0 + cw);
      }
      wsum_full += k;
      if (i >= lo && i <= hi) {
        acc += x[static_cast<std::size_t>(i)] * k;
        wsum_clip += k;
      }
    }
    const double cn = cw * cd_ + sw * sd_;
    sw = sw * cd_ - cw * sd_;
    cw = cn;
    sign = -sign;
  }
  if (std::abs(wsum_clip) > 1e-6) {
    const double renorm = wsum_full / wsum_clip;
    if (renorm > 0.25 && renorm < 4.0) acc *= renorm;
  }
  return acc;
}

void SincInterpolator::at_batch(const CVec& x, std::span<const double> t,
                                cplx* out) const {
  Weights weights;
  at_batch(x, t, out, weights);
}

void SincInterpolator::at_batch(const CVec& x, std::span<const double> t,
                                cplx* out, Weights& carry) const {
  const auto hw = static_cast<std::ptrdiff_t>(half_width_);
  const auto edge = [&](double tj) { return at(x, tj); };
  const auto weigh = [&](double x0, double* w) {
    return interior_weights(x0, w);
  };
#if defined(ZZ_SIMD_AVX2_DISPATCH)
  if (simd_width() >= 4) {
    batch_lanes(x, t, out, carry, hw, edge, weigh);
    return;
  }
#endif
  const auto sum = [&](const std::ptrdiff_t* lo, std::size_t n, cplx* o) {
    for (std::size_t i = 0; i < n; ++i) o[i] = dot(x, lo[i], carry.w, carry.n);
  };
  batch_loop(x, t, out, carry, hw, sum, edge, weigh);
}

void SincInterpolator::at_uniform(const CVec& x, double t0, double dt,
                                  std::size_t n, cplx* out) const {
  for (std::size_t j = 0; j < n; ++j)
    out[j] = at(x, t0 + dt * static_cast<double>(j));
}

CVec SincInterpolator::shift(const CVec& x, double mu,
                             double drift_per_sample) const {
  // The historical per-sample position formula (bit-identical to calling
  // at() per sample).
  CVec y(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    const double t =
        static_cast<double>(n) + mu + drift_per_sample * static_cast<double>(n);
    y[n] = at(x, t);
  }
  return y;
}

}  // namespace zz::sig
