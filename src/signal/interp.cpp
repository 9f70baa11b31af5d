#include "zz/signal/interp.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "zz/common/mathutil.h"

namespace zz::sig {
namespace {

/// Σ_j x[lo + j]·w[j] over j in [0, n), in ascending j.
cplx dot(const CVec& x, std::ptrdiff_t lo, const double* w, std::size_t n) {
  const cplx* xs = x.data() + lo;
  cplx acc{0.0, 0.0};
  for (std::size_t j = 0; j < n; ++j) acc += xs[j] * w[j];
  return acc;
}

}  // namespace

SincInterpolator::SincInterpolator(std::size_t half_width)
    : half_width_(half_width) {
  if (half_width_ == 0 || half_width_ > kMaxHalfWidth)
    throw std::invalid_argument("SincInterpolator: half width out of range");
}

double SincInterpolator::kernel(double x) const {
  const double hw = static_cast<double>(half_width_);
  if (std::abs(x) >= hw) return 0.0;
  // Hann window keeps the truncated kernel's sidelobes low enough that the
  // reconstruction error sits well below the AWGN floor of every experiment.
  const double w = 0.5 * (1.0 + std::cos(kPi * x / hw));
  return sinc(x) * w;
}

std::size_t SincInterpolator::interior_weights(double x0, double cd,
                                              double sd, double* w) const {
  const double hwd = static_cast<double>(half_width_);
  // Consecutive kernel arguments differ by exactly 1, so the two
  // transcendental factors recur instead of being re-evaluated per tap:
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

cplx SincInterpolator::point(const CVec& x, double t, double cd,
                             double sd) const {
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
    return dot(x, lo, w, interior_weights(t - static_cast<double>(lo), cd,
                                          sd, w));
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
    const double cn = cw * cd + sw * sd;
    sw = sw * cd - cw * sd;
    cw = cn;
    sign = -sign;
  }
  if (std::abs(wsum_clip) > 1e-6) {
    const double renorm = wsum_full / wsum_clip;
    if (renorm > 0.25 && renorm < 4.0) acc *= renorm;
  }
  return acc;
}

cplx SincInterpolator::at(const CVec& x, double t) const {
  const double dphi = kPi / static_cast<double>(half_width_);
  const double cd = std::cos(dphi);
  const double sd = std::sin(dphi);
  return point(x, t, cd, sd);
}

void SincInterpolator::at_batch(const CVec& x, std::span<const double> t,
                                cplx* out) const {
  const double dphi = kPi / static_cast<double>(half_width_);
  const double cd = std::cos(dphi);
  const double sd = std::sin(dphi);
  const auto hw = static_cast<std::ptrdiff_t>(half_width_);
  const auto last = static_cast<std::ptrdiff_t>(x.size()) - 1;
  // Interior weights of the last interior position, keyed on x0's bits.
  double w[2 * kMaxHalfWidth];
  std::size_t nw = 0;  // 0 = no key yet (an interior window has taps)
  std::uint64_t key = 0;
  for (std::size_t j = 0; j < t.size(); ++j) {
    const auto lo = static_cast<std::ptrdiff_t>(std::floor(t[j])) - hw + 1;
    if (lo < 0 || lo + 2 * hw - 1 > last) {
      out[j] = point(x, t[j], cd, sd);  // edge: renormalized window
      continue;
    }
    const double x0 = t[j] - static_cast<double>(lo);
    const auto bits = std::bit_cast<std::uint64_t>(x0);
    if (nw == 0 || bits != key) {
      nw = interior_weights(x0, cd, sd, w);
      key = bits;
    }
    out[j] = dot(x, lo, w, nw);
  }
}

void SincInterpolator::at_uniform(const CVec& x, double t0, double dt,
                                  std::size_t n, cplx* out) const {
  const double dphi = kPi / static_cast<double>(half_width_);
  const double cd = std::cos(dphi);
  const double sd = std::sin(dphi);
  for (std::size_t j = 0; j < n; ++j)
    out[j] = point(x, t0 + dt * static_cast<double>(j), cd, sd);
}

CVec SincInterpolator::shift(const CVec& x, double mu,
                             double drift_per_sample) const {
  // A whole-stream resample is one long block evaluation: hoist the
  // recurrence constants like at_batch does, keeping the historical
  // per-sample position formula (bit-identical to calling at() per sample).
  const double dphi = kPi / static_cast<double>(half_width_);
  const double cd = std::cos(dphi);
  const double sd = std::sin(dphi);
  CVec y(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    const double t =
        static_cast<double>(n) + mu + drift_per_sample * static_cast<double>(n);
    y[n] = point(x, t, cd, sd);
  }
  return y;
}

}  // namespace zz::sig
