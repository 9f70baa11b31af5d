// Band-limited fractional-delay interpolation (§4.2.3b).
//
// The paper reconstructs the image of a decoded chunk at the receiver's
// sampling phase by Nyquist interpolation, "approximated by taking the
// summation over few symbols (about 8 symbols) in the neighborhood of n".
// `SincInterpolator` implements exactly that: a windowed-sinc kernel with a
// configurable half-width (default 8 one-sided taps, 16 total).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "zz/common/types.h"

namespace zz::sig {

/// Windowed-sinc interpolator over a complex sample stream.
class SincInterpolator {
 public:
  /// Largest supported half width; the kernel taps live in a stack array.
  static constexpr std::size_t kMaxHalfWidth = 64;

  /// `half_width`: number of neighbouring samples used on each side, in
  /// [1, kMaxHalfWidth] (std::invalid_argument otherwise).
  explicit SincInterpolator(std::size_t half_width = 8);

  std::size_t half_width() const { return half_width_; }

  /// Value of the band-limited signal underlying `x` at continuous position
  /// `t` (in samples). Positions outside the stream see implicit zeros
  /// (a NaN position too); near the stream edges the truncated kernel
  /// window is renormalized by its summed weight, so edge samples keep
  /// interior gain.
  cplx at(const CVec& x, double t) const;

  /// Interior kernel weights keyed on the bits of x0 = t - lo (see
  /// at_batch). A caller that fetches block after block keeps one and
  /// passes it to every at_batch call, so the weights of the last key carry
  /// across calls. That is exact: the weights are a function of x0 and the
  /// half width, and x0 ∈ [hw - 1, hw) fixes the half width too.
  struct Weights {
    std::size_t n = 0;      ///< taps in w; 0 = no key yet
    std::uint64_t key = 0;  ///< bits of x0
    double w[2 * kMaxHalfWidth];
  };

  /// Block evaluation of a run of positions in one pass: out[j] is the
  /// value at t[j], bit-identical to calling at(x, t[j]) per position —
  /// this is the decoder's per-tracking-block fetch path
  /// (phy::ChunkDecoder supplies the positions, which its legacy
  /// per-symbol formula defines).
  ///
  /// Weight reuse: an interior position (whole window inside the stream)
  /// has taps at lo = floor(t) - hw + 1 ... lo + 2hw - 1, and its weights
  /// are a function of x0 = t - lo alone — every tap argument t - i equals
  /// x0 - (i - lo) exactly, because t ≥ hw - 1 and the integer i are
  /// multiples of ulp(t) at most hw apart. So a position whose x0 has the
  /// same bit pattern as the previous interior one reuses its weights. For
  /// the decoder's positions origin + 2k + μ of a drift-free link estimate
  /// (the receiver never estimates drift), x0 is constant within each
  /// binade of t, so a whole decode computes weights a handful of times,
  /// not once per position. Edge positions always take at()'s renormalized
  /// path.
  ///
  /// Lanes: where sig::simd_width() is 4 (AVX2), a run of up to eight
  /// consecutive interior positions that share one weight vector is summed
  /// two positions to a ymm register (re, im of each). Each lane takes
  /// x[lo + j]·w[j] and adds it to its own accumulator, starting at +0.0,
  /// in ascending j — the exact operations of the per-position dot
  /// product, so every route gives the same bits. A key change ends a run;
  /// a lone position (with drift ≠ 0 every position has its own key) and
  /// edge windows take the per-position route. A NaN or far-off position
  /// (|t| ≥ 2^62) reads zeros, as at() does.
  void at_batch(const CVec& x, std::span<const double> t, cplx* out) const;
  /// at_batch with the weights carried in `carry` across calls.
  void at_batch(const CVec& x, std::span<const double> t, cplx* out,
                Weights& carry) const;

  /// Convenience block evaluation at uniformly spaced positions
  /// t_j = t0 + j·dt for j in [0, n) — a symbol-rate run expressed by
  /// (start, step). Note the decoder itself feeds at_batch with positions
  /// computed by its historical per-symbol expression, whose rounding
  /// differs from t0 + j·dt at the ulp level; this wrapper is for callers
  /// without such a legacy contract.
  void at_uniform(const CVec& x, double t0, double dt, std::size_t n,
                  cplx* out) const;

  /// Resample the whole stream at positions t_n = n + mu + drift*n, i.e. a
  /// constant fractional offset plus a linear clock drift — the sampling
  /// model of §3.1.2. Output has the same length as the input.
  CVec shift(const CVec& x, double mu, double drift_per_sample = 0.0) const;

 private:
  /// Interior-window taps for x0 = t - lo into w; returns how many lie
  /// inside the kernel window (2·half_width, or one fewer when t is an
  /// integer and the last tap sits on the window edge).
  std::size_t interior_weights(double x0, double* w) const;
  std::size_t half_width_;
  double cd_, sd_;  ///< cos/sin(π/half_width): the window rotor's step
};

}  // namespace zz::sig
