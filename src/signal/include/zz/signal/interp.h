// Band-limited fractional-delay interpolation (§4.2.3b).
//
// The paper reconstructs the image of a decoded chunk at the receiver's
// sampling phase by Nyquist interpolation, "approximated by taking the
// summation over few symbols (about 8 symbols) in the neighborhood of n".
// `SincInterpolator` implements exactly that: a windowed-sinc kernel with a
// configurable half-width (default 8 one-sided taps, 16 total).
#pragma once

#include <cstddef>
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
  /// `t` (in samples). Positions outside the stream see implicit zeros;
  /// near the stream edges the truncated kernel window is renormalized by
  /// its summed weight, so edge samples keep interior gain.
  cplx at(const CVec& x, double t) const;

  /// Block evaluation of a run of positions in one pass: out[j] is the
  /// value at t[j], bit-identical to calling at(x, t[j]) per position. The
  /// per-call kernel recurrence setup that at() redoes per sample is
  /// hoisted across the whole run — this is the decoder's per-tracking-
  /// block fetch path (ChunkDecoder::raw_block supplies the positions,
  /// which its legacy per-symbol formula defines).
  ///
  /// Weight reuse: an interior position (whole window inside the stream)
  /// has taps at lo = floor(t) - hw + 1 ... lo + 2hw - 1, and its weights
  /// are a function of x0 = t - lo alone — every tap argument t - i equals
  /// x0 - (i - lo) exactly, because t ≥ hw - 1 and the integer i are
  /// multiples of ulp(t) at most hw apart. So a position whose x0 has the same bit
  /// pattern as the previous interior one reuses its weights. For
  /// raw_block's positions origin + 2k + μ of a drift-free link estimate
  /// (the receiver never estimates drift), x0 is constant within each
  /// binade of t, so a block recomputes weights a handful of times, not
  /// once per position. Edge positions always take at()'s renormalized
  /// path.
  void at_batch(const CVec& x, std::span<const double> t, cplx* out) const;

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
  /// One interpolated value with the recurrence constants precomputed.
  cplx point(const CVec& x, double t, double cd, double sd) const;
  /// Interior-window taps for x0 = t - lo into w; returns how many lie
  /// inside the kernel window (2·half_width, or one fewer when t is an
  /// integer and the last tap sits on the window edge).
  std::size_t interior_weights(double x0, double cd, double sd,
                               double* w) const;
  double kernel(double x) const;  ///< Hann-windowed sinc.
  std::size_t half_width_;
};

}  // namespace zz::sig
