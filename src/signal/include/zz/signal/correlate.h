// Sliding correlation — the workhorse of §4.2.1 ("Is It a Collision?").
//
// The AP slides the known preamble across the received stream; the
// correlation magnitude is near zero everywhere except where the preamble
// aligns with the start of a packet, because the preamble is pseudo-random
// and independent of data and of shifted versions of itself.
//
// Two implementations live here. `sliding_correlation_naive` is the
// textbook O(N·M) loop, kept as the golden reference. `SlidingCorrelator`
// (and the `sliding_correlation` convenience wrapper that routes through
// it) evaluates the same Γ' via overlap-save FFT convolution: the stream's
// block transforms are computed once by prepare() and reused by every
// correlate() call, so the detector's per-client frequency hypotheses cost
// only one short reference FFT plus the inverse transforms each. The two
// paths agree to ~1e-11 absolute (tests pin 1e-9).
#pragma once

#include <cstddef>
#include <vector>

#include "zz/common/types.h"
#include "zz/signal/fft.h"

namespace zz::sig {

/// Below this many alignments the FFT set-up cost outweighs the naive loop;
/// sliding_correlation() routes accordingly, and callers that keep their own
/// persistent SlidingCorrelator use the same cutoff so either route produces
/// the same numbers it always did.
inline constexpr std::size_t kSlidingNaiveCutoff = 192;

/// Γ(Δ) = Σ_k s*[k] · y[k+Δ] for every alignment Δ, optionally after
/// de-rotating y by a frequency offset hypothesis (the paper's Γ'):
/// Γ'(Δ) = Σ_k s*[k] · y[k+Δ] · e^{-j2πk·δf·T}.
/// Routed through a one-shot SlidingCorrelator when the stream is long
/// enough for the FFT path to win; identical results either way.
CVec sliding_correlation(const CVec& reference, const CVec& stream,
                         double freq_offset_cycles_per_sample = 0.0);

/// The O(N·M) reference implementation (golden model for the FFT path).
CVec sliding_correlation_naive(const CVec& reference, const CVec& stream,
                               double freq_offset_cycles_per_sample = 0.0);

/// One correlation value at a single alignment.
cplx correlation_at(const CVec& reference, const CVec& stream,
                    std::size_t offset,
                    double freq_offset_cycles_per_sample = 0.0);

/// Batched sliding correlator for §4.2.1 preamble detection: overlap-save
/// FFT convolution of one fixed reference (the preamble) against streams,
/// with the stream transforms hoisted so that multiple frequency-offset
/// hypotheses (one per client profile) reuse them. Not thread-safe; give
/// each thread its own instance.
class SlidingCorrelator {
 public:
  explicit SlidingCorrelator(CVec reference);

  const CVec& reference() const { return ref_; }
  /// Σ|s[k]|² of the reference (the Γ' normalizer of §4.2.4a).
  double reference_energy() const { return eref_; }

  /// Block-transform `stream` once; subsequent correlate() calls reuse the
  /// transforms until the next prepare().
  void prepare(const CVec& stream);

  /// Number of alignments for the prepared stream
  /// (stream.size() - ref.size() + 1, or 0 when the stream is too short).
  std::size_t positions() const { return positions_; }

  /// Γ'(Δ) for all Δ of the prepared stream under one frequency-offset
  /// hypothesis. The hypothesis rotates the (short) reference, so the
  /// result is exact, not an approximation.
  void correlate(double freq_offset_cps, CVec& out);

  /// Convenience: prepare + correlate into a fresh vector.
  CVec correlate(const CVec& stream, double freq_offset_cps = 0.0);

 private:
  void ensure_kernel(double freq_offset_cps);

  CVec ref_;
  double eref_ = 0.0;
  Fft fft_;
  std::size_t valid_ = 0;        ///< output samples per block (N - M + 1)
  std::size_t positions_ = 0;    ///< alignments of the prepared stream
  std::vector<CVec> blocks_;     ///< forward FFTs of stream segments
  std::size_t nblocks_ = 0;
  CVec kernel_;                  ///< FFT of conj-reversed rotated reference
  double kernel_freq_ = 0.0;     ///< hypothesis kernel_ was built for
  bool kernel_ready_ = false;
  CVec work_;                    ///< per-block product / inverse buffer
};

/// Sliding sum of |y|² over `window` samples: out[d] = Σ_{k<window}
/// |stream[d+k]|², for d in [0, stream.size() - window]. The running-energy
/// normalizer of the collision detector. O(N) via a running sum that is
/// re-anchored periodically to keep cancellation error below 1e-9 relative.
std::vector<double> windowed_energy(const CVec& stream, std::size_t window);

/// Positions where |corr| exceeds `threshold`, keeping only local maxima
/// within a guard of `min_separation` samples (a collision detector must
/// not report the same packet start twice).
std::vector<std::size_t> find_peaks(const CVec& corr, double threshold,
                                    std::size_t min_separation);

/// Same, over a real-valued metric profile (e.g. the detector's normalized
/// correlation magnitude).
std::vector<std::size_t> find_peaks(const std::vector<double>& metric,
                                    double threshold,
                                    std::size_t min_separation);

/// Sub-sample peak refinement: fits a parabola to |corr| at (p-1, p, p+1)
/// and returns the fractional offset of the true maximum in (-0.5, 0.5).
double parabolic_peak_offset(const CVec& corr, std::size_t peak);

}  // namespace zz::sig
