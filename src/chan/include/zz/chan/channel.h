// The wireless channel model — the paper's Chapter 3 made executable.
//
//   y[n] = H · (h_isi * x̃)[n] · e^{j2π n δf T} + w[n]          (Eq. 3.1 + §3.1)
//
// where x̃ is the transmitted symbol stream resampled at the receiver's
// sampling phase (fractional offset μ plus clock drift, §3.1.2), h_isi is a
// short symbol-spaced inter-symbol-interference filter (§3.1.3), H = h·e^{jγ}
// is the quasi-static flat-fading gain and w is AWGN.
//
// THE key property of this module: `add_signal()` is the one and only
// definition of how symbols turn into received samples. The simulator calls
// it with true parameters; ZigZag's reconstructor calls it with *estimated*
// parameters when it re-encodes a decoded chunk (§4.2.3b). Subtraction
// fidelity is then limited by estimation error — exactly as on real radios —
// and never by model mismatch.
#pragma once

#include <cstddef>

#include "zz/common/rng.h"
#include "zz/common/types.h"
#include "zz/signal/fir.h"
#include "zz/signal/interp.h"

namespace zz::chan {

/// Samples per symbol. The paper's GNU Radio prototype runs 2 samples per
/// symbol (§5.1c); so do we. The on-air pulse is then half-band, which is
/// what makes fractional-delay reconstruction (§4.2.3b) accurate with the
/// short windowed-sinc kernels the paper prescribes.
inline constexpr double kSps = 2.0;

/// Per-link channel parameters (true for the simulator, estimated for the
/// receiver — same structure on both sides).
struct ChannelParams {
  cplx h{1.0, 0.0};        ///< complex gain (amplitude + phase at packet start)
  double freq_offset = 0.0;  ///< carrier frequency offset, cycles per sample
  double mu = 0.0;           ///< fractional sampling offset, samples
  double drift = 0.0;        ///< sampling clock drift, samples per sample
  sig::Fir isi;              ///< symbol-spaced ISI filter (identity if clean)
};

/// Impairment ranges used when drawing random channels.
struct ImpairmentConfig {
  double snr_db = 10.0;           ///< per-sender SNR at the AP (noise power = 1)
  double freq_offset_max = 5e-3;  ///< |δf·T| upper bound (post coarse RF correction)
  double mu_max = 0.5;            ///< |fractional sampling offset| bound
  double drift_max = 2e-6;        ///< |clock drift| bound, samples/sample
  bool enable_isi = true;
  double isi_strength = 0.15;     ///< relative magnitude of the echo taps
  bool random_phase = true;       ///< random carrier phase in H
};

/// Draw a random channel realization. |h| = sqrt(SNR) since the AWGN added
/// by `CollisionBuilder` has unit power.
ChannelParams random_channel(Rng& rng, const ImpairmentConfig& cfg);

/// A retransmission of the same packet moments later: same |h|, same ISI,
/// same δf up to oscillator jitter, new carrier phase, slightly moved μ.
ChannelParams retransmission_channel(Rng& rng, const ChannelParams& first,
                                     double freq_jitter = 0.0);

/// The half-band transmit pulse at offset `x` samples from a symbol centre:
/// a Hann-windowed sinc with window half-width interp_half_width·kSps, zero
/// at every other symbol centre. This is THE pulse `add_signal` renders
/// with (its hot loop evaluates the same function via fixed-angle rotors);
/// receivers that need a pointwise coefficient — e.g. the algebraic-MP
/// elimination — must use this definition, never a private copy.
double pulse(double x, std::size_t interp_half_width = 8);

/// Render `symbols` through `p` and accumulate into `buf`, with the packet's
/// symbol k arriving at continuous buffer time `offset + kSps·k + p.mu
/// (1+drift)`. `offset` is in samples. `scale` multiplies the contribution
/// (scale = -1 subtracts — ZigZag's cancellation step). Contributions that
/// fall outside `buf` are dropped.
///
/// `interp_half_width` is the windowed-sinc pulse half width in symbols
/// (§4.2.3b: "about 8 symbols in the neighborhood").
///
/// Weight reuse: symbol k's pulse taps run over samples lo..lo + cnt - 1
/// around its time tk, and their weights are a function of (x_lo = lo - tk,
/// cnt) alone: each tap argument (lo + i) - tk rounds exactly as x_lo + i
/// does (the subtraction is exact except for symbols whose window is
/// clipped at sample 0, where lo = 0 and x_lo = -tk). So a symbol whose
/// (x_lo, cnt) matches the previous one's reuses its weights. For a
/// drift-free link estimate — every receiver-side render, since the
/// receiver never estimates drift — tk = kSps·k + μ carries the same
/// rounded fraction for every symbol in one binade of tk, so an n-symbol
/// render computes about log2(2n) + 8 weight vectors instead of n (one per
/// binade, plus one per symbol clipped at sample 0). With drift ≠ 0 keys
/// rarely repeat and every symbol computes its own.
void add_signal(CVec& buf, std::ptrdiff_t offset, const CVec& symbols,
                const ChannelParams& p, double scale = 1.0,
                std::size_t interp_half_width = 8);

/// Same as add_signal (weight reuse included) but renders the
/// time-derivative of the signal with respect to the sampling offset μ.
/// Used by the receiver's timing tracker: a residual sampling error δμ
/// shows up as δμ · d(image)/dμ.
void add_signal_derivative(CVec& buf, std::ptrdiff_t offset,
                           const CVec& symbols, const ChannelParams& p,
                           std::size_t interp_half_width = 8);

/// Test hook: cap the render's symbol-group width (4 = CPU-dispatched AVX2
/// quads where available, 2 = SSE2 pairs, 1 = scalar tap loop computing
/// every symbol's weights from scratch, with no reuse; 0 restores CPU
/// dispatch). All widths are bit-identical by contract — the drift gates
/// run on whatever the CI machine dispatches, so tests pin the narrower
/// paths and the weight reuse against width 1 through this knob.
void set_render_group_width_for_test(int width);

/// Convenience: render a whole clean reception (signal + AWGN of unit power
/// scaled by `noise_power`), with `lead` noise-only samples before the
/// packet and `tail` after.
CVec clean_reception(Rng& rng, const CVec& symbols, const ChannelParams& p,
                     std::size_t lead = 64, std::size_t tail = 64,
                     double noise_power = 1.0);

}  // namespace zz::chan
