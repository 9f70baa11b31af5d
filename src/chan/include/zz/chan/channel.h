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
/// fall outside `buf` are dropped. `p.drift` must not be below -1 (symbol
/// times must not decrease with k); that is a checked contract.
///
/// `interp_half_width` is the windowed-sinc pulse half width in symbols
/// (§4.2.3b: "about 8 symbols in the neighborhood").
///
/// The output is defined per sample m by a symbol-major sum over the
/// ISI-filtered symbols u: v[m] starts at +0.0 and takes u[k]·w_k(m - tk)
/// for every symbol k whose tap run covers m (bar those with |u[k]|² <
/// 1e-24), in ascending k; then, if |v[m]|² ≥ 1e-24, buf[offset + m] +=
/// (scale·ĥ)·v[m]·rot[m], rot being a rotor for e^{j2πδf·m} re-anchored
/// every 4096 samples. The render computes it output-major: each block of
/// 16 samples sums the symbols covering it, in ascending k, in SIMD lanes
/// (AVX2 where the CPU has it, else portable loops — the route is picked by
/// sig::simd_width(), zz/signal/simd.h), and rotates, scales and adds in
/// the same pass — the same additions in the same order, so the
/// result is bit-identical. Lanes outside a symbol's tap run add u[k]·0 =
/// ±0.0, which leaves a sum unchanged: under round-to-nearest a sum that
/// starts at +0.0 is never -0.0. An Inf/NaN symbol is masked to its own
/// lanes instead, since Inf·0 is NaN, and lanes whose product is NaN go out
/// through the scalar complex multiply (its C99 Annex G recovery). The
/// scratch is bounded by the half width, not the packet: a ring of the
/// symbols live at one block (about (2·hw + 16)/kSps of them) and a ring of
/// as many weight slots.
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

/// add_signal into a buffer that starts all +0.0, without clearing it
/// first: every sample of `buf` ends bit-for-bit as that render leaves it
/// (its -0.0, Inf and NaN included). The render writes 0.0 + product where
/// it would add, +0.0 where it would skip a sample below the 1e-24 floor,
/// and zero-fills only the samples of buf outside the span its blocks
/// visit.
void store_signal(CVec& buf, std::ptrdiff_t offset, const CVec& symbols,
                  const ChannelParams& p, double scale = 1.0,
                  std::size_t interp_half_width = 8);

/// Same as store_signal (weight reuse included) but renders the
/// time-derivative of the signal with respect to the sampling offset μ.
/// Used by the receiver's timing tracker: a residual sampling error δμ
/// shows up as δμ · d(image)/dμ.
void store_signal_derivative(CVec& buf, std::ptrdiff_t offset,
                             const CVec& symbols, const ChannelParams& p,
                             std::size_t interp_half_width = 8);

/// Convenience: render a whole clean reception (signal + AWGN of unit power
/// scaled by `noise_power`), with `lead` noise-only samples before the
/// packet and `tail` after.
CVec clean_reception(Rng& rng, const CVec& symbols, const ChannelParams& p,
                     std::size_t lead = 64, std::size_t tail = 64,
                     double noise_power = 1.0);

}  // namespace zz::chan
