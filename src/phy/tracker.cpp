#include "zz/phy/tracker.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "zz/common/check.h"
#include "zz/common/mathutil.h"
#include "zz/signal/simd.h"

#if defined(ZZ_SIMD_AVX2_DISPATCH)
#include <immintrin.h>
#endif

namespace zz::phy {
namespace {

/// One raw symbol's de-rotation and gain normalization: z·e^{jφ}, then
/// ·conj(ĥ)/|ĥ|² when |ĥ|² > 1e-18. The division by the real |ĥ|² is
/// spelled out per part, as the optimizer lowers complex / real.
cplx derotate(cplx z, cplx rot, cplx h, double hn) {
  const cplx derot = z * rot;
  if (!(hn > 1e-18)) return derot;
  const cplx g = derot * std::conj(h);
  return {g.real() / hn, g.imag() / hn};
}

/// The raw symbols of the last fetch, [m0, m1), and whether they were
/// fetched under the link estimate as it is now (then a following fetch
/// copies the symbols the two ranges share instead of recomputing them).
struct RawSymbols {
  CVec z;
  std::ptrdiff_t m0 = 0, m1 = 0;
  bool current = false;
  sig::SincInterpolator::Weights weights;  ///< carried across fetches
};

#if defined(ZZ_SIMD_AVX2_DISPATCH)
/// The products of two complex values v = (re, im, re, im) with a factor
/// whose real and imaginary parts are broadcast per pair in (br, bi): the
/// scalar multiply's (a·c − b·d, a·d + b·c), by one addsub.
__attribute__((target("avx2"))) inline __m256d mul_lanes(__m256d v,
                                                        __m256d br,
                                                        __m256d bi) {
  return _mm256_addsub_pd(_mm256_mul_pd(v, br),
                          _mm256_mul_pd(_mm256_permute_pd(v, 0x5), bi));
}

/// z[j] ← derotate(z[j], rot[j], h, hn) for j in [0, n), two symbols per
/// register, each product by mul_lanes; a pair whose result holds a NaN —
/// where the scalar multiply may take its C99 Annex G recovery — goes back
/// through derotate().
__attribute__((target("avx2"))) void derotate_lanes(cplx* z, const cplx* rot,
                                                    std::size_t n, cplx h,
                                                    double hn) {
  const bool normalize = hn > 1e-18;
  const __m256d hr = _mm256_set1_pd(h.real());
  const __m256d hi = _mm256_set1_pd(std::conj(h).imag());
  const __m256d vhn = _mm256_set1_pd(hn);
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    double* zp = reinterpret_cast<double*>(z + j);
    const __m256d zv = _mm256_loadu_pd(zp);
    const __m256d ev = _mm256_loadu_pd(reinterpret_cast<const double*>(rot + j));
    __m256d d =
        mul_lanes(zv, _mm256_movedup_pd(ev), _mm256_permute_pd(ev, 0xF));
    if (normalize) d = _mm256_div_pd(mul_lanes(d, hr, hi), vhn);
    if (_mm256_movemask_pd(_mm256_cmp_pd(d, d, _CMP_UNORD_Q)) == 0) {
      _mm256_storeu_pd(zp, d);
    } else {
      z[j] = derotate(z[j], rot[j], h, hn);
      z[j + 1] = derotate(z[j + 1], rot[j + 1], h, hn);
    }
  }
  for (; j < n; ++j) z[j] = derotate(z[j], rot[j], h, hn);
}

/// out[i] = eq.at(z, off + i) for i in [0, n), two outputs per register
/// and two registers per step: each output sums its tap products
/// (mul_lanes of the raw symbols by the tap) in ascending tap order from
/// +0.0, as Fir::at does. Every tap index lies inside z (off ≥ max(pre,
/// post) and z holds off symbols after the last output), so Fir::at's
/// bounds test always passes. A pair with a NaN product goes back through
/// Fir::at.
__attribute__((target("avx2"))) void equalize_lanes(const CVec& z,
                                                    std::size_t off,
                                                    std::size_t n,
                                                    const sig::Fir& eq,
                                                    cplx* out) {
  const std::vector<cplx>& taps = eq.taps();
  const std::size_t len = taps.size();
  const auto scalar = [&](std::size_t i) {
    out[i] = eq.at(z, static_cast<std::ptrdiff_t>(off + i));
  };
  // Output i reads z[off + i + pre - k] for tap k.
  const double* base =
      reinterpret_cast<const double*>(z.data() + off + eq.pre());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* zp = base + 2 * i;
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    __m256d nan0 = _mm256_setzero_pd(), nan1 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < len; ++k) {
      const __m256d tr = _mm256_set1_pd(taps[k].real());
      const __m256d ti = _mm256_set1_pd(taps[k].imag());
      const __m256d p0 = mul_lanes(_mm256_loadu_pd(zp - 2 * k), tr, ti);
      const __m256d p1 = mul_lanes(_mm256_loadu_pd(zp + 4 - 2 * k), tr, ti);
      nan0 = _mm256_or_pd(nan0, _mm256_cmp_pd(p0, p0, _CMP_UNORD_Q));
      nan1 = _mm256_or_pd(nan1, _mm256_cmp_pd(p1, p1, _CMP_UNORD_Q));
      acc0 = _mm256_add_pd(acc0, p0);
      acc1 = _mm256_add_pd(acc1, p1);
    }
    if (_mm256_movemask_pd(nan0) == 0) {
      _mm256_storeu_pd(reinterpret_cast<double*>(out + i), acc0);
    } else {
      scalar(i);
      scalar(i + 1);
    }
    if (_mm256_movemask_pd(nan1) == 0) {
      _mm256_storeu_pd(reinterpret_cast<double*>(out + i + 2), acc1);
    } else {
      scalar(i + 2);
      scalar(i + 3);
    }
  }
  for (; i < n; ++i) scalar(i);
}
#endif

/// Raw (interpolated, de-rotated, gain-normalized) symbols [m0, m1) into
/// raw.z: one block interpolation pass at the packet-relative symbol times
/// (2 samples/symbol, §5.1c), then per-symbol de-rotation and gain
/// normalization. Symbols the previous fetch shares with this one are
/// copied when raw.current says the estimate has not changed since.
void fetch(const sig::SincInterpolator& interp, const CVec& buf,
           std::ptrdiff_t origin, std::ptrdiff_t m0, std::ptrdiff_t m1,
           const LinkEstimate& est, bool lanes, RawSymbols& raw) {
  ZZ_DCHECK_LE(m0, m1);  // a reversed range would wrap the size below
  const auto n = static_cast<std::size_t>(m1 - m0);
  CVec& z = raw.z;
  // Fresh symbols: [f0, f1), the part of [m0, m1) not reused.
  std::ptrdiff_t f0 = m0, f1 = m1;
  const std::ptrdiff_t a = std::max(m0, raw.m0), b = std::min(m1, raw.m1);
  if (raw.current && a < b && (a == m0 || b == m1)) {
    z.resize(std::max(z.size(), n));
    std::memmove(z.data() + (a - m0), z.data() + (a - raw.m0),
                 static_cast<std::size_t>(b - a) * sizeof(cplx));
    if (a == m0)
      f0 = b;  // forward: the previous tail is this range's head
    else
      f1 = a;  // backward: the previous head is this range's tail
  }
  z.resize(n);
  raw.m0 = m0;
  raw.m1 = m1;
  raw.current = true;

  // The fresh symbols go through in stack-sized pieces; the interpolator
  // carries its weights from piece to piece.
  const auto& p = est.params;
  const double w = -kTwoPi * p.freq_offset;
  const cplx h = p.h;
  const double hn = std::norm(h);
  constexpr std::ptrdiff_t kPiece = 32;
  for (std::ptrdiff_t q0 = f0; q0 < f1; q0 += kPiece) {
    const auto nq = static_cast<std::size_t>(std::min(kPiece, f1 - q0));
    double rel[kPiece], pos[kPiece];
    cplx rot[kPiece];
    for (std::size_t j = 0; j < nq; ++j) {
      const auto k = static_cast<double>(q0 + static_cast<std::ptrdiff_t>(j));
      rel[j] = chan::kSps * k * (1.0 + p.drift) + p.mu;
      pos[j] = static_cast<double>(origin) + rel[j];
    }
    cplx* zq = z.data() + (q0 - m0);
    interp.at_batch(buf, {pos, nq}, zq, raw.weights);
    for (std::size_t j = 0; j < nq; ++j) {
      const double phi = w * rel[j];
      rot[j] = cplx{std::cos(phi), std::sin(phi)};
    }
#if defined(ZZ_SIMD_AVX2_DISPATCH)
    if (lanes) {
      derotate_lanes(zq, rot, nq, h, hn);
      continue;
    }
#endif
    for (std::size_t j = 0; j < nq; ++j)
      zq[j] = derotate(zq[j], rot[j], h, hn);
  }
  (void)lanes;
}

/// out[i] = eq.at(z, off + i) for i in [0, n).
void equalize(const CVec& z, std::size_t off, std::size_t n,
              const sig::Fir& eq, bool lanes, cplx* out) {
#if defined(ZZ_SIMD_AVX2_DISPATCH)
  if (lanes) {
    equalize_lanes(z, off, n, eq, out);
    return;
  }
#endif
  (void)lanes;
  for (std::size_t i = 0; i < n; ++i)
    out[i] = eq.at(z, static_cast<std::ptrdiff_t>(off + i));
}

}  // namespace

ChunkDecoder::ChunkDecoder(TrackingGains gains, std::size_t interp_half_width)
    : gains_(gains), hw_(interp_half_width), interp_(interp_half_width) {
  // decode() partitions chunks into gains_.block-sized tracking blocks; a
  // zero block size would divide by zero there, and interpolation needs at
  // least one tap on each side of the sample.
  ZZ_CHECK_GT(gains_.block, 0u);
  ZZ_CHECK_GT(hw_, 0u);
}

ChunkDecoder::Result ChunkDecoder::decode(const CVec& buf,
                                          std::ptrdiff_t origin,
                                          std::size_t k0, std::size_t k1,
                                          std::span<const SymbolSpec> specs,
                                          LinkEstimate& est,
                                          bool backward) const {
  if (k1 < k0) throw std::invalid_argument("ChunkDecoder: k1 < k0");
  const std::size_t n = k1 - k0;
  if (specs.size() < n)
    throw std::invalid_argument("ChunkDecoder: specs shorter than range");

  Result out;
  out.soft.assign(n, cplx{});
  out.decided.assign(n, cplx{});
  if (n == 0) return out;

  // Modulators are immutable after construction; build the table once per
  // process instead of once per chunk decode.
  static const Modulator mods[4] = {Modulator(Modulation::BPSK),
                                    Modulator(Modulation::QPSK),
                                    Modulator(Modulation::QAM16),
                                    Modulator(Modulation::QAM64)};
  auto mod_of = [&](std::size_t i) -> const Modulator& {
    return mods[static_cast<std::size_t>(specs[i].mod)];
  };

  // Margin for the equalizer's non-causal taps: raw symbols just outside the
  // chunk. The ZigZag scheduler guarantees those positions are clean.
  const std::size_t guard =
      std::max(est.equalizer.pre(), est.equalizer.post());

  const std::size_t nblocks = (n + gains_.block - 1) / gains_.block;
  double resid_acc = 0.0;
  std::size_t resid_cnt = 0;

  // Block-decode workspaces, allocated once per decode and reused across
  // blocks and passes (resize within capacity after the first block).
  RawSymbols raw;
  CVec zeq, dec;
  const bool lanes = sig::simd_width() >= 4;

  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    const std::size_t b = backward ? nblocks - 1 - bi : bi;
    const std::size_t bk0 = k0 + b * gains_.block;
    const std::size_t bk1 = std::min(k1, bk0 + gains_.block);
    ZZ_DCHECK_LT(bk0, bk1);  // nblocks covers [k0, k1) with no empty block
    const std::size_t bn = bk1 - bk0;

    // Two passes: measure errors with the current estimate, correct, and
    // re-slice with the corrected estimate.
    for (int pass = 0; pass < 2; ++pass) {
      // Raw (pre-equalizer) symbols for the block plus equalizer margin,
      // fetched through the block interpolation engine.
      const std::ptrdiff_t m0 = static_cast<std::ptrdiff_t>(bk0) -
                                static_cast<std::ptrdiff_t>(guard);
      const std::ptrdiff_t m1 =
          static_cast<std::ptrdiff_t>(bk1) + static_cast<std::ptrdiff_t>(guard);
      fetch(interp_, buf, origin, m0, m1, est, lanes, raw);

      // Equalize and slice the block.
      zeq.resize(bn);
      dec.resize(bn);
      equalize(raw.z, guard, bn, est.equalizer, lanes, zeq.data());
      for (std::size_t i = 0; i < bn; ++i) {
        const auto& spec = specs[bk0 + i - k0];
        dec[i] = spec.pilot ? *spec.pilot
                            : mod_of(bk0 + i - k0).nearest_point(zeq[i]);
      }

      if (pass == 1 || !gains_.enabled) {
        // Final pass: emit and accumulate the noise estimate.
        for (std::size_t i = 0; i < bn; ++i) {
          out.soft[bk0 + i - k0] = zeq[i];
          out.decided[bk0 + i - k0] = dec[i];
          resid_acc += std::norm(zeq[i] - dec[i]);
          ++resid_cnt;
        }
        break;
      }

      // --- Tracking (decision-directed, per block) ---
      cplx corr{0.0, 0.0};
      double dpow = 0.0;
      for (std::size_t i = 0; i < bn; ++i) {
        corr += zeq[i] * std::conj(dec[i]);
        dpow += std::norm(dec[i]);
      }
      if (dpow < 1e-12) break;

      const double phase_err = std::arg(corr);
      const double amp_ratio = std::abs(corr) / dpow;

      // Timing error via the derivative of the symbol waveform (a
      // Mueller-and-Müller flavour, §4.2.4c footnote). Sampling early by δ
      // (μ̂ < μ) leaves residual z - d ≈ -δ·s'(t_k), and for the half-band
      // pulse s'(t_k) ∝ d[k+1] - d[k-1]; project the residual onto the
      // slope to read -δ.
      double terr_num = 0.0, terr_den = 0.0;
      if (bn >= 3) {
        for (std::size_t i = 1; i + 1 < bn; ++i) {
          const cplx slope = 0.5 * (dec[i + 1] - dec[i - 1]);
          terr_num += std::real(std::conj(slope) * (zeq[i] - dec[i]));
          terr_den += std::norm(slope);
        }
      } else if (bn == 2) {
        // Degenerate short block (a tail chunk): the central-difference
        // loop above is empty for bn <= 2, which used to freeze μ̂ while
        // phase/amplitude corrections still applied. Use the one-sided
        // difference as the slope at both symbols so short chunks track
        // timing too. (bn == 1 carries no slope information at all; μ̂ is
        // legitimately left untouched there.)
        const cplx slope = dec[1] - dec[0];
        terr_num += std::real(std::conj(slope) * (zeq[0] - dec[0]));
        terr_num += std::real(std::conj(slope) * (zeq[1] - dec[1]));
        terr_den += 2.0 * std::norm(slope);
      }
      const double timing_err = terr_den > 1e-9 ? -terr_num / terr_den : 0.0;

      // Apply the corrections.
      auto& p = est.params;
      const double dphi = gains_.phase * phase_err;
      p.h *= cplx{std::cos(dphi), std::sin(dphi)};
      const double damp = 1.0 + gains_.amplitude * (amp_ratio - 1.0);
      p.h *= std::clamp(damp, 0.5, 2.0);
      // Frequency: phase error accrued over one block of symbols
      // (block·kSps samples). De-rotation is referenced to the packet
      // start, so a frequency bump Δf would retroactively rotate the
      // current position by 2π·Δf·rel — rotate ĥ to keep the phase
      // continuous here and let the new slope act only going forward.
      const double df =
          gains_.freq * phase_err /
          (kTwoPi * chan::kSps * static_cast<double>(gains_.block));
      const double df_applied = backward ? -df : df;
      p.freq_offset += df_applied;
      const double rel_center =
          chan::kSps * (static_cast<double>(bk0) +
                        0.5 * static_cast<double>(bn)) *
              (1.0 + p.drift) +
          p.mu;
      const double comp = -kTwoPi * df_applied * rel_center;
      p.h *= cplx{std::cos(comp), std::sin(comp)};
      p.mu += std::clamp(gains_.timing * timing_err, -0.1, 0.1);
      raw.current = false;
    }
  }

  out.noise_var = resid_cnt ? resid_acc / static_cast<double>(resid_cnt) : 0.0;
  // Seed the slicer-noise EWMA from the first measurement: the pre-decode
  // noise_var is a prior of a different scale, and blending the first
  // measurement into it at 10% weight biased early chunks' noise ranking.
  if (!est.noise_seeded) {
    est.noise_var = out.noise_var;
    est.noise_seeded = true;
  } else {
    est.noise_var = 0.9 * est.noise_var + 0.1 * out.noise_var;
  }
  return out;
}

}  // namespace zz::phy
