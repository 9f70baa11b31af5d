#include "zz/chan/channel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "zz/common/check.h"
#include "zz/common/mathutil.h"
#include "zz/signal/simd.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(ZZ_SIMD_AVX2_DISPATCH)
#include <immintrin.h>
#endif

namespace zz::chan {
namespace {

// Half-band transmit pulse: Hann-windowed sinc stretched to the symbol
// period (kSps samples). At integer multiples of kSps it is exactly zero —
// zero ISI between symbols at perfect timing — and its spectrum stops at
// half Nyquist, so the receiver can interpolate it at fractional delays with
// negligible error.
//
// The render loop below evaluates the pulse (or its μ-derivative) at a run
// of equally spaced arguments per symbol, so the two trigonometric factors
// are advanced by fixed-angle rotors instead of per-tap sin/cos — the
// baseband synthesis hot path spends its time on multiply-adds only.
// Tap weights are computed in GROUPS of symbols (pairs on baseline SSE2,
// quads when the CPU has AVX2) whose tap runs pack into SIMD lanes: packed
// IEEE add/mul/div are bit-exact per lane and the branches become bitwise
// selects of fully computed lanes, so the weights are bit-for-bit those of
// the scalar one-symbol-at-a-time loop (the tail path). The weights go
// straight into zero-padded slots that the output gather reads: each block
// of kBlock output samples sums the symbols covering it in ascending k, in
// AVX2 or portable lanes, and applies scale·ĥ·rotor in the same pass
// (channel.h gives the exactness argument). No FMA contraction is used on
// any path.

struct PulseTrig {
  double sin_u, cos_u;  ///< sin/cos(π·x/kSps)
  double sin_w, cos_w;  ///< sin/cos(π·x/hw)
};

/// One symbol's tap-run geometry and rotor start state.
struct Sym {
  double tk = 0.0;
  std::ptrdiff_t lo = 0;
  std::size_t cnt = 0;
  PulseTrig t{};
};

#if defined(__SSE2__)
inline __m128d blend_pd(__m128d mask, __m128d a, __m128d b) {
  return _mm_or_pd(_mm_and_pd(mask, a), _mm_andnot_pd(mask, b));
}
#endif

struct ValuePulse {
  static double eval(double x, double /*hw*/, const PulseTrig& t) {
    const double w = 0.5 * (1.0 + t.cos_w);
    const double u = x / kSps;
    const double s = std::abs(u) < 1e-8 ? 1.0 : t.sin_u / (kPi * u);
    return s * w;
  }
#if defined(__SSE2__)
  /// Packed pair: lane-exact transcription of eval() above.
  static __m128d eval2(__m128d x, __m128d /*hw*/, __m128d su, __m128d /*cu*/,
                       __m128d /*sw*/, __m128d cw) {
    const __m128d abs_mask =
        _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
    const __m128d w =
        _mm_mul_pd(_mm_set1_pd(0.5), _mm_add_pd(_mm_set1_pd(1.0), cw));
    const __m128d u = _mm_div_pd(x, _mm_set1_pd(kSps));
    const __m128d near =
        _mm_cmplt_pd(_mm_and_pd(u, abs_mask), _mm_set1_pd(1e-8));
    const __m128d sdiv = _mm_div_pd(su, _mm_mul_pd(_mm_set1_pd(kPi), u));
    const __m128d s = blend_pd(near, _mm_set1_pd(1.0), sdiv);
    return _mm_mul_pd(s, w);
  }
#endif
#if defined(ZZ_SIMD_AVX2_DISPATCH)
  /// Packed quad: lane-exact transcription of eval() above.
  __attribute__((target("avx2"))) static __m256d eval4(__m256d x,
                                                       __m256d /*hw*/,
                                                       __m256d su,
                                                       __m256d /*cu*/,
                                                       __m256d /*sw*/,
                                                       __m256d cw) {
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d w = _mm256_mul_pd(_mm256_set1_pd(0.5),
                                    _mm256_add_pd(_mm256_set1_pd(1.0), cw));
    const __m256d u = _mm256_div_pd(x, _mm256_set1_pd(kSps));
    const __m256d near = _mm256_cmp_pd(_mm256_and_pd(u, abs_mask),
                                       _mm256_set1_pd(1e-8), _CMP_LT_OQ);
    const __m256d sdiv =
        _mm256_div_pd(su, _mm256_mul_pd(_mm256_set1_pd(kPi), u));
    const __m256d s = _mm256_blendv_pd(sdiv, _mm256_set1_pd(1.0), near);
    return _mm256_mul_pd(s, w);
  }
#endif
};

struct DerivativePulse {
  static double eval(double x, double hw, const PulseTrig& t) {
    const double w = 0.5 * (1.0 + t.cos_w);
    const double dw = -0.5 * (kPi / hw) * t.sin_w;
    const double u = x / kSps;
    double s, ds;
    if (std::abs(u) < 1e-8) {
      s = 1.0;
      ds = 0.0;
    } else {
      const double pu = kPi * u;
      s = t.sin_u / pu;
      ds = (t.cos_u * pu - t.sin_u) * kPi / (pu * pu) / kSps;
    }
    return ds * w + s * dw;
  }
#if defined(__SSE2__)
  /// Packed pair: lane-exact transcription of eval() above.
  static __m128d eval2(__m128d x, __m128d hw, __m128d su, __m128d cu,
                       __m128d sw, __m128d cw) {
    const __m128d abs_mask =
        _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
    const __m128d vpi = _mm_set1_pd(kPi);
    const __m128d w =
        _mm_mul_pd(_mm_set1_pd(0.5), _mm_add_pd(_mm_set1_pd(1.0), cw));
    // -0.5 * (kPi / hw) * sin_w, with the same association as eval().
    const __m128d dw = _mm_mul_pd(
        _mm_mul_pd(_mm_set1_pd(-0.5), _mm_div_pd(vpi, hw)), sw);
    const __m128d u = _mm_div_pd(x, _mm_set1_pd(kSps));
    const __m128d near =
        _mm_cmplt_pd(_mm_and_pd(u, abs_mask), _mm_set1_pd(1e-8));
    const __m128d pu = _mm_mul_pd(vpi, u);
    const __m128d sdiv = _mm_div_pd(su, pu);
    const __m128d dsdiv = _mm_div_pd(
        _mm_div_pd(_mm_mul_pd(_mm_sub_pd(_mm_mul_pd(cu, pu), su), vpi),
                   _mm_mul_pd(pu, pu)),
        _mm_set1_pd(kSps));
    const __m128d s = blend_pd(near, _mm_set1_pd(1.0), sdiv);
    const __m128d ds = blend_pd(near, _mm_setzero_pd(), dsdiv);
    return _mm_add_pd(_mm_mul_pd(ds, w), _mm_mul_pd(s, dw));
  }
#endif
#if defined(ZZ_SIMD_AVX2_DISPATCH)
  /// Packed quad: lane-exact transcription of eval() above.
  __attribute__((target("avx2"))) static __m256d eval4(__m256d x, __m256d hw,
                                                       __m256d su, __m256d cu,
                                                       __m256d sw,
                                                       __m256d cw) {
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d vpi = _mm256_set1_pd(kPi);
    const __m256d w = _mm256_mul_pd(_mm256_set1_pd(0.5),
                                    _mm256_add_pd(_mm256_set1_pd(1.0), cw));
    const __m256d dw = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_set1_pd(-0.5), _mm256_div_pd(vpi, hw)), sw);
    const __m256d u = _mm256_div_pd(x, _mm256_set1_pd(kSps));
    const __m256d near = _mm256_cmp_pd(_mm256_and_pd(u, abs_mask),
                                       _mm256_set1_pd(1e-8), _CMP_LT_OQ);
    const __m256d pu = _mm256_mul_pd(vpi, u);
    const __m256d sdiv = _mm256_div_pd(su, pu);
    const __m256d dsdiv = _mm256_div_pd(
        _mm256_div_pd(
            _mm256_mul_pd(_mm256_sub_pd(_mm256_mul_pd(cu, pu), su), vpi),
            _mm256_mul_pd(pu, pu)),
        _mm256_set1_pd(kSps));
    const __m256d s = _mm256_blendv_pd(sdiv, _mm256_set1_pd(1.0), near);
    const __m256d ds = _mm256_blendv_pd(dsdiv, _mm256_setzero_pd(), near);
    return _mm256_add_pd(_mm256_mul_pd(ds, w), _mm256_mul_pd(s, dw));
  }
#endif
};

/// One symbol's weights for taps [i0, cnt) — the scalar path, also used to
/// finish off the tap runs the SIMD groups do not cover. Always inlined so
/// that inside the AVX2 quad path it compiles to VEX encodings — an
/// out-of-line legacy-SSE call with dirty ymm uppers pays the AVX→SSE
/// transition penalty on every tail, which measurably dominates the quad
/// path's win.
template <typename Kernel>
__attribute__((always_inline)) inline void weights_tail(
    const Sym& s, PulseTrig t, std::size_t i0, double hw, double cdu,
    double sdu, double cdw, double sdw, double* w) {
  for (std::size_t i = i0; i < s.cnt; ++i) {
    const double x =
        static_cast<double>(s.lo + static_cast<std::ptrdiff_t>(i)) - s.tk;
    w[i] = std::abs(x) < hw ? Kernel::eval(x, hw, t) : 0.0;
    const double su = t.sin_u * cdu + t.cos_u * sdu;
    t.cos_u = t.cos_u * cdu - t.sin_u * sdu;
    t.sin_u = su;
    const double sw = t.sin_w * cdw + t.cos_w * sdw;
    t.cos_w = t.cos_w * cdw - t.sin_w * sdw;
    t.sin_w = sw;
  }
}

/// Weights for a PAIR of symbols over their common tap-run prefix, two
/// independent rotor chains in flight; tails finish the rest.
template <typename Kernel>
void weights_pair(const Sym& s0, const Sym& s1, double hw, double cdu,
                  double sdu, double cdw, double sdw, double* w0, double* w1) {
#if defined(__SSE2__)
  const std::size_t both = std::min(s0.cnt, s1.cnt);
  PulseTrig ta = s0.t, tb = s1.t;
  {
    const __m128d vcdu = _mm_set1_pd(cdu), vsdu = _mm_set1_pd(sdu);
    const __m128d vcdw = _mm_set1_pd(cdw), vsdw = _mm_set1_pd(sdw);
    const __m128d vhw = _mm_set1_pd(hw);
    const __m128d vabs =
        _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
    const __m128d vlo =
        _mm_set_pd(static_cast<double>(s1.lo), static_cast<double>(s0.lo));
    const __m128d vtk = _mm_set_pd(s1.tk, s0.tk);
    __m128d su = _mm_set_pd(tb.sin_u, ta.sin_u);
    __m128d cu = _mm_set_pd(tb.cos_u, ta.cos_u);
    __m128d sw = _mm_set_pd(tb.sin_w, ta.sin_w);
    __m128d cw = _mm_set_pd(tb.cos_w, ta.cos_w);
    for (std::size_t i = 0; i < both; ++i) {
      // x = double(lo + i) - tk; double(lo) + double(i) is exact, so the
      // lane value equals the scalar expression.
      const __m128d vx = _mm_sub_pd(
          _mm_add_pd(vlo, _mm_set1_pd(static_cast<double>(i))), vtk);
      const __m128d val = Kernel::eval2(vx, vhw, su, cu, sw, cw);
      // wgt = |x| < hw ? val : 0.0 (bitwise select).
      const __m128d take = _mm_cmplt_pd(_mm_and_pd(vx, vabs), vhw);
      const __m128d w = _mm_and_pd(take, val);
      _mm_storel_pd(&w0[i], w);
      _mm_storeh_pd(&w1[i], w);
      // Advance both rotor chains.
      const __m128d su2 =
          _mm_add_pd(_mm_mul_pd(su, vcdu), _mm_mul_pd(cu, vsdu));
      cu = _mm_sub_pd(_mm_mul_pd(cu, vcdu), _mm_mul_pd(su, vsdu));
      su = su2;
      const __m128d sw2 =
          _mm_add_pd(_mm_mul_pd(sw, vcdw), _mm_mul_pd(cw, vsdw));
      cw = _mm_sub_pd(_mm_mul_pd(cw, vcdw), _mm_mul_pd(sw, vsdw));
      sw = sw2;
    }
    // Hand the advanced states to the scalar tails.
    _mm_storel_pd(&ta.sin_u, su);
    _mm_storeh_pd(&tb.sin_u, su);
    _mm_storel_pd(&ta.cos_u, cu);
    _mm_storeh_pd(&tb.cos_u, cu);
    _mm_storel_pd(&ta.sin_w, sw);
    _mm_storeh_pd(&tb.sin_w, sw);
    _mm_storel_pd(&ta.cos_w, cw);
    _mm_storeh_pd(&tb.cos_w, cw);
  }
  weights_tail<Kernel>(s0, ta, both, hw, cdu, sdu, cdw, sdw, w0);
  weights_tail<Kernel>(s1, tb, both, hw, cdu, sdu, cdw, sdw, w1);
#else
  // Without SSE2 there is no lane packing to exploit: each symbol's whole
  // tap run is exactly the scalar loop (one rotor-recurrence definition,
  // shared with the SIMD tails, keeps all routes bit-identical).
  weights_tail<Kernel>(s0, s0.t, 0, hw, cdu, sdu, cdw, sdw, w0);
  weights_tail<Kernel>(s1, s1.t, 0, hw, cdu, sdu, cdw, sdw, w1);
#endif
}

#if defined(ZZ_SIMD_AVX2_DISPATCH)
/// Weights for a QUAD of symbols over their common tap-run prefix — four
/// independent rotor chains in the four AVX lanes.
template <typename Kernel>
__attribute__((target("avx2"))) void weights_quad(const Sym* s, double hw,
                                                  double cdu, double sdu,
                                                  double cdw, double sdw,
                                                  double* const* w) {
  std::size_t common = s[0].cnt;
  for (int j = 1; j < 4; ++j) common = std::min(common, s[j].cnt);

  const __m256d vcdu = _mm256_set1_pd(cdu), vsdu = _mm256_set1_pd(sdu);
  const __m256d vcdw = _mm256_set1_pd(cdw), vsdw = _mm256_set1_pd(sdw);
  const __m256d vhw = _mm256_set1_pd(hw);
  const __m256d vabs =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d vlo = _mm256_set_pd(
      static_cast<double>(s[3].lo), static_cast<double>(s[2].lo),
      static_cast<double>(s[1].lo), static_cast<double>(s[0].lo));
  const __m256d vtk = _mm256_set_pd(s[3].tk, s[2].tk, s[1].tk, s[0].tk);
  __m256d su = _mm256_set_pd(s[3].t.sin_u, s[2].t.sin_u, s[1].t.sin_u,
                             s[0].t.sin_u);
  __m256d cu = _mm256_set_pd(s[3].t.cos_u, s[2].t.cos_u, s[1].t.cos_u,
                             s[0].t.cos_u);
  __m256d sw = _mm256_set_pd(s[3].t.sin_w, s[2].t.sin_w, s[1].t.sin_w,
                             s[0].t.sin_w);
  __m256d cw = _mm256_set_pd(s[3].t.cos_w, s[2].t.cos_w, s[1].t.cos_w,
                             s[0].t.cos_w);
  for (std::size_t i = 0; i < common; ++i) {
    const __m256d vx = _mm256_sub_pd(
        _mm256_add_pd(vlo, _mm256_set1_pd(static_cast<double>(i))), vtk);
    const __m256d val = Kernel::eval4(vx, vhw, su, cu, sw, cw);
    const __m256d take =
        _mm256_cmp_pd(_mm256_and_pd(vx, vabs), vhw, _CMP_LT_OQ);
    const __m256d wv = _mm256_and_pd(take, val);
    alignas(32) double wl[4];
    _mm256_store_pd(wl, wv);
    w[0][i] = wl[0];
    w[1][i] = wl[1];
    w[2][i] = wl[2];
    w[3][i] = wl[3];
    const __m256d su2 =
        _mm256_add_pd(_mm256_mul_pd(su, vcdu), _mm256_mul_pd(cu, vsdu));
    cu = _mm256_sub_pd(_mm256_mul_pd(cu, vcdu), _mm256_mul_pd(su, vsdu));
    su = su2;
    const __m256d sw2 =
        _mm256_add_pd(_mm256_mul_pd(sw, vcdw), _mm256_mul_pd(cw, vsdw));
    cw = _mm256_sub_pd(_mm256_mul_pd(cw, vcdw), _mm256_mul_pd(sw, vsdw));
    sw = sw2;
  }
  // Hand the advanced states to the scalar tails.
  alignas(32) double lsu[4], lcu[4], lsw[4], lcw[4];
  _mm256_store_pd(lsu, su);
  _mm256_store_pd(lcu, cu);
  _mm256_store_pd(lsw, sw);
  _mm256_store_pd(lcw, cw);
  for (int j = 0; j < 4; ++j) {
    PulseTrig t{lsu[j], lcu[j], lsw[j], lcw[j]};
    weights_tail<Kernel>(s[j], t, common, hw, cdu, sdu, cdw, sdw, w[j]);
  }
}
#endif

/// Output samples per gather block: the accumulators of one block are
/// kBlock complex lanes, and a symbol's weight slot carries kBlock zeros on
/// each side of its tap run so the AVX2 gather can read all of a block's
/// lanes from any run that overlaps it.
constexpr std::ptrdiff_t kBlock = 16;

/// One symbol's tap run as the gather reads it: samples [lo, end) take
/// (re, im)·w[m - lo]. `finite` is false for an Inf/NaN symbol value, whose
/// lanes outside the run must not see the zero pads (Inf·0 = NaN): the AVX2
/// gather adds only its exact lanes.
struct Run {
  std::ptrdiff_t lo = 0, end = 0;
  double re = 0.0, im = 0.0;
  const double* w = nullptr;
  bool finite = true;
};

/// The live runs of one render: ring[head..tail), in ascending k.
struct RunRing {
  const Run* ring;
  std::size_t mask, head, tail;
};

/// Where a block's samples go: buf[offset + m] += sh·v[m]·rot[m] with
/// sh = scale·ĥ, for every m with |v[m]|² ≥ 1e-24 that lands inside buf.
/// A store sink first sets every sample of the block that lands inside buf
/// to +0.0, so it leaves what adding into zeros would.
struct Sink {
  cplx* buf;
  std::ptrdiff_t size;
  std::ptrdiff_t offset;
  cplx sh;
  bool store;
};

/// Run r's exact lanes of the block at b, added into the accumulators.
__attribute__((always_inline)) inline void add_run_lanes(const Run& r,
                                                         std::ptrdiff_t b,
                                                         double* ar,
                                                         double* ai) {
  const std::ptrdiff_t o = b - r.lo;
  const std::ptrdiff_t j0 = std::max<std::ptrdiff_t>(0, -o);
  const std::ptrdiff_t j1 = std::min(kBlock, r.end - b);
  for (std::ptrdiff_t j = j0; j < j1; ++j) {
    ar[j] += r.re * r.w[o + j];
    ai[j] += r.im * r.w[o + j];
  }
}

/// The per-sample output expression for the first n lanes at sample b.
__attribute__((always_inline)) inline void emit_lanes(
    const Sink& s, std::ptrdiff_t b, std::ptrdiff_t n, const double* ar,
    const double* ai, const double* rr, const double* ri) {
  for (std::ptrdiff_t j = 0; j < n; ++j) {
    const std::ptrdiff_t out = s.offset + b + j;
    if (out < 0 || out >= s.size) continue;
    if (s.store) s.buf[out] = cplx{0.0, 0.0};
    const cplx v{ar[j], ai[j]};
    if (std::norm(v) >= 1e-24) s.buf[out] += s.sh * v * cplx{rr[j], ri[j]};
  }
}

/// Portable gather: each run adds its exact lanes, in ascending k, then the
/// block goes out through the per-sample expression. Plain loops the
/// compiler may vectorize — every lane is its own sum, so that is exact.
void block_portable(const RunRing& rs, std::ptrdiff_t b, std::ptrdiff_t n,
                    const Sink& s, const double* rr, const double* ri) {
  double ar[kBlock] = {}, ai[kBlock] = {};
  for (std::size_t i = rs.head; i != rs.tail; ++i)
    add_run_lanes(rs.ring[i & rs.mask], b, ar, ai);
  emit_lanes(s, b, n, ar, ai, rr, ri);
}

#if defined(ZZ_SIMD_AVX2_DISPATCH)
/// AVX2 gather: the same sums with the block's 16 lanes in eight ymm
/// accumulators, and the output product sh·v·rot computed four lanes at a
/// time with the exact operations of the scalar complex multiply. A quad
/// whose product holds a NaN — where the scalar multiply would take its
/// C99 Annex G recovery route — and partial blocks go out per sample.
__attribute__((target("avx2"))) void block_avx2(const RunRing& rs,
                                                std::ptrdiff_t b,
                                                std::ptrdiff_t n,
                                                const Sink& s,
                                                const double* rr,
                                                const double* ri) {
  __m256d ar[4], ai[4];
  for (int q = 0; q < 4; ++q) ar[q] = ai[q] = _mm256_setzero_pd();
  for (std::size_t i = rs.head; i != rs.tail; ++i) {
    const Run& r = rs.ring[i & rs.mask];
    if (__builtin_expect(r.finite, 1)) {
      const double* w = r.w + (b - r.lo);
      const __m256d vr = _mm256_set1_pd(r.re), vi = _mm256_set1_pd(r.im);
      for (int q = 0; q < 4; ++q) {
        const __m256d wq = _mm256_loadu_pd(w + 4 * q);
        ar[q] = _mm256_add_pd(ar[q], _mm256_mul_pd(vr, wq));
        ai[q] = _mm256_add_pd(ai[q], _mm256_mul_pd(vi, wq));
      }
    } else {
      alignas(32) double sr[kBlock] = {}, si[kBlock] = {};
      for (int q = 0; q < 4; ++q) {
        _mm256_store_pd(sr + 4 * q, ar[q]);
        _mm256_store_pd(si + 4 * q, ai[q]);
      }
      add_run_lanes(r, b, sr, si);
      for (int q = 0; q < 4; ++q) {
        ar[q] = _mm256_load_pd(sr + 4 * q);
        ai[q] = _mm256_load_pd(si + 4 * q);
      }
    }
  }
  const std::ptrdiff_t out0 = s.offset + b;
  if (n < kBlock || out0 < 0 || out0 > s.size - kBlock) {
    alignas(32) double sr[kBlock] = {}, si[kBlock] = {};
    for (int q = 0; q < 4; ++q) {
      _mm256_store_pd(sr + 4 * q, ar[q]);
      _mm256_store_pd(si + 4 * q, ai[q]);
    }
    emit_lanes(s, b, n, sr, si, rr, ri);
    return;
  }
  const __m256d shr = _mm256_set1_pd(s.sh.real());
  const __m256d shi = _mm256_set1_pd(s.sh.imag());
  const __m256d thr = _mm256_set1_pd(1e-24);
  const __m256d zero = _mm256_setzero_pd();
  double* dst = reinterpret_cast<double*>(s.buf + out0);
  for (int q = 0; q < 4; ++q) {
    double* d = dst + 8 * q;
    const __m256d vr = ar[q], vi = ai[q];
    const __m256d ok = _mm256_cmp_pd(
        _mm256_add_pd(_mm256_mul_pd(vr, vr), _mm256_mul_pd(vi, vi)), thr,
        _CMP_GE_OQ);
    if (_mm256_movemask_pd(ok) == 0) {
      if (s.store) {
        _mm256_storeu_pd(d, zero);
        _mm256_storeu_pd(d + 4, zero);
      }
      continue;
    }
    // (sh·v)·rot, each as (a·c - b·d, a·d + b·c).
    const __m256d tr =
        _mm256_sub_pd(_mm256_mul_pd(shr, vr), _mm256_mul_pd(shi, vi));
    const __m256d ti =
        _mm256_add_pd(_mm256_mul_pd(shr, vi), _mm256_mul_pd(shi, vr));
    const __m256d cr = _mm256_loadu_pd(rr + 4 * q);
    const __m256d ci = _mm256_loadu_pd(ri + 4 * q);
    const __m256d pr =
        _mm256_sub_pd(_mm256_mul_pd(tr, cr), _mm256_mul_pd(ti, ci));
    const __m256d pi =
        _mm256_add_pd(_mm256_mul_pd(tr, ci), _mm256_mul_pd(ti, cr));
    if (_mm256_movemask_pd(
            _mm256_and_pd(ok, _mm256_cmp_pd(pr, pi, _CMP_UNORD_Q))) != 0) {
      alignas(32) double sr[4] = {}, si[4] = {};
      _mm256_store_pd(sr, vr);
      _mm256_store_pd(si, vi);
      emit_lanes(s, b + 4 * q, 4, sr, si, rr + 4 * q, ri + 4 * q);
      continue;
    }
    // Interleave to buf's (re, im) pairs; lanes below the floor keep buf
    // (+0.0 for a store).
    const __m256d lo = _mm256_unpacklo_pd(pr, pi);
    const __m256d hi = _mm256_unpackhi_pd(pr, pi);
    const __m256d mlo = _mm256_unpacklo_pd(ok, ok);
    const __m256d mhi = _mm256_unpackhi_pd(ok, ok);
    const __m256d b0 = s.store ? zero : _mm256_loadu_pd(d);
    const __m256d b1 = s.store ? zero : _mm256_loadu_pd(d + 4);
    _mm256_storeu_pd(
        d, _mm256_blendv_pd(
               b0, _mm256_add_pd(b0, _mm256_permute2f128_pd(lo, hi, 0x20)),
               _mm256_permute2f128_pd(mlo, mhi, 0x20)));
    _mm256_storeu_pd(
        d + 4,
        _mm256_blendv_pd(
            b1, _mm256_add_pd(b1, _mm256_permute2f128_pd(lo, hi, 0x31)),
            _mm256_permute2f128_pd(mlo, mhi, 0x31)));
  }
}
#endif

/// Output samples [lo, hi) relative to the render's offset.
struct Span {
  std::ptrdiff_t lo = 0, hi = 0;
};

/// The render behind add_signal (store = false) and the store_signal pair
/// (store = true). Returns the sample span its blocks visited: every m in
/// it that lands inside buf was written, no other sample was touched.
template <typename Kernel>
Span render(CVec& buf, std::ptrdiff_t offset, const CVec& symbols,
            const ChannelParams& p, double scale, std::size_t hw_symbols,
            bool store) {
  if (symbols.empty()) return {};
  // Symbol times must not decrease with k (see channel.h).
  ZZ_CHECK(!(p.drift < -1.0)) << " drift " << p.drift;
  const double hw = static_cast<double>(hw_symbols) * kSps;
  CVec isi_tmp;
  const CVec& u = p.isi.is_identity()
                      ? symbols
                      : (isi_tmp = p.isi.apply(symbols), isi_tmp);

  // ZigZag renders sparse chunk images (zeros outside the chunk); find the
  // populated symbol range so the output window — and every loop below —
  // spans only the samples those symbols can reach, not the whole packet.
  std::size_t k0 = 0;
  while (k0 < u.size() && std::norm(u[k0]) < 1e-24) ++k0;
  if (k0 == u.size()) return {};
  std::size_t k1 = u.size();
  while (std::norm(u[k1 - 1]) < 1e-24) --k1;

  const double span =
      kSps * static_cast<double>(u.size()) + p.mu +
      p.drift * kSps * static_cast<double>(u.size());
  const auto rel_len = static_cast<std::ptrdiff_t>(std::ceil(span + 2.0 * hw)) + 2;
  const double t_first = kSps * static_cast<double>(k0) * (1.0 + p.drift) + p.mu;
  const double t_last =
      kSps * static_cast<double>(k1 - 1) * (1.0 + p.drift) + p.mu;
  const std::ptrdiff_t mbase =
      std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(std::floor(t_first - hw)));
  const std::ptrdiff_t mend = std::min<std::ptrdiff_t>(
      rel_len, static_cast<std::ptrdiff_t>(std::floor(t_last + hw)) + 1);
  if (mend <= mbase) return {};

  const double du = kPi / kSps;   // per-sample phase step of the sinc factor
  const double dwv = kPi / hw;    // per-sample phase step of the Hann factor
  const double cdu = std::cos(du), sdu = std::sin(du);
  const double cdw = std::cos(dwv), sdw = std::sin(dwv);

  const std::size_t group_width = sig::simd_width();

  // Bounded scratch: a ring of the runs live at one block and a ring of
  // weight slots. A run is live at block b while lo < b + kBlock and
  // lo + cnt > b, so its tk lies in an open interval of 2·hw + kBlock + 1
  // samples; symbol times are kSps·(1 + drift) apart. Slots are handed out
  // in order, so a slot is rewritten only cap computations later, when
  // every run reading it (its own and the reusing ones) has retired.
  const auto max_taps = static_cast<std::size_t>(2.0 * hw) + 2;
  const auto stride = max_taps + 2 * static_cast<std::size_t>(kBlock);
  std::size_t cap = k1 - k0;
  const double max_live =
      (2.0 * hw + static_cast<double>(kBlock) + 4.0) / (kSps * (1.0 + p.drift)) +
      4.0;
  if (max_live < static_cast<double>(cap))
    cap = static_cast<std::size_t>(max_live);
  cap = std::bit_ceil(cap);
  const std::size_t mask = cap - 1;
  thread_local std::vector<Run> ring;
  thread_local std::vector<double> slots;
  if (ring.size() < cap) ring.resize(cap);
  if (slots.size() < cap * stride) slots.resize(cap * stride);
  std::size_t head = 0, tail = 0;  // live runs: ring[head..tail) mod cap
  std::size_t nslot = 0;           // weight slots handed out so far

  // Symbols whose weights are still to be computed, in ascending k, each
  // with the slot its kernel writes.
  Sym queued[4];
  double* queued_w[4] = {};
  std::size_t ns = 0;
  const auto flush = [&] {
#if defined(ZZ_SIMD_AVX2_DISPATCH)
    if (ns == 4) {
      weights_quad<Kernel>(queued, hw, cdu, sdu, cdw, sdw, queued_w);
    } else
#endif
    if (ns >= 2) {
      weights_pair<Kernel>(queued[0], queued[1], hw, cdu, sdu, cdw, sdw,
                           queued_w[0], queued_w[1]);
      if (ns == 3)
        weights_tail<Kernel>(queued[2], queued[2].t, 0, hw, cdu, sdu, cdw,
                             sdw, queued_w[2]);
    } else {
      weights_tail<Kernel>(queued[0], queued[0].t, 0, hw, cdu, sdu, cdw, sdw,
                           queued_w[0]);
    }
    for (std::size_t j = 0; j < ns; ++j) {
      std::fill_n(queued_w[j] - kBlock, kBlock, 0.0);
      std::fill_n(queued_w[j] + queued[j].cnt, kBlock, 0.0);
    }
    ns = 0;
  };
  // Per-symbol window geometry; false for a symbol with no taps inside the
  // output window. The tap bounds ⌈tk - hw⌉ and ⌊tk + hw⌋ are clipped to
  // the window, so their arguments are first clamped to [mbase - 1, mend]
  // (same clipped bounds), where rounding by truncation is exact — no libm
  // call per symbol.
  const double clamp_lo = static_cast<double>(mbase - 1);
  const double clamp_hi = static_cast<double>(mend);
  const auto geometry = [&](std::size_t k, Sym& s) {
    s.tk = kSps * static_cast<double>(k) * (1.0 + p.drift) + p.mu;
    const double first = std::max(s.tk - hw, clamp_lo);
    const double last = std::clamp(s.tk + hw, clamp_lo, clamp_hi);
    auto lo = static_cast<std::ptrdiff_t>(first);  // truncates toward zero
    if (static_cast<double>(lo) < first) ++lo;
    auto hi = static_cast<std::ptrdiff_t>(last);
    if (static_cast<double>(hi) > last) --hi;
    s.lo = std::max(lo, mbase);
    hi = std::min(hi, mend - 1);
    if (hi < s.lo) return false;
    s.cnt = static_cast<std::size_t>(hi - s.lo + 1);
    return true;
  };
  // Weights of the last symbol computed or queued: a symbol with the same
  // (x_lo, cnt) key reuses them (the key fixes every tap, see channel.h).
  std::uint64_t last_xlo = 0;
  std::size_t last_cnt = 0;  // 0 = no key yet (every symbol has cnt >= 1)
  const double* last_w = nullptr;

  // The next populated symbol (a NaN counts) with taps in the window, not
  // yet taken in.
  std::size_t k = k0;
  Sym next;
  cplx next_u;
  bool have_next = false;

  // Carrier rotation e^{j2πδf·m} via a rotor re-anchored periodically so
  // rounding drift stays below the subtraction-fidelity floor.
  const double dphi = kTwoPi * p.freq_offset;
  const cplx rot_step{std::cos(dphi), std::sin(dphi)};
  cplx rot{std::cos(dphi * static_cast<double>(mbase)),
           std::sin(dphi * static_cast<double>(mbase))};
  constexpr std::ptrdiff_t kAnchor = 4096;  // blocks start on every anchor
  static_assert(kAnchor % kBlock == 0);
  const Sink sink{buf.data(), static_cast<std::ptrdiff_t>(buf.size()), offset,
                  scale * p.h, store};
  alignas(32) double rr[kBlock] = {}, ri[kBlock] = {};

  for (std::ptrdiff_t b = mbase; b < mend; b += kBlock) {
    while (head != tail && ring[head & mask].end <= b) ++head;
    // Take in every symbol whose run starts before the block ends.
    for (;;) {
      for (; !have_next && k < k1; ++k)
        if (!(std::norm(u[k]) < 1e-24) && geometry(k, next)) {
          next_u = u[k];
          have_next = true;
        }
      if (!have_next || next.lo >= b + kBlock) break;
      have_next = false;
      const double x_lo = static_cast<double>(next.lo) - next.tk;
      const auto xlo_bits = std::bit_cast<std::uint64_t>(x_lo);
      if (xlo_bits != last_xlo || next.cnt != last_cnt) {
        double* w = slots.data() + (nslot++ & mask) * stride + kBlock;
        // Rotors for x = m - tk starting at m = lo.
        next.t = {std::sin(kPi * x_lo / kSps), std::cos(kPi * x_lo / kSps),
                  std::sin(kPi * x_lo / hw), std::cos(kPi * x_lo / hw)};
        queued[ns] = next;
        queued_w[ns++] = w;
        last_xlo = xlo_bits;
        last_cnt = next.cnt;
        last_w = w;
        if (ns == group_width) flush();
      }
      ZZ_DCHECK_LT(tail - head, cap);
      ring[tail++ & mask] =
          Run{next.lo, next.lo + static_cast<std::ptrdiff_t>(next.cnt),
              next_u.real(), next_u.imag(), last_w,
              std::isfinite(next_u.real()) && std::isfinite(next_u.imag())};
    }
    if (ns > 0) flush();

    if ((b - mbase) % kAnchor == 0 && b != mbase)
      rot = cplx{std::cos(dphi * static_cast<double>(b)),
                 std::sin(dphi * static_cast<double>(b))};
    const std::ptrdiff_t n = std::min(kBlock, mend - b);
    for (std::ptrdiff_t j = 0; j < n; ++j) {
      rr[j] = rot.real();
      ri[j] = rot.imag();
      rot *= rot_step;
    }
    const RunRing live_runs{ring.data(), mask, head, tail};
#if defined(ZZ_SIMD_AVX2_DISPATCH)
    if (group_width == 4)
      block_avx2(live_runs, b, n, sink, rr, ri);
    else
#endif
      block_portable(live_runs, b, n, sink, rr, ri);
  }
  return {mbase, mend};
}

/// Zero the samples of buf outside the span a store render wrote.
void zero_outside(CVec& buf, std::ptrdiff_t offset, Span s) {
  const auto size = static_cast<std::ptrdiff_t>(buf.size());
  const std::ptrdiff_t a = std::clamp<std::ptrdiff_t>(offset + s.lo, 0, size);
  const std::ptrdiff_t e = std::clamp<std::ptrdiff_t>(offset + s.hi, a, size);
  std::fill(buf.begin(), buf.begin() + a, cplx{0.0, 0.0});
  std::fill(buf.begin() + e, buf.end(), cplx{0.0, 0.0});
}

}  // namespace

double pulse(double x, std::size_t interp_half_width) {
  // Direct evaluation of the pulse the render loop above advances by
  // rotors: ValuePulse::eval with sin/cos computed at x.
  const double hw = static_cast<double>(interp_half_width) * kSps;
  if (std::abs(x) >= hw) return 0.0;
  const double w = 0.5 * (1.0 + std::cos(kPi * x / hw));
  const double u = x / kSps;
  const double s = std::abs(u) < 1e-8 ? 1.0 : std::sin(kPi * u) / (kPi * u);
  return s * w;
}

ChannelParams random_channel(Rng& rng, const ImpairmentConfig& cfg) {
  ChannelParams p;
  const double amp = std::sqrt(db_to_lin(cfg.snr_db));
  p.h = cfg.random_phase ? amp * rng.unit_phasor() : cplx{amp, 0.0};
  p.freq_offset = rng.uniform(-cfg.freq_offset_max, cfg.freq_offset_max);
  p.mu = rng.uniform(-cfg.mu_max, cfg.mu_max);
  p.drift = rng.uniform(-cfg.drift_max, cfg.drift_max);
  if (cfg.enable_isi) {
    // One pre-echo and one post-echo with random phases; main tap unity.
    const cplx pre = cfg.isi_strength * 0.5 * rng.unit_phasor();
    const cplx post = cfg.isi_strength * rng.unit_phasor();
    p.isi = sig::Fir({pre, cplx{1.0, 0.0}, post}, 1);
  }
  return p;
}

ChannelParams retransmission_channel(Rng& rng, const ChannelParams& first,
                                     double freq_jitter) {
  ChannelParams p = first;
  p.h = std::abs(first.h) * rng.unit_phasor();  // new carrier phase
  if (freq_jitter > 0.0)
    p.freq_offset += rng.uniform(-freq_jitter, freq_jitter);
  p.mu = rng.uniform(-0.5, 0.5);  // resampled at an unrelated phase
  return p;
}

void add_signal(CVec& buf, std::ptrdiff_t offset, const CVec& symbols,
                const ChannelParams& p, double scale,
                std::size_t interp_half_width) {
  render<ValuePulse>(buf, offset, symbols, p, scale, interp_half_width, false);
}

void store_signal(CVec& buf, std::ptrdiff_t offset, const CVec& symbols,
                  const ChannelParams& p, double scale,
                  std::size_t interp_half_width) {
  zero_outside(buf, offset,
               render<ValuePulse>(buf, offset, symbols, p, scale,
                                  interp_half_width, true));
}

void store_signal_derivative(CVec& buf, std::ptrdiff_t offset,
                             const CVec& symbols, const ChannelParams& p,
                             std::size_t interp_half_width) {
  // d/dμ of pulse(m - tk) with tk = kSps·k(1+drift) + μ is -pulse'(m - tk).
  zero_outside(buf, offset,
               render<DerivativePulse>(buf, offset, symbols, p, -1.0,
                                       interp_half_width, true));
}

CVec clean_reception(Rng& rng, const CVec& symbols, const ChannelParams& p,
                     std::size_t lead, std::size_t tail, double noise_power) {
  const std::size_t len =
      lead + static_cast<std::size_t>(kSps * static_cast<double>(symbols.size())) +
      tail + 48;
  CVec buf(len, cplx{0.0, 0.0});
  add_signal(buf, static_cast<std::ptrdiff_t>(lead), symbols, p);
  if (noise_power > 0.0)
    for (auto& s : buf) s += rng.gaussian_c(noise_power);
  return buf;
}

}  // namespace zz::chan
