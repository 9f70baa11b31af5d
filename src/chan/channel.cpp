#include "zz/chan/channel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "zz/common/mathutil.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define ZZ_CHAN_AVX2_DISPATCH 1
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
// Symbols are rendered in GROUPS (pairs on baseline SSE2, quads when the
// CPU has AVX2) whose tap runs pack into SIMD lanes: packed IEEE
// add/mul/div are bit-exact per lane and the branches become bitwise
// selects of fully computed lanes, so the samples are bit-for-bit identical
// to the scalar one-symbol-at-a-time loop (kept as the portable fallback
// and tail path). No FMA contraction is used on any path.

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
#if defined(ZZ_CHAN_AVX2_DISPATCH)
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
#if defined(ZZ_CHAN_AVX2_DISPATCH)
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

#if defined(ZZ_CHAN_AVX2_DISPATCH)
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

bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}
#endif

/// 0 = CPU dispatch; 1/2/4 = forced cap (see set_render_group_width_for_test).
int g_render_group_width_override = 0;

template <typename Kernel>
void render(CVec& buf, std::ptrdiff_t offset, const CVec& symbols,
            const ChannelParams& p, double scale, std::size_t hw_symbols) {
  if (symbols.empty()) return;
  const double hw = static_cast<double>(hw_symbols) * kSps;
  CVec isi_tmp;
  const CVec& u = p.isi.is_identity()
                      ? symbols
                      : (isi_tmp = p.isi.apply(symbols), isi_tmp);

  // ZigZag renders sparse chunk images (zeros outside the chunk); find the
  // populated symbol range so the accumulation buffer — and every loop
  // below — spans only the samples those symbols can reach, not the whole
  // packet.
  std::size_t k0 = 0;
  while (k0 < u.size() && std::norm(u[k0]) < 1e-24) ++k0;
  if (k0 == u.size()) return;
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
  if (mend <= mbase) return;

  // Accumulate band-limited contributions in window-relative coordinates,
  // then rotate/scale once per output sample.
  thread_local CVec v;
  v.assign(static_cast<std::size_t>(mend - mbase), cplx{0.0, 0.0});

  const double du = kPi / kSps;   // per-sample phase step of the sinc factor
  const double dwv = kPi / hw;    // per-sample phase step of the Hann factor
  const double cdu = std::cos(du), sdu = std::sin(du);
  const double cdw = std::cos(dwv), sdw = std::sin(dwv);

  // Weight lanes for one group of symbols: the (real) kernel weights are
  // computed first, then accumulated into the (complex) buffer in symbol
  // order — the same arithmetic in the same order as a fused loop.
  const auto max_taps = static_cast<std::size_t>(2.0 * hw) + 2;
  thread_local std::vector<double> wgt_scratch;
  if (wgt_scratch.size() < 4 * max_taps) wgt_scratch.resize(4 * max_taps);
  double* lanes[4] = {wgt_scratch.data(), wgt_scratch.data() + max_taps,
                      wgt_scratch.data() + 2 * max_taps,
                      wgt_scratch.data() + 3 * max_taps};

  // Per-symbol window geometry; false for a symbol with no taps inside the
  // accumulation window.
  const auto geometry = [&](std::size_t k, Sym& s) {
    s.tk = kSps * static_cast<double>(k) * (1.0 + p.drift) + p.mu;
    s.lo = std::max<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(std::ceil(s.tk - hw)), mbase);
    const auto hi = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(std::floor(s.tk + hw)), mend - 1);
    if (hi < s.lo) return false;
    s.cnt = static_cast<std::size_t>(hi - s.lo + 1);
    return true;
  };
  const auto accumulate = [&](const Sym& s, const cplx uk, const double* w) {
    cplx* vk = v.data() + static_cast<std::size_t>(s.lo - mbase);
    for (std::size_t i = 0; i < s.cnt; ++i) vk[i] += uk * w[i];
  };

#if defined(ZZ_CHAN_AVX2_DISPATCH)
  std::size_t group_width = cpu_has_avx2() ? 4 : 2;
#else
  std::size_t group_width = 2;
#endif
  if (g_render_group_width_override > 0)
    group_width = std::min<std::size_t>(
        group_width, static_cast<std::size_t>(g_render_group_width_override));
  // Width 1 is the from-scratch reference the reuse below is pinned to.
  const bool reuse = group_width > 1;

  // Symbols whose weights are still to be computed, in ascending k.
  Sym syms[4];
  cplx uks[4];
  std::size_t ns = 0;
  // Weights of the last symbol computed or queued: a symbol with the same
  // (x_lo, cnt) key reuses them (the key fixes every tap, see channel.h).
  std::uint64_t last_xlo = 0;
  std::size_t last_cnt = 0;  // 0 = no key yet (every symbol has cnt >= 1)
  const double* last_w = nullptr;
  const auto flush = [&] {
#if defined(ZZ_CHAN_AVX2_DISPATCH)
    if (ns == 4) {
      weights_quad<Kernel>(syms, hw, cdu, sdu, cdw, sdw, lanes);
    } else
#endif
    if (ns >= 2) {
      weights_pair<Kernel>(syms[0], syms[1], hw, cdu, sdu, cdw, sdw,
                           lanes[0], lanes[1]);
      if (ns == 3)
        weights_tail<Kernel>(syms[2], syms[2].t, 0, hw, cdu, sdu, cdw, sdw,
                             lanes[2]);
    } else {
      weights_tail<Kernel>(syms[0], syms[0].t, 0, hw, cdu, sdu, cdw, sdw,
                           lanes[0]);
    }
    for (std::size_t j = 0; j < ns; ++j) accumulate(syms[j], uks[j], lanes[j]);
    last_w = lanes[ns - 1];
    ns = 0;
  };

  for (std::size_t k = k0; k < k1; ++k) {
    Sym& s = syms[ns];
    if (std::norm(u[k]) < 1e-24 || !geometry(k, s)) continue;
    const double x_lo = static_cast<double>(s.lo) - s.tk;
    const auto xlo_bits = std::bit_cast<std::uint64_t>(x_lo);
    if (reuse && xlo_bits == last_xlo && s.cnt == last_cnt) {
      // Accumulation stays in ascending k: the queued symbols go first
      // (flush leaves this unqueued slot alone).
      if (ns > 0) flush();
      accumulate(s, u[k], last_w);
      continue;
    }
    // Rotors for x = m - tk starting at m = lo.
    s.t = {std::sin(kPi * x_lo / kSps), std::cos(kPi * x_lo / kSps),
           std::sin(kPi * x_lo / hw), std::cos(kPi * x_lo / hw)};
    uks[ns++] = u[k];
    last_xlo = xlo_bits;
    last_cnt = s.cnt;
    if (ns == group_width) flush();
  }
  if (ns > 0) flush();

  // Carrier rotation e^{j2πδf·m} via a rotor re-anchored periodically so
  // rounding drift stays below the subtraction-fidelity floor.
  const double dphi = kTwoPi * p.freq_offset;
  const cplx rot_step{std::cos(dphi), std::sin(dphi)};
  cplx rot{std::cos(dphi * static_cast<double>(mbase)),
           std::sin(dphi * static_cast<double>(mbase))};
  constexpr std::ptrdiff_t kAnchor = 4096;
  for (std::ptrdiff_t m = mbase; m < mend; ++m) {
    const std::size_t vi = static_cast<std::size_t>(m - mbase);
    if ((m - mbase) % kAnchor == 0 && m != mbase)
      rot = cplx{std::cos(dphi * static_cast<double>(m)),
                 std::sin(dphi * static_cast<double>(m))};
    if (std::norm(v[vi]) >= 1e-24) {
      const std::ptrdiff_t out = offset + m;
      if (out >= 0 && out < static_cast<std::ptrdiff_t>(buf.size()))
        buf[static_cast<std::size_t>(out)] += scale * p.h * v[vi] * rot;
    }
    rot *= rot_step;
  }
}

}  // namespace

void set_render_group_width_for_test(int width) {
  g_render_group_width_override = width;
}

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
  render<ValuePulse>(buf, offset, symbols, p, scale, interp_half_width);
}

void add_signal_derivative(CVec& buf, std::ptrdiff_t offset,
                           const CVec& symbols, const ChannelParams& p,
                           std::size_t interp_half_width) {
  // d/dμ of pulse(m - tk) with tk = kSps·k(1+drift) + μ is -pulse'(m - tk).
  render<DerivativePulse>(buf, offset, symbols, p, -1.0, interp_half_width);
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
