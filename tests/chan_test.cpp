// Unit tests for zz::chan / zz::emu — the channel model and collision
// synthesis. These pin down the signal model every other module relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "zz/chan/channel.h"
#include "zz/common/mathutil.h"
#include "zz/common/rng.h"
#include "zz/emu/collision.h"
#include "zz/phy/transmitter.h"
#include "zz/signal/simd.h"

#include "bit_equal.h"

namespace zz::chan {
namespace {

CVec random_bpsk(Rng& rng, std::size_t n) {
  CVec x(n);
  for (auto& v : x) v = rng.bit() ? cplx{1.0, 0.0} : cplx{-1.0, 0.0};
  return x;
}

// ---- Reference render --------------------------------------------------
// The from-scratch route the production render is pinned to: every
// symbol's tap weights from its own scalar rotors (no reuse), accumulated
// symbol-major into a window buffer, then one rotation pass. The production
// render sums the same products in the same order per sample, in SIMD
// lanes, with weights reused across symbols (channel.h).

struct RefTrig {
  double sin_u, cos_u, sin_w, cos_w;
};

double ref_value_pulse(double x, double /*hw*/, const RefTrig& t) {
  const double w = 0.5 * (1.0 + t.cos_w);
  const double u = x / kSps;
  const double s = std::abs(u) < 1e-8 ? 1.0 : t.sin_u / (kPi * u);
  return s * w;
}

double ref_derivative_pulse(double x, double hw, const RefTrig& t) {
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

template <double (*Pulse)(double, double, const RefTrig&)>
void reference_render(CVec& buf, std::ptrdiff_t offset, const CVec& symbols,
                      const ChannelParams& p, double scale,
                      std::size_t hw_symbols) {
  if (symbols.empty()) return;
  const double hw = static_cast<double>(hw_symbols) * kSps;
  const CVec u = p.isi.is_identity() ? symbols : p.isi.apply(symbols);

  std::size_t k0 = 0;
  while (k0 < u.size() && std::norm(u[k0]) < 1e-24) ++k0;
  if (k0 == u.size()) return;
  std::size_t k1 = u.size();
  while (std::norm(u[k1 - 1]) < 1e-24) --k1;

  const double span = kSps * static_cast<double>(u.size()) + p.mu +
                      p.drift * kSps * static_cast<double>(u.size());
  const auto rel_len =
      static_cast<std::ptrdiff_t>(std::ceil(span + 2.0 * hw)) + 2;
  const double t_first =
      kSps * static_cast<double>(k0) * (1.0 + p.drift) + p.mu;
  const double t_last =
      kSps * static_cast<double>(k1 - 1) * (1.0 + p.drift) + p.mu;
  const std::ptrdiff_t mbase = std::max<std::ptrdiff_t>(
      0, static_cast<std::ptrdiff_t>(std::floor(t_first - hw)));
  const std::ptrdiff_t mend = std::min<std::ptrdiff_t>(
      rel_len, static_cast<std::ptrdiff_t>(std::floor(t_last + hw)) + 1);
  if (mend <= mbase) return;

  CVec v(static_cast<std::size_t>(mend - mbase), cplx{0.0, 0.0});
  const double cdu = std::cos(kPi / kSps), sdu = std::sin(kPi / kSps);
  const double cdw = std::cos(kPi / hw), sdw = std::sin(kPi / hw);
  for (std::size_t k = k0; k < k1; ++k) {
    if (std::norm(u[k]) < 1e-24) continue;
    const double tk = kSps * static_cast<double>(k) * (1.0 + p.drift) + p.mu;
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(std::ceil(tk - hw)), mbase);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(std::floor(tk + hw)), mend - 1);
    if (hi < lo) continue;
    const double x_lo = static_cast<double>(lo) - tk;
    RefTrig t{std::sin(kPi * x_lo / kSps), std::cos(kPi * x_lo / kSps),
              std::sin(kPi * x_lo / hw), std::cos(kPi * x_lo / hw)};
    for (std::ptrdiff_t m = lo; m <= hi; ++m) {
      const double x = static_cast<double>(m) - tk;
      const double w = std::abs(x) < hw ? Pulse(x, hw, t) : 0.0;
      v[static_cast<std::size_t>(m - mbase)] += u[k] * w;
      const double su = t.sin_u * cdu + t.cos_u * sdu;
      t.cos_u = t.cos_u * cdu - t.sin_u * sdu;
      t.sin_u = su;
      const double sw = t.sin_w * cdw + t.cos_w * sdw;
      t.cos_w = t.cos_w * cdw - t.sin_w * sdw;
      t.sin_w = sw;
    }
  }

  const double dphi = kTwoPi * p.freq_offset;
  const cplx rot_step{std::cos(dphi), std::sin(dphi)};
  cplx rot{std::cos(dphi * static_cast<double>(mbase)),
           std::sin(dphi * static_cast<double>(mbase))};
  for (std::ptrdiff_t m = mbase; m < mend; ++m) {
    const std::size_t vi = static_cast<std::size_t>(m - mbase);
    if ((m - mbase) % 4096 == 0 && m != mbase)
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

/// reference_render in add_signal / store_signal_derivative form.
void reference_add(CVec& buf, std::ptrdiff_t offset, const CVec& symbols,
                   const ChannelParams& p, double scale, std::size_t half,
                   bool derivative) {
  if (derivative)
    reference_render<ref_derivative_pulse>(buf, offset, symbols, p, -1.0,
                                           half);
  else
    reference_render<ref_value_pulse>(buf, offset, symbols, p, scale, half);
}

/// The production render at SIMD width cap `width` (0 = CPU dispatch).
/// `store` picks store_signal; the derivative render is a store only.
void production_add(CVec& buf, std::ptrdiff_t offset, const CVec& symbols,
                    const ChannelParams& p, double scale, std::size_t half,
                    bool derivative, int width, bool store = false) {
  sig::set_simd_width_for_test(width);
  if (derivative)
    store_signal_derivative(buf, offset, symbols, p, half);
  else if (store)
    store_signal(buf, offset, symbols, p, scale, half);
  else
    add_signal(buf, offset, symbols, p, scale, half);
  sig::set_simd_width_for_test(0);
}

TEST(Channel, CleanPassThrough) {
  Rng rng(1);
  const CVec x = random_bpsk(rng, 64);
  ChannelParams p;  // defaults: h=1, no impairments
  CVec buf(180, cplx{0.0, 0.0});
  add_signal(buf, 10, x, p);
  // Symbol k lands at sample 10 + 2k (2 samples/symbol, zero-ISI pulse).
  for (std::size_t k = 4; k < 60; ++k)
    EXPECT_LT(std::abs(buf[10 + 2 * k] - x[k]), 1e-9) << "k=" << k;
}

TEST(Channel, ComplexGainApplies) {
  Rng rng(2);
  const CVec x = random_bpsk(rng, 32);
  ChannelParams p;
  p.h = cplx{0.3, -1.2};
  CVec buf(128, cplx{0.0, 0.0});
  add_signal(buf, 0, x, p);
  for (std::size_t k = 4; k < 28; ++k)
    EXPECT_LT(std::abs(buf[2 * k] - p.h * x[k]), 1e-9);
}

TEST(Channel, FrequencyOffsetRotatesLinearly) {
  Rng rng(3);
  const CVec x(128, cplx{1.0, 0.0});  // constant symbol exposes the ramp
  ChannelParams p;
  p.freq_offset = 1e-3;
  CVec buf(300, cplx{0.0, 0.0});
  add_signal(buf, 0, x, p);
  // Phase difference between samples 100 and 20 ≈ 2π·δf·80.
  const double dphi = std::arg(buf[100] * std::conj(buf[20]));
  EXPECT_NEAR(dphi, kTwoPi * 1e-3 * 80.0, 1e-3);
}

TEST(Channel, FractionalOffsetMatchesInterpolator) {
  Rng rng(4);
  const CVec x = random_bpsk(rng, 96);
  ChannelParams p;
  p.mu = 0.37;
  CVec buf(260, cplx{0.0, 0.0});
  add_signal(buf, 8, x, p);
  // The rendered waveform sampled back at t = 8 + 2k + 0.37 must be ~x[k]:
  // the pulse is half-band, so windowed-sinc interpolation is accurate.
  const sig::SincInterpolator interp(8);
  for (std::size_t k = 10; k < 80; ++k) {
    const cplx v = interp.at(buf, 8.0 + 2.0 * static_cast<double>(k) + 0.37);
    EXPECT_LT(std::abs(v - x[k]), 0.02) << "k=" << k;
  }
}

TEST(Channel, IsiFilterShapesSymbols) {
  Rng rng(5);
  const CVec x = random_bpsk(rng, 64);
  ChannelParams p;
  p.isi = sig::Fir({cplx{0.0, 0.0}, cplx{1.0, 0.0}, cplx{0.5, 0.0}}, 1);
  CVec buf(180, cplx{0.0, 0.0});
  add_signal(buf, 0, x, p);
  for (std::size_t k = 8; k < 56; ++k)
    EXPECT_LT(std::abs(buf[2 * k] - (x[k] + 0.5 * x[k - 1])), 1e-6);
}

TEST(Channel, SubtractionCancelsExactly) {
  // ZigZag's core operation: render with identical parameters and scale -1
  // — the residual must vanish to numerical precision.
  Rng rng(6);
  const CVec x = random_bpsk(rng, 200);
  ImpairmentConfig cfg;
  cfg.snr_db = 12.0;
  const ChannelParams p = random_channel(rng, cfg);
  CVec buf(480, cplx{0.0, 0.0});
  add_signal(buf, 16, x, p);
  const double before = mean_power(buf);
  add_signal(buf, 16, x, p, -1.0);
  EXPECT_GT(before, 1.0);
  EXPECT_LT(mean_power(buf), 1e-20);
}

TEST(Channel, DerivativeMatchesFiniteDifference) {
  Rng rng(7);
  const CVec x = random_bpsk(rng, 64);
  ChannelParams p;
  p.mu = 0.1;
  const double eps = 1e-5;
  CVec d(200, cplx{}), hi(200, cplx{}), lo(200, cplx{});
  store_signal_derivative(d, 4, x, p);
  ChannelParams pp = p, pm = p;
  pp.mu += eps;
  pm.mu -= eps;
  add_signal(hi, 4, x, pp);
  add_signal(lo, 4, x, pm);
  for (std::size_t i = 20; i < 60; ++i) {
    const cplx fd = (hi[i] - lo[i]) / (2.0 * eps);
    EXPECT_LT(std::abs(d[i] - fd), 1e-3) << "i=" << i;
  }
}

TEST(Channel, RenderGroupWidthsAreBitIdentical) {
  // The render computes tap weights in symbol groups packed into SIMD lanes
  // (SSE2 pairs, AVX2 quads by CPU dispatch) and gathers the output in
  // AVX2 or portable lanes, under a bit-exactness contract — the drift
  // gates only ever exercise the widest path the CI machine dispatches, so
  // pin the narrower paths (cap 2 also forces the portable gather) and the
  // reference against it here.
  Rng rng(606);
  const CVec x = random_bpsk(rng, 257);  // odd count: exercises group tails
  ChannelParams p;
  p.h = {1.3, -0.4};
  p.freq_offset = 7e-4;
  p.mu = 0.31;
  p.drift = 1.3e-6;
  p.isi = sig::Fir({cplx{0.06, 0.02}, cplx{1.0, 0.0}, cplx{0.12, -0.04}}, 1);

  for (const bool derivative : {false, true}) {
    CVec widest(620, cplx{0.0, 0.0});
    production_add(widest, 16, x, p, 1.0, 8, derivative, 0);
    CVec ref(620, cplx{0.0, 0.0});
    reference_add(ref, 16, x, p, 1.0, 8, derivative);
    for (std::size_t i = 0; i < widest.size(); ++i)
      ASSERT_TRUE(test::bits_equal(widest[i], ref[i]))
          << "reference derivative=" << derivative << " i=" << i;
    for (const int width : {1, 2, 4}) {
      CVec forced(620, cplx{0.0, 0.0});
      production_add(forced, 16, x, p, 1.0, 8, derivative, width);
      for (std::size_t i = 0; i < widest.size(); ++i)
        ASSERT_TRUE(test::bits_equal(widest[i], forced[i]))
            << "width=" << width << " derivative=" << derivative
            << " i=" << i;
    }
  }
}

TEST(Channel, DriftFreeWeightReuseIsBitIdentical) {
  // With drift = 0 (every receiver-side link estimate) consecutive symbols
  // share their tap-weight key (x_lo, cnt) within each binade of
  // tk = 2k + μ, and the render reuses the weights. The reference computes
  // every symbol from scratch; every width must match it bit for bit.
  // Odd length, ISI, tk crossing binades up to 512, and symbols from k = 0
  // so the first windows clip at sample 0. Half width 5 leaves a pair of
  // symbols queued when the first reuse comes (8 leaves one).
  Rng rng(607);
  const CVec packet = random_bpsk(rng, 301);
  // A sparse chunk image as ZigZag renders it: zeros outside the chunk and
  // one zeroed symbol inside.
  const CVec chunk = [&] {
    CVec c(packet.size(), cplx{0.0, 0.0});
    for (std::size_t k = 40; k < 233; ++k) c[k] = packet[k];
    c[100] = cplx{0.0, 0.0};
    return c;
  }();

  for (const double mu : {0.3183098861837907, -0.4142135623730951}) {
    ChannelParams p;
    p.h = {0.9, 0.7};
    p.freq_offset = -3e-4;
    p.mu = mu;
    p.isi =
        sig::Fir({cplx{0.05, -0.03}, cplx{1.0, 0.0}, cplx{0.1, 0.08}}, 1);
    for (const std::size_t half : {std::size_t{8}, std::size_t{5}}) {
      for (const CVec* x : {&packet, &chunk}) {
        for (const bool derivative : {false, true}) {
          CVec ref(660, cplx{0.0, 0.0});
          reference_add(ref, 0, *x, p, 1.0, half, derivative);
          for (const int width : {0, 1, 2, 4}) {
            CVec reused(660, cplx{0.0, 0.0});
            production_add(reused, 0, *x, p, 1.0, half, derivative, width);
            for (std::size_t i = 0; i < ref.size(); ++i)
              ASSERT_TRUE(test::bits_equal(ref[i], reused[i]))
                  << "mu=" << mu << " half=" << half
                  << " chunk=" << (x == &chunk)
                  << " derivative=" << derivative << " width=" << width
                  << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(Channel, RenderMatchesReferenceOnSeededConfigurations) {
  // 3,000 seeded renders against the reference, at every group-width cap:
  // drift 0 and not, ISI on and off, half widths 3/5/8, sparse chunks with
  // zeroed and sub-threshold symbols inside, windows clipped at sample 0,
  // offsets negative, clipped at either buffer end or wholly outside it,
  // scale of either sign, value and derivative renders, packets long
  // enough to re-anchor the carrier rotor, and Inf and NaN symbols. The
  // buffer starts with random samples and signed zeros, so untouched
  // samples are checked too. The store renders (the only form of the
  // derivative render) start from the same buffer and must leave what the
  // reference leaves in an all-+0.0 one.
  Rng rng(2008);
  constexpr int kConfigs = 3000;
  for (int c = 0; c < kConfigs; ++c) {
    constexpr std::size_t kHalves[] = {3, 5, 8};
    const std::size_t half = kHalves[c % 3];
    const bool derivative = c % 2 == 1;
    const bool long_packet = c % 97 == 5;
    const std::size_t n = static_cast<std::size_t>(
        long_packet ? rng.uniform_int(2060, 2400) : rng.uniform_int(1, 220));

    CVec x(n);
    for (auto& s : x) s = rng.gaussian_c(1.0);
    if (rng.chance(0.4)) {  // sparse chunk image
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      const auto e = static_cast<std::size_t>(rng.uniform_int(a + 1, n));
      for (std::size_t k = 0; k < n; ++k)
        if (k < a || k >= e) x[k] = cplx{0.0, 0.0};
      for (int z = 0; z < 3; ++z) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(a, e - 1));
        x[k] = z == 2 ? cplx{1e-13, -1e-13} : cplx{0.0, 0.0};
      }
    }
    if (c % 50 == 7) x[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] =
        cplx{std::numeric_limits<double>::infinity(), 0.5};
    if (c % 50 == 23) x[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] =
        cplx{0.25, std::numeric_limits<double>::quiet_NaN()};

    ChannelParams p;
    p.h = rng.uniform(0.2, 4.0) * rng.unit_phasor();
    p.freq_offset = rng.chance(0.1) ? 0.0 : rng.uniform(-5e-3, 5e-3);
    p.mu = rng.chance(0.2) ? rng.uniform(-40.0, 3.0) : rng.uniform(-0.5, 0.5);
    p.drift = rng.chance(0.5)
                  ? 0.0
                  : (rng.chance(0.5) ? rng.uniform(-2e-6, 2e-6)
                                     : rng.uniform(-4e-3, 4e-3));
    if (rng.chance(0.5))
      p.isi = sig::Fir({0.15 * rng.unit_phasor(), cplx{1.0, 0.0},
                        0.3 * rng.unit_phasor()},
                       1);
    const double scale =
        (rng.chance(0.5) ? -1.0 : 1.0) * rng.uniform(0.25, 2.0);

    const auto len = static_cast<std::ptrdiff_t>(2 * n + 64);
    std::ptrdiff_t buf_len = len;
    std::ptrdiff_t offset = rng.uniform_int(0, 40);
    switch (rng.uniform_int(0, 4)) {
      case 0: break;
      case 1: offset = -rng.uniform_int(1, len); break;          // negative
      case 2: buf_len = rng.uniform_int(1, len); break;          // clipped
      case 3: offset = rng.chance(0.5) ? len + 40 : -2 * len;    // outside
              break;
      default: buf_len = rng.uniform_int(1, 2 * len); break;
    }
    CVec init(static_cast<std::size_t>(buf_len));
    for (auto& s : init)
      s = rng.chance(0.1) ? cplx{-0.0, rng.chance(0.5) ? -0.0 : 0.0}
                          : rng.gaussian_c(0.5);

    CVec ref = init;
    reference_add(ref, offset, x, p, scale, half, derivative);
    CVec ref_store(init.size(), cplx{0.0, 0.0});
    reference_add(ref_store, offset, x, p, scale, half, derivative);
    for (const int width : {0, 1, 2, 4}) {
      for (const bool store : {false, true}) {
        if (derivative && !store) continue;
        CVec got = init;
        production_add(got, offset, x, p, scale, half, derivative, width,
                       store);
        const CVec& want = store ? ref_store : ref;
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_TRUE(test::bits_equal(want[i], got[i]))
              << "config=" << c << " width=" << width << " store=" << store
              << " n=" << n << " half=" << half
              << " derivative=" << derivative << " drift=" << p.drift
              << " offset=" << offset << " i=" << i;
      }
    }
  }
}

TEST(Channel, SymbolTimesMustNotDecrease) {
  // The render takes symbols in time order. At drift = -1 every symbol
  // lands at μ (still in order, and the live-symbol ring must then hold
  // them all); below -1 time runs backwards, a checked contract violation.
  Rng rng(608);
  CVec x(40);
  for (auto& s : x) s = rng.gaussian_c(1.0);
  ChannelParams p;
  p.mu = 20.3;
  p.drift = -1.0;
  for (const int width : {0, 2}) {
    CVec ref(80, cplx{0.0, 0.0}), got(80, cplx{0.0, 0.0});
    reference_add(ref, 0, x, p, 1.0, 8, false);
    ASSERT_GT(mean_power(ref), 1e-3);
    production_add(got, 0, x, p, 1.0, 8, false, width);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_TRUE(test::bits_equal(ref[i], got[i]))
          << "width=" << width << " i=" << i;
  }
  p.drift = -1.5;
  CVec buf(80, cplx{0.0, 0.0});
  EXPECT_DEATH(add_signal(buf, 0, x, p), "drift");
}

TEST(Channel, RandomChannelRespectsConfig) {
  Rng rng(8);
  ImpairmentConfig cfg;
  cfg.snr_db = 15.0;
  cfg.freq_offset_max = 1e-3;
  cfg.mu_max = 0.4;
  for (int i = 0; i < 32; ++i) {
    const ChannelParams p = random_channel(rng, cfg);
    EXPECT_NEAR(std::abs(p.h), std::sqrt(db_to_lin(15.0)), 1e-9);
    EXPECT_LE(std::abs(p.freq_offset), 1e-3);
    EXPECT_LE(std::abs(p.mu), 0.4);
    EXPECT_EQ(p.isi.taps().size(), 3u);
  }
}

TEST(Channel, RetransmissionKeepsMagnitudeAndIsi) {
  Rng rng(9);
  ImpairmentConfig cfg;
  const ChannelParams a = random_channel(rng, cfg);
  const ChannelParams b = retransmission_channel(rng, a, 2e-5);
  EXPECT_NEAR(std::abs(a.h), std::abs(b.h), 1e-12);
  EXPECT_NEAR(std::abs(a.freq_offset - b.freq_offset), 0.0, 2e-5 + 1e-12);
  ASSERT_EQ(a.isi.taps().size(), b.isi.taps().size());
  for (std::size_t i = 0; i < a.isi.taps().size(); ++i)
    EXPECT_EQ(a.isi.taps()[i], b.isi.taps()[i]);
}

TEST(Channel, CleanReceptionHasLeadNoise) {
  Rng rng(10);
  const CVec x = random_bpsk(rng, 128);
  ChannelParams p;
  p.h = cplx{10.0, 0.0};
  const CVec rx = clean_reception(rng, x, p, 64, 32, 1.0);
  double lead_pow = 0.0;
  for (std::size_t i = 0; i < 48; ++i) lead_pow += std::norm(rx[i]);
  lead_pow /= 48.0;
  EXPECT_NEAR(lead_pow, 1.0, 0.6);  // noise only
  double mid_pow = 0.0;
  for (std::size_t i = 96; i < 256; ++i) mid_pow += std::norm(rx[i]);
  EXPECT_GT(mid_pow / 160.0, 50.0);  // signal dominates
}

TEST(CollisionBuilder, TruthRecordsOffsetsAndSnr) {
  Rng rng(11);
  phy::FrameHeader h;
  h.sender_id = 1;
  h.seq = 7;
  h.payload_bytes = 40;
  const auto frame = phy::build_frame(h, rng.bytes(40));

  ImpairmentConfig cfg;
  cfg.snr_db = 20.0;
  cfg.enable_isi = false;
  const ChannelParams cp = random_channel(rng, cfg);

  emu::Reception r = emu::CollisionBuilder()
                         .lead(50)
                         .noise_power(1.0)
                         .add(frame, cp, 13)
                         .build(rng);
  ASSERT_EQ(r.truth.size(), 1u);
  EXPECT_EQ(r.truth[0].start, 63);
  EXPECT_EQ(r.lead, 50u);

  // Measured signal power in the packet interior ≈ |h|² + noise.
  double pow = 0.0;
  const std::size_t s0 = 80, s1 = 200;
  for (std::size_t i = s0; i < s1; ++i) pow += std::norm(r.samples[i]);
  pow /= static_cast<double>(s1 - s0);
  EXPECT_NEAR(pow, db_to_lin(20.0) + 1.0, 30.0);
}

TEST(CollisionBuilder, TwoPacketsSuperpose) {
  Rng rng(12);
  phy::FrameHeader h;
  h.payload_bytes = 30;
  const auto fa = phy::build_frame(h, rng.bytes(30));
  h.seq = 1;
  const auto fb = phy::build_frame(h, rng.bytes(30));

  ChannelParams pa, pb;
  pa.h = cplx{5.0, 0.0};
  pb.h = cplx{5.0, 0.0};

  auto lone = emu::CollisionBuilder().lead(32).noise_power(0).add(fa, pa, 0).build(rng);
  auto both = emu::CollisionBuilder()
                  .lead(32)
                  .noise_power(0)
                  .add(fa, pa, 0)
                  .add(fb, pb, 100)
                  .build(rng);
  // Before the second packet arrives the signals agree.
  for (std::size_t i = 0; i < 112; ++i)
    EXPECT_LT(std::abs(both.samples[i] - lone.samples[i]), 1e-9);
  // After it arrives they differ.
  double diff = 0.0;
  for (std::size_t i = 140; i < 200; ++i)
    diff += std::norm(both.samples[i] - lone.samples[i]);
  EXPECT_GT(diff, 1.0);
}

}  // namespace
}  // namespace zz::chan
