// Unit tests for zz::sig — FIR filtering/inversion/fitting, band-limited
// interpolation, and the sliding correlator that powers collision detection.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "zz/common/mathutil.h"
#include "zz/common/rng.h"
#include "zz/signal/correlate.h"
#include "zz/signal/fft.h"
#include "zz/signal/fir.h"
#include "zz/signal/interp.h"
#include "zz/signal/scratch.h"
#include "zz/signal/simd.h"

#include "bit_equal.h"

namespace zz::sig {
namespace {

CVec random_bpsk(Rng& rng, std::size_t n) {
  CVec x(n);
  for (auto& v : x) v = rng.bit() ? cplx{1.0, 0.0} : cplx{-1.0, 0.0};
  return x;
}

// Band-limited test signal: sum of sub-Nyquist complex tones.
CVec bandlimited(std::size_t n) {
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = cplx{std::cos(0.11 * kTwoPi * t), std::sin(0.23 * kTwoPi * t)} +
           0.5 * cplx{std::cos(0.05 * kTwoPi * t + 1.0), 0.0};
  }
  return x;
}

TEST(Fir, IdentityPassesThrough) {
  Fir id;
  EXPECT_TRUE(id.is_identity());
  Rng rng(1);
  const CVec x = random_bpsk(rng, 32);
  const CVec y = id.apply(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(Fir, CausalConvolution) {
  Fir f({cplx{1.0, 0.0}, cplx{0.5, 0.0}});  // y[n] = x[n] + 0.5 x[n-1]
  const CVec x{{1, 0}, {0, 0}, {0, 0}};
  const CVec y = f.apply(x);
  EXPECT_NEAR(std::abs(y[0] - cplx(1.0, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[1] - cplx(0.5, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[2]), 0.0, 1e-12);
}

TEST(Fir, NonCausalCentering) {
  // y[n] = 0.2 x[n+1] + x[n] + 0.3 x[n-1]
  Fir f({cplx{0.2, 0.0}, cplx{1.0, 0.0}, cplx{0.3, 0.0}}, 1);
  const CVec x{{0, 0}, {1, 0}, {0, 0}};
  const CVec y = f.apply(x);
  EXPECT_NEAR(std::abs(y[0] - cplx(0.2, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[1] - cplx(1.0, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[2] - cplx(0.3, 0.0)), 0.0, 1e-12);
}

TEST(Fir, RejectsBadConstruction) {
  EXPECT_THROW(Fir({}, 0), std::invalid_argument);
  EXPECT_THROW(Fir({cplx{1, 0}}, 3), std::invalid_argument);
}

TEST(Fir, InverseCancelsChannel) {
  Rng rng(2);
  const Fir h({cplx{0.1, 0.05}, cplx{1.0, 0.0}, cplx{0.2, -0.1}}, 1);
  const Fir g = h.inverse(9, 4);
  const CVec x = random_bpsk(rng, 256);
  const CVec y = g.apply(h.apply(x));
  double err = 0.0;
  for (std::size_t i = 8; i + 8 < x.size(); ++i) err += std::norm(y[i] - x[i]);
  EXPECT_LT(err / 240.0, 1e-3);
}

TEST(Fir, FitRecoversTrueTaps) {
  Rng rng(3);
  const Fir truth({cplx{0.08, 0.02}, cplx{1.0, 0.0}, cplx{0.15, -0.07}}, 1);
  const CVec x = random_bpsk(rng, 512);
  CVec y = truth.apply(x);
  for (auto& v : y) v += rng.gaussian_c(0.001);  // light noise
  const Fir fit = fit_fir(x, y, 1, 1);
  ASSERT_EQ(fit.taps().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_LT(std::abs(fit.taps()[i] - truth.taps()[i]), 0.02);
}

TEST(Fir, FitRejectsBadSizes) {
  EXPECT_THROW(fit_fir(CVec(2), CVec(3), 1, 1), std::invalid_argument);
}

class InterpMuSweep : public ::testing::TestWithParam<double> {};

TEST_P(InterpMuSweep, ShiftRecoversBandlimitedSignal) {
  const double mu = GetParam();
  const SincInterpolator interp(8);
  const CVec x = bandlimited(256);
  const CVec y = interp.shift(x, mu);
  // Compare against the analytic shifted signal in the interior.
  double worst = 0.0;
  for (std::size_t i = 24; i + 24 < x.size(); ++i) {
    const double t = static_cast<double>(i) + mu;
    const cplx truth =
        cplx{std::cos(0.11 * kTwoPi * t), std::sin(0.23 * kTwoPi * t)} +
        0.5 * cplx{std::cos(0.05 * kTwoPi * t + 1.0), 0.0};
    worst = std::max(worst, std::abs(y[i] - truth));
  }
  EXPECT_LT(worst, 0.02) << "mu=" << mu;
}

INSTANTIATE_TEST_SUITE_P(MuGrid, InterpMuSweep,
                         ::testing::Values(-0.5, -0.3, -0.1, 0.0, 0.07, 0.25,
                                           0.49));

TEST(Interp, IntegerShiftIsExact) {
  const SincInterpolator interp(8);
  const CVec x = bandlimited(64);
  for (std::size_t i = 10; i < 50; ++i)
    EXPECT_LT(std::abs(interp.at(x, static_cast<double>(i)) - x[i]), 1e-9);
}

TEST(Interp, BlockEvaluationMatchesPerSampleGolden) {
  // at_uniform / at_batch are the decoder's per-tracking-block fetch path;
  // they must agree with the per-sample route at <= 1e-12 (the
  // implementation is in fact bit-identical — same per-point arithmetic
  // with the recurrence constants hoisted).
  const SincInterpolator interp(8);
  const CVec x = bandlimited(256);
  const double t0 = 37.413, dt = 2.0000037;  // symbol-rate run with drift
  constexpr std::size_t n = 96;
  CVec out(n);
  interp.at_uniform(x, t0, dt, n, out.data());
  for (std::size_t j = 0; j < n; ++j) {
    const cplx ref = interp.at(x, t0 + dt * static_cast<double>(j));
    EXPECT_LE(std::abs(out[j] - ref), 1e-12) << "j=" << j;
  }

  std::vector<double> pos;
  Rng rng(5);
  for (std::size_t j = 0; j < 64; ++j) pos.push_back(rng.uniform(-8.0, 264.0));
  CVec batch(pos.size());
  for (const int width : {0, 2}) {  // SIMD dispatch, then the portable route
    set_simd_width_for_test(width);
    interp.at_batch(x, pos, batch.data());
    set_simd_width_for_test(0);
    for (std::size_t j = 0; j < pos.size(); ++j) {
      const cplx ref = interp.at(x, pos[j]);
      // Bit-identical by construction.
      EXPECT_TRUE(test::bits_equal(batch[j], ref))
          << "width=" << width << " j=" << j;
    }
  }
}

TEST(Interp, BatchWeightReuseMatchesPerPoint) {
  // at_batch reuses the interior kernel weights while x0 = t - lo keeps its
  // bit pattern, which for the decoder's positions origin + 2k + μ holds
  // across each binade of t. Walk such a run across the 1024/2048 binade
  // boundaries and off both stream edges; every value must equal at(). The
  // drifted run, origin + 2k(1 + drift) + μ, is the position sequence
  // ChunkDecoder feeds at_batch for a link estimate with nonzero drift,
  // where the weights change from symbol to symbol.
  const SincInterpolator interp(8);
  const CVec x = bandlimited(2100);
  const struct {
    double mu, drift;
  } runs[] = {{0.3183098861837907, 0.0},
              {-0.4142135623730951, 0.0},
              {0.2718281828459045, 3.7e-5}};
  for (const auto& run : runs) {
    const std::ptrdiff_t origin = -5;
    std::vector<double> pos;
    for (std::size_t k = 0; k < 1060; ++k)
      pos.push_back(static_cast<double>(origin) +
                    (2.0 * static_cast<double>(k) * (1.0 + run.drift) +
                     run.mu));
    ASSERT_LT(pos.front(), 0.0);
    ASSERT_GT(pos.back(), static_cast<double>(x.size()));
    CVec batch(pos.size());
    for (const int width : {0, 2}) {
      set_simd_width_for_test(width);
      interp.at_batch(x, pos, batch.data());
      set_simd_width_for_test(0);
      for (std::size_t j = 0; j < pos.size(); ++j)
        EXPECT_TRUE(test::bits_equal(batch[j], interp.at(x, pos[j])))
            << "mu=" << run.mu << " drift=" << run.drift
            << " width=" << width << " j=" << j;
    }
  }
}

TEST(Interp, CarriedWeightsMatchPerPoint) {
  // Weights carried across at_batch calls — blocks of one position run,
  // then another interpolator's — must give what at() gives. Integer
  // positions have odd windows (the last tap sits on the window edge);
  // Inf and NaN samples must come out of every route as at() has them.
  CVec x = bandlimited(300);
  x[120] = cplx{std::numeric_limits<double>::infinity(), 0.0};
  x[161] = cplx{0.0, std::numeric_limits<double>::quiet_NaN()};
  const SincInterpolator wide(8), narrow(3);
  std::vector<double> pos;
  for (std::size_t k = 0; k < 140; ++k)
    pos.push_back((k / 20) % 2 == 0 ? static_cast<double>(2 * k)
                                    : 4.0 + 2.0 * static_cast<double>(k) + 0.375);
  for (const int width : {0, 2}) {
    set_simd_width_for_test(width);
    SincInterpolator::Weights carry;
    for (const SincInterpolator* interp : {&wide, &narrow, &wide}) {
      for (std::size_t k0 = 0; k0 < pos.size(); k0 += 13) {
        const std::size_t n = std::min<std::size_t>(13, pos.size() - k0);
        CVec out(n);
        interp->at_batch(x, {pos.data() + k0, n}, out.data(), carry);
        for (std::size_t j = 0; j < n; ++j)
          EXPECT_TRUE(test::bits_equal(out[j], interp->at(x, pos[k0 + j])))
              << "half=" << interp->half_width() << " width=" << width
              << " j=" << k0 + j;
      }
    }
    set_simd_width_for_test(0);
  }
}

TEST(Interp, EdgeWindowKeepsInteriorGain) {
  // A truncated kernel window at the stream edge used to come back
  // attenuated (a DC stream read ~0.5 at sample 0); the clipped window is
  // now renormalized by its summed kernel weight, so edge samples keep
  // interior gain.
  const SincInterpolator interp(8);
  const CVec x(64, cplx{1.0, 0.0});
  const double interior = std::abs(interp.at(x, 32.3));
  EXPECT_NEAR(interior, 1.0, 0.01);
  for (const double t : {0.0, 0.3, 1.7, 4.4, 58.6, 62.7, 63.0}) {
    EXPECT_NEAR(std::abs(interp.at(x, t)), interior, 0.02) << "t=" << t;
  }
}

TEST(Interp, ShiftInheritsEdgeRenormalization) {
  const SincInterpolator interp(8);
  const CVec x(64, cplx{1.0, 0.0});
  const CVec y = interp.shift(x, 0.37);
  // First/last samples keep ~unit gain instead of reading the old ~50%.
  EXPECT_NEAR(std::abs(y.front()), 1.0, 0.02);
  EXPECT_NEAR(std::abs(y[1]), 1.0, 0.02);
  EXPECT_NEAR(std::abs(y[y.size() - 2]), 1.0, 0.02);
  EXPECT_NEAR(std::abs(y.back()), 1.0, 0.02);
}

TEST(Interp, RejectsZeroHalfWidth) {
  EXPECT_THROW(SincInterpolator(0), std::invalid_argument);
}

TEST(Interp, RejectsHalfWidthAboveTapBound) {
  EXPECT_NO_THROW(SincInterpolator(SincInterpolator::kMaxHalfWidth));
  EXPECT_THROW(SincInterpolator(SincInterpolator::kMaxHalfWidth + 1),
               std::invalid_argument);
}

TEST(Interp, OutOfRangeReadsAreZero) {
  const SincInterpolator interp(4);
  const CVec x(8, cplx{1.0, 0.0});
  EXPECT_NEAR(std::abs(interp.at(x, -100.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(interp.at(x, 100.0)), 0.0, 1e-12);
  // NaN and far-off positions (a diverged link estimate's) read zeros on
  // every route, without an out-of-range integer conversion (UBSan).
  const std::vector<double> far = {std::numeric_limits<double>::quiet_NaN(),
                                   1e300, -1e300, 0x1p62, -0x1p63, 3.5};
  for (const int width : {0, 2}) {
    set_simd_width_for_test(width);
    CVec out(far.size());
    interp.at_batch(x, far, out.data());
    set_simd_width_for_test(0);
    for (std::size_t j = 0; j + 1 < far.size(); ++j)
      EXPECT_TRUE(test::bits_equal(out[j], cplx{0.0, 0.0}))
          << "width=" << width << " t=" << far[j];
    EXPECT_TRUE(test::bits_equal(out.back(), interp.at(x, 3.5)));
  }
}

TEST(Correlate, SpikesAtEmbeddedReference) {
  Rng rng(4);
  const CVec ref = random_bpsk(rng, 32);
  CVec stream = random_bpsk(rng, 400);
  // Overwrite positions 137.. with the reference.
  for (std::size_t k = 0; k < ref.size(); ++k) stream[137 + k] = ref[k];
  const CVec corr = sliding_correlation(ref, stream);
  std::size_t best = 0;
  for (std::size_t i = 0; i < corr.size(); ++i)
    if (std::abs(corr[i]) > std::abs(corr[best])) best = i;
  EXPECT_EQ(best, 137u);
  EXPECT_NEAR(std::abs(corr[137]), 32.0, 1e-9);
}

TEST(Correlate, FrequencyOffsetDestroysAndCompensationRestores) {
  Rng rng(5);
  const CVec ref = random_bpsk(rng, 64);
  const double df = 0.01;  // cycles/sample — decoheres a 64-sample window
  CVec stream(200, cplx{0.0, 0.0});
  for (std::size_t k = 0; k < ref.size(); ++k) {
    const double phi = kTwoPi * df * static_cast<double>(k);
    stream[50 + k] = ref[k] * cplx{std::cos(phi), std::sin(phi)};
  }
  const cplx plain = correlation_at(ref, stream, 50);
  const cplx comp = correlation_at(ref, stream, 50, df);
  EXPECT_LT(std::abs(plain), 45.0);      // badly decohered
  EXPECT_NEAR(std::abs(comp), 64.0, 1e-6);  // fully restored (Γ' of §4.2.1)
}

TEST(Correlate, FindPeaksRespectsThresholdAndSeparation) {
  CVec corr(100, cplx{0.1, 0.0});
  corr[20] = {5.0, 0.0};
  corr[22] = {4.0, 0.0};  // swallowed by separation guard
  corr[70] = {6.0, 0.0};
  const auto peaks = find_peaks(corr, 3.0, 10);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0], 20u);
  EXPECT_EQ(peaks[1], 70u);
}

TEST(Correlate, ParabolicOffsetTracksTruePeak) {
  // Sample a smooth peak at fractional position 30.3.
  CVec corr(64);
  for (std::size_t i = 0; i < corr.size(); ++i) {
    const double d = static_cast<double>(i) - 30.3;
    corr[i] = cplx{std::exp(-d * d / 8.0), 0.0};
  }
  const double frac = parabolic_peak_offset(corr, 30);
  EXPECT_NEAR(frac, 0.3, 0.05);
}

TEST(Correlate, EmptyAndShortStreams) {
  const CVec ref(8, cplx{1.0, 0.0});
  EXPECT_TRUE(sliding_correlation(ref, CVec(4)).empty());
  EXPECT_TRUE(sliding_correlation(CVec{}, CVec(4)).empty());
}

// ---------------------------------------------------------------------------
// FFT engine and the fast/naive correlation equivalence (golden test).
// ---------------------------------------------------------------------------

TEST(Fft, MatchesNaiveDftAndRoundtrips) {
  Rng rng(61);
  const std::size_t n = 64;
  CVec x(n);
  for (auto& v : x) v = cplx{rng.gaussian(), rng.gaussian()};

  // Naive DFT reference.
  CVec ref(n, cplx{0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t m = 0; m < n; ++m) {
      const double phi = -kTwoPi * static_cast<double>(k * m) / static_cast<double>(n);
      ref[k] += x[m] * cplx{std::cos(phi), std::sin(phi)};
    }

  const Fft fft(n);
  CVec y = x;
  fft.forward(y.data());
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_LT(std::abs(y[k] - ref[k]), 1e-10) << "bin " << k;

  fft.inverse(y.data());
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_LT(std::abs(y[k] - x[k]), 1e-12) << "sample " << k;
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(Fft(0), std::invalid_argument);
  EXPECT_THROW(Fft(1), std::invalid_argument);
  EXPECT_THROW(Fft(96), std::invalid_argument);
}

// The overlap-save engine must reproduce the naive O(N·M) loop to 1e-9 —
// values, peak positions AND sub-sample peak offsets — including under
// frequency-offset hypotheses (the detector's Γ').
TEST(Correlate, FastMatchesNaiveGolden) {
  Rng rng(62);
  const CVec ref = random_bpsk(rng, 64);
  CVec stream(3000);
  for (auto& v : stream) v = cplx{rng.gaussian(), rng.gaussian()};
  // Embed the reference twice so there are genuine peaks to compare.
  for (std::size_t k = 0; k < ref.size(); ++k) {
    stream[400 + k] += 3.0 * ref[k];
    stream[1777 + k] += 3.0 * ref[k];
  }

  for (const double df : {0.0, 1.3e-3, -2.0e-3}) {
    const CVec naive = sliding_correlation_naive(ref, stream, df);
    const CVec fast = sliding_correlation(ref, stream, df);
    ASSERT_EQ(naive.size(), fast.size());
    double worst = 0.0;
    for (std::size_t d = 0; d < naive.size(); ++d)
      worst = std::max(worst, std::abs(naive[d] - fast[d]));
    EXPECT_LT(worst, 1e-9) << "df=" << df;

    const auto pn = find_peaks(naive, 100.0, 16);
    const auto pf = find_peaks(fast, 100.0, 16);
    ASSERT_EQ(pn, pf) << "df=" << df;
    for (const std::size_t pk : pn)
      EXPECT_NEAR(parabolic_peak_offset(naive, pk),
                  parabolic_peak_offset(fast, pk), 1e-9);
  }
}

// prepare() once, correlate() per hypothesis — the detector's batched use.
TEST(Correlate, SlidingCorrelatorSharesStreamTransforms) {
  Rng rng(63);
  const CVec ref = random_bpsk(rng, 64);
  CVec stream(2200);
  for (auto& v : stream) v = cplx{rng.gaussian(), rng.gaussian()};

  SlidingCorrelator corr(ref);
  corr.prepare(stream);
  EXPECT_EQ(corr.positions(), stream.size() - ref.size() + 1);
  CVec out;
  for (const double df : {5e-4, 0.0, -1.7e-3}) {
    corr.correlate(df, out);
    const CVec naive = sliding_correlation_naive(ref, stream, df);
    ASSERT_EQ(out.size(), naive.size());
    for (std::size_t d = 0; d < out.size(); ++d)
      ASSERT_LT(std::abs(out[d] - naive[d]), 1e-9) << "df=" << df << " d=" << d;
  }
}

TEST(Correlate, WindowedEnergyMatchesDirectSum) {
  Rng rng(64);
  // Longer than the re-anchor block so the compensation path is exercised.
  CVec stream(5000);
  for (auto& v : stream) v = cplx{rng.gaussian(), rng.gaussian()};
  const std::size_t w = 64;
  const auto fast = windowed_energy(stream, w);
  ASSERT_EQ(fast.size(), stream.size() - w + 1);
  for (std::size_t d = 0; d < fast.size(); ++d) {
    double direct = 0.0;
    for (std::size_t k = 0; k < w; ++k) direct += std::norm(stream[d + k]);
    ASSERT_NEAR(fast[d], direct, 1e-9 * std::max(direct, 1.0)) << "d=" << d;
  }
  EXPECT_TRUE(windowed_energy(stream, 0).empty());
  EXPECT_TRUE(windowed_energy(CVec(10), 11).empty());
}

TEST(Correlate, FindPeaksRealProfileMatchesComplex) {
  Rng rng(65);
  CVec corr(300);
  for (auto& v : corr) v = cplx{rng.gaussian(), rng.gaussian()};
  corr[77] = {9.0, 0.0};
  corr[210] = {7.5, 0.0};
  std::vector<double> mag(corr.size());
  for (std::size_t i = 0; i < corr.size(); ++i) mag[i] = std::abs(corr[i]);
  EXPECT_EQ(find_peaks(corr, 5.0, 12), find_peaks(mag, 5.0, 12));
}

TEST(Scratch, SlotsKeepIdentityAcrossGrowth) {
  ScratchArena arena;
  CVec& a = arena.cvec(0, 100);
  a[0] = cplx{42.0, 0.0};
  // Materializing a later slot must not invalidate the first reference.
  CVec& b = arena.czero(5, 1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(a[0], (cplx{42.0, 0.0}));
  EXPECT_EQ(&a, &arena.cvec(0, 50));
  auto& d = arena.dvec(2, 64);
  EXPECT_EQ(d.size(), 64u);
}

TEST(Scratch, SerialHandOffThroughConfinementCounter) {
#ifndef ZZ_DEBUG_THREAD_CHECKS
  GTEST_SKIP() << "the confinement counter is compiled in only with "
                  "ZZ_DEBUG_THREAD_CHECKS (sanitizer builds)";
#else
  // Two threads take turns in one arena, each checking the previous
  // turn's buffer and overwriting it. The turn flag is relaxed and orders
  // nothing: the only happens-before edge between turns is the arena's
  // acq_rel confinement counter. Each turn ends with a czero, which fills
  // slot 1 inside the guard, so a relaxed enter or a relaxed leave shows
  // as a data race on the TSan leg.
  ScratchArena arena;
  std::atomic<int> turn{0};
  constexpr int kTurns = 200;
  constexpr std::size_t kN = 64;
  const auto play = [&](int first) {
    for (int t = first; t < kTurns; t += 2) {
      while (turn.load(std::memory_order_relaxed) != t)
        std::this_thread::yield();
      std::vector<double>& buf = arena.dvec(0, kN);
      for (std::size_t j = 0; j < kN; ++j) {
        if (t > 0) {
          EXPECT_EQ(buf[j], static_cast<double>(t - 1)) << "turn " << t;
        }
        buf[j] = t;
      }
      arena.czero(1, kN);
      turn.store(t + 1, std::memory_order_relaxed);
    }
  };
  std::thread a(play, 0), b(play, 1);
  a.join();
  b.join();
#endif
}

}  // namespace
}  // namespace zz::sig
