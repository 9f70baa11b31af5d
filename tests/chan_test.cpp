// Unit tests for zz::chan / zz::emu — the channel model and collision
// synthesis. These pin down the signal model every other module relies on.
#include <gtest/gtest.h>

#include <cmath>

#include "zz/chan/channel.h"
#include "zz/common/mathutil.h"
#include "zz/common/rng.h"
#include "zz/emu/collision.h"
#include "zz/phy/transmitter.h"

namespace zz::chan {
namespace {

CVec random_bpsk(Rng& rng, std::size_t n) {
  CVec x(n);
  for (auto& v : x) v = rng.bit() ? cplx{1.0, 0.0} : cplx{-1.0, 0.0};
  return x;
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
  add_signal_derivative(d, 4, x, p);
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
  // The render packs symbol groups into SIMD lanes (scalar, SSE2 pairs,
  // AVX2 quads by CPU dispatch) under a bit-exactness contract — the drift
  // gates only ever exercise the widest path the CI machine dispatches, so
  // pin the narrower paths against it here.
  Rng rng(606);
  const CVec x = random_bpsk(rng, 257);  // odd count: exercises group tails
  ChannelParams p;
  p.h = {1.3, -0.4};
  p.freq_offset = 7e-4;
  p.mu = 0.31;
  p.drift = 1.3e-6;
  p.isi = sig::Fir({cplx{0.06, 0.02}, cplx{1.0, 0.0}, cplx{0.12, -0.04}}, 1);

  const auto render_with = [&](int width, bool derivative) {
    set_render_group_width_for_test(width);
    CVec buf(620, cplx{0.0, 0.0});
    if (derivative)
      add_signal_derivative(buf, 16, x, p);
    else
      add_signal(buf, 16, x, p);
    set_render_group_width_for_test(0);
    return buf;
  };

  for (const bool derivative : {false, true}) {
    const CVec widest = render_with(0, derivative);  // CPU dispatch
    for (const int width : {1, 2, 4}) {
      const CVec forced = render_with(width, derivative);
      ASSERT_EQ(widest.size(), forced.size());
      for (std::size_t i = 0; i < widest.size(); ++i)
        ASSERT_EQ(widest[i], forced[i])
            << "width=" << width << " derivative=" << derivative
            << " i=" << i;
    }
  }
}

TEST(Channel, DriftFreeWeightReuseIsBitIdentical) {
  // With drift = 0 (every receiver-side link estimate) consecutive symbols
  // share their tap-weight key (x_lo, cnt) within each binade of
  // tk = 2k + μ, and the render reuses the weights. Width 1 computes every
  // symbol from scratch; the reusing widths must match it bit for bit.
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
          const auto render_with = [&](int width) {
            set_render_group_width_for_test(width);
            CVec buf(660, cplx{0.0, 0.0});
            if (derivative)
              add_signal_derivative(buf, 0, *x, p, half);
            else
              add_signal(buf, 0, *x, p, 1.0, half);
            set_render_group_width_for_test(0);
            return buf;
          };
          const CVec scratch = render_with(1);
          for (const int width : {0, 2, 4}) {
            const CVec reused = render_with(width);
            for (std::size_t i = 0; i < scratch.size(); ++i)
              ASSERT_EQ(scratch[i], reused[i])
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
