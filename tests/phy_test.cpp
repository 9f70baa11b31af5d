// Unit tests for zz::phy — modulation, preamble, scrambler, framing,
// transmitter and the standard (black-box) receiver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "zz/chan/channel.h"
#include "zz/common/mathutil.h"
#include "zz/common/rng.h"
#include "zz/emu/collision.h"
#include "zz/phy/frame.h"
#include "zz/phy/modulation.h"
#include "zz/phy/preamble.h"
#include "zz/phy/receiver.h"
#include "zz/phy/scrambler.h"
#include "zz/phy/transmitter.h"
#include "zz/signal/simd.h"

#include "bit_equal.h"

namespace zz::phy {
namespace {

class ModulationSuite : public ::testing::TestWithParam<Modulation> {};

TEST_P(ModulationSuite, RoundTripsRandomBits) {
  const Modulator mod(GetParam());
  Rng rng(1);
  const Bits tx = rng.bits(960);
  const CVec syms = mod.modulate(tx);
  const Bits rx = mod.demodulate(syms);
  ASSERT_GE(rx.size(), tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) EXPECT_EQ(tx[i], rx[i]);
}

TEST_P(ModulationSuite, UnitAveragePower) {
  const Modulator mod(GetParam());
  double acc = 0.0;
  const unsigned n = 1u << mod.bits_per_symbol();
  for (unsigned v = 0; v < n; ++v) acc += std::norm(mod.map(v));
  EXPECT_NEAR(acc / n, 1.0, 1e-9);
}

TEST_P(ModulationSuite, SliceIsNearestNeighbour) {
  const Modulator mod(GetParam());
  Rng rng(2);
  const unsigned n = 1u << mod.bits_per_symbol();
  for (unsigned v = 0; v < n; ++v) {
    const cplx noisy = mod.map(v) + rng.gaussian_c(0.001);
    EXPECT_EQ(mod.slice(noisy), v);
    EXPECT_LT(std::abs(mod.nearest_point(noisy) - mod.map(v)), 1e-12);
  }
}

TEST_P(ModulationSuite, SoftBitsAgreeWithHardDecisionsAtHighSnr) {
  const Modulator mod(GetParam());
  Rng rng(3);
  std::vector<double> llrs;
  for (int trial = 0; trial < 64; ++trial) {
    const unsigned v =
        static_cast<unsigned>(rng.uniform_int(0, (1 << mod.bits_per_symbol()) - 1));
    const cplx y = mod.map(v) + rng.gaussian_c(1e-4);
    mod.soft_bits(y, 1e-4, llrs);
    for (int b = 0; b < mod.bits_per_symbol(); ++b) {
      const bool bit = (v >> b) & 1u;
      // Positive LLR favours bit 0.
      EXPECT_EQ(llrs[static_cast<std::size_t>(b)] > 0.0, !bit);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ModulationSuite,
                         ::testing::Values(Modulation::BPSK, Modulation::QPSK,
                                           Modulation::QAM16,
                                           Modulation::QAM64));

TEST(Modulation, MinDistanceOrdering) {
  // Denser constellations have smaller minimum distance.
  EXPECT_GT(Modulator(Modulation::BPSK).min_distance(),
            Modulator(Modulation::QPSK).min_distance());
  EXPECT_GT(Modulator(Modulation::QPSK).min_distance(),
            Modulator(Modulation::QAM16).min_distance());
  EXPECT_GT(Modulator(Modulation::QAM16).min_distance(),
            Modulator(Modulation::QAM64).min_distance());
}

TEST(Preamble, DeterministicAndBinary) {
  const CVec& p1 = preamble();
  const CVec& p2 = preamble();
  ASSERT_EQ(p1.size(), kPreambleLength);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i], p2[i]);
    EXPECT_NEAR(std::abs(p1[i]), 1.0, 1e-12);
  }
}

TEST(Preamble, LowAutocorrelationSidelobes) {
  // Pseudo-random ±1 sequences have sidelobes ~sqrt(L), far below the
  // L-valued main peak — the property §4.2.1's detector rests on.
  EXPECT_LT(preamble_max_sidelobe(32), 16.0);
  EXPECT_LT(preamble_max_sidelobe(64), 24.0);
}

TEST(Scrambler, InvolutionWithSameSeed) {
  Rng rng(4);
  const Bits data = rng.bits(1000);
  Scrambler a(0x35), b(0x35);
  const Bits scrambled = a.apply(data);
  const Bits restored = b.apply(scrambled);
  EXPECT_EQ(data, restored);
  EXPECT_NE(data, scrambled);
}

TEST(Scrambler, WhitensConstantInput) {
  const Bits zeros(2000, 0);
  Scrambler s(0x7f);
  const Bits out = s.apply(zeros);
  double ones = 0;
  for (auto b : out) ones += b;
  EXPECT_NEAR(ones / 2000.0, 0.5, 0.05);
}

TEST(Scrambler, SeedForSeqIsNonZero) {
  for (std::uint16_t seq = 0; seq < 200; ++seq)
    EXPECT_NE(scrambler_seed_for(seq), 0);
}

TEST(Frame, HeaderRoundTrip) {
  FrameHeader h;
  h.sender_id = 0xAB;
  h.seq = 0x1234;
  h.retry = true;
  h.payload_mod = Modulation::QAM16;
  h.payload_bytes = 1500;
  const Bits bits = encode_header(h);
  ASSERT_EQ(bits.size(), kHeaderBits);
  const auto back = decode_header(bits);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(Frame, HeaderRejectsCorruption) {
  FrameHeader h;
  h.payload_bytes = 100;
  Bits bits = encode_header(h);
  bits[5] ^= 1;
  EXPECT_FALSE(decode_header(bits).has_value());
}

TEST(Frame, LayoutGeometry) {
  FrameHeader h;
  h.payload_bytes = 1500;
  h.payload_mod = Modulation::BPSK;
  const FrameLayout l = layout_for(h);
  EXPECT_EQ(l.preamble_syms, kPreambleLength);
  EXPECT_EQ(l.header_syms, kHeaderBits);
  EXPECT_EQ(l.body_bits, 8u * 1504u);
  EXPECT_EQ(l.body_syms, 8u * 1504u);  // BPSK: 1 bit/symbol
  EXPECT_EQ(l.total_syms, 32u + 48u + 12032u);
  EXPECT_EQ(l.body_begin(), 80u);

  h.payload_mod = Modulation::QAM64;
  const FrameLayout l64 = layout_for(h);
  EXPECT_EQ(l64.body_syms, (8u * 1504u + 5u) / 6u);
}

TEST(Frame, PackUnpackRoundTrip) {
  Rng rng(5);
  const Bytes data = rng.bytes(123);
  EXPECT_EQ(pack_bytes(unpack_bits(data)), data);
}

TEST(Transmitter, FrameStructure) {
  Rng rng(6);
  FrameHeader h;
  h.sender_id = 3;
  h.seq = 42;
  h.payload_bytes = 200;
  const TxFrame f = build_frame(h, rng.bytes(200));
  EXPECT_EQ(f.symbols.size(), f.layout.total_syms);
  // Starts with the preamble.
  const CVec& pre = preamble();
  for (std::size_t i = 0; i < pre.size(); ++i) EXPECT_EQ(f.symbols[i], pre[i]);
  // air_bits = header + body bits.
  EXPECT_EQ(f.air_bits().size(), kHeaderBits + f.layout.body_bits);
}

TEST(Transmitter, RejectsPayloadSizeMismatch) {
  FrameHeader h;
  h.payload_bytes = 10;
  EXPECT_THROW(build_frame(h, Bytes(9)), std::invalid_argument);
}

TEST(Transmitter, BodyCrcValidatesAndRejects) {
  Rng rng(7);
  FrameHeader h;
  h.seq = 9;
  h.payload_bytes = 64;
  const Bytes payload = rng.bytes(64);
  const TxFrame f = build_frame(h, payload);
  Scrambler scr(scrambler_seed_for(h.seq));
  Bits descrambled = scr.apply(f.body_bits);
  EXPECT_TRUE(body_crc_ok(descrambled));
  EXPECT_EQ(body_payload(descrambled), payload);
  descrambled[17] ^= 1;
  EXPECT_FALSE(body_crc_ok(descrambled));
}

TEST(Transmitter, RetryFlagFlipsHeaderOnly) {
  Rng rng(8);
  FrameHeader h;
  h.seq = 11;
  h.payload_bytes = 50;
  const TxFrame a = build_frame(h, rng.bytes(50));
  const TxFrame b = with_retry(a, true);
  EXPECT_TRUE(b.header.retry);
  EXPECT_EQ(a.payload, b.payload);
  ASSERT_EQ(a.symbols.size(), b.symbols.size());
  // Body symbols identical; only header symbols (retry + HCS bits) differ.
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.symbols.size(); ++i)
    if (std::abs(a.symbols[i] - b.symbols[i]) > 1e-12) {
      ++diffs;
      EXPECT_GE(i, kPreambleLength);
      EXPECT_LT(i, kPreambleLength + kHeaderBits);
    }
  EXPECT_GE(diffs, 1u);
  EXPECT_LE(diffs, 9u);  // retry bit + up to 8 HCS bits
}

// ---------------------------------------------------------------------------
// Standard receiver end-to-end.
// ---------------------------------------------------------------------------

struct RxCase {
  double snr_db;
  std::size_t payload;
  Modulation mod;
};

class ReceiverSweep : public ::testing::TestWithParam<RxCase> {};

TEST_P(ReceiverSweep, DecodesCleanPacketThroughImpairedChannel) {
  const RxCase c = GetParam();
  Rng rng(0x900d + static_cast<std::uint64_t>(c.snr_db * 10) + c.payload);

  FrameHeader h;
  h.sender_id = 7;
  h.seq = 21;
  h.payload_mod = c.mod;
  h.payload_bytes = static_cast<std::uint16_t>(c.payload);
  const Bytes payload = rng.bytes(c.payload);
  const TxFrame f = build_frame(h, payload);

  chan::ImpairmentConfig icfg;
  icfg.snr_db = c.snr_db;
  icfg.freq_offset_max = 2e-3;
  const auto cp = chan::random_channel(rng, icfg);
  const CVec rx = chan::clean_reception(rng, f.symbols, cp);

  // Association first (same sender, separate clean packet) to learn ISI.
  // Management frames go out at base rate — BPSK — like real 802.11.
  FrameHeader ah = h;
  ah.seq = 1;
  ah.payload_mod = Modulation::BPSK;
  const TxFrame af = build_frame(ah, rng.bytes(c.payload));
  auto acp = chan::retransmission_channel(rng, cp, 0.0);
  const CVec arx = chan::clean_reception(rng, af.symbols, acp);

  const StandardReceiver receiver;
  const SenderProfile profile = receiver.associate(arx, 7);
  EXPECT_NEAR(profile.freq_offset, cp.freq_offset, 1e-4);
  EXPECT_NEAR(profile.snr_db, c.snr_db, 3.5);

  const PacketDecode d = receiver.decode(rx, &profile);
  ASSERT_TRUE(d.detected);
  ASSERT_TRUE(d.header_ok);
  EXPECT_EQ(d.header, h);
  EXPECT_TRUE(d.crc_ok) << "SNR=" << c.snr_db;
  EXPECT_EQ(d.payload, payload);
  EXPECT_LT(bit_error_rate(f.air_bits(), d.air_bits), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReceiverSweep,
    ::testing::Values(RxCase{10.0, 200, Modulation::BPSK},
                      RxCase{14.0, 500, Modulation::BPSK},
                      RxCase{20.0, 200, Modulation::QPSK},
                      RxCase{24.0, 400, Modulation::QAM16},
                      RxCase{30.0, 200, Modulation::QAM64},
                      RxCase{12.0, 1500, Modulation::BPSK}));

// ---------------------------------------------------------------------------
// Chunk decoder: tracking edge cases.
// ---------------------------------------------------------------------------

TEST(ChunkDecoder, ShortBlockUpdatesTiming) {
  // A <=2-symbol block (short tail chunk) used to skip the timing-error
  // estimator entirely — its central-difference loop was empty — while
  // still applying phase/amplitude corrections. The degenerate block now
  // uses the one-sided slope: a known sampling offset must pull mu toward
  // the truth.
  CVec syms = {cplx{1.0, 0.0}, cplx{-1.0, 0.0}};
  chan::ChannelParams cp;
  cp.h = {1.0, 0.0};
  cp.mu = 0.3;  // true sampling offset the estimate does not know about
  CVec buf(96, cplx{0.0, 0.0});
  chan::add_signal(buf, 32, syms, cp);

  LinkEstimate est;  // mu = 0: sampling early by 0.3 samples
  std::vector<SymbolSpec> specs(2);
  specs[0] = {Modulation::BPSK, syms[0]};
  specs[1] = {Modulation::BPSK, syms[1]};
  const ChunkDecoder dec;
  (void)dec.decode(buf, 32, 0, 2, specs, est);
  EXPECT_GT(est.params.mu, 0.01) << "degenerate block left mu untouched";
  EXPECT_LT(est.params.mu, 0.3 + 0.05);
}

TEST(ChunkDecoder, NoiseEwmaSeedsFromFirstMeasurement) {
  Rng rng(77);
  FrameHeader h;
  h.payload_bytes = 80;
  const TxFrame f = build_frame(h, rng.bytes(80));
  chan::ChannelParams cp;
  cp.h = std::sqrt(db_to_lin(12.0)) * rng.unit_phasor();
  cp.mu = 0.1;
  const CVec rx = chan::clean_reception(rng, f.symbols, cp);
  const auto pe = estimate_at_peak(rx, 64, 0.0);

  LinkEstimate est;
  est.params.h = pe.h;
  est.params.mu = pe.mu;
  est.noise_var = 123.0;  // prior of a different scale must not leak in
  ASSERT_FALSE(est.noise_seeded);

  const std::size_t total = layout_for(h).total_syms;
  std::vector<SymbolSpec> specs(total);
  const CVec& pre = preamble(kPreambleLength);
  for (std::size_t k = 0; k < total; ++k) {
    specs[k].mod = Modulation::BPSK;
    if (k < pre.size()) specs[k].pilot = pre[k];
  }

  const ChunkDecoder dec;
  const auto first =
      dec.decode(rx, pe.origin, 0, 64, {specs.data(), 64}, est);
  EXPECT_TRUE(est.noise_seeded);
  EXPECT_DOUBLE_EQ(est.noise_var, first.noise_var);  // seeded, not blended

  const double prev = est.noise_var;
  const auto second =
      dec.decode(rx, pe.origin, 64, 128, {specs.data() + 64, 64}, est);
  EXPECT_DOUBLE_EQ(est.noise_var, 0.9 * prev + 0.1 * second.noise_var);
}

// ---------------------------------------------------------------------------
// Chunk decoder: the scalar reference.
// ---------------------------------------------------------------------------

/// ChunkDecoder::decode one symbol at a time, from scratch: every pass
/// fetches all of its raw symbols (no guard reuse), each through the
/// per-position interpolator (at(), bit-identical to at_batch by contract),
/// the scalar de-rotation and normalization, and Fir::at with its bounds
/// test; then the serial slicer and tracker. The division by the real |ĥ|²
/// is spelled out per part, as the optimizer lowers complex / real.
ChunkDecoder::Result reference_chunk_decode(
    const TrackingGains& gains, std::size_t half_width, const CVec& buf,
    std::ptrdiff_t origin, std::size_t k0, std::size_t k1,
    std::span<const SymbolSpec> specs, LinkEstimate& est, bool backward) {
  const sig::SincInterpolator interp(half_width);
  const std::size_t n = k1 - k0;
  ChunkDecoder::Result out;
  out.soft.assign(n, cplx{});
  out.decided.assign(n, cplx{});
  if (n == 0) return out;
  const auto raw = [&](std::ptrdiff_t m0, std::ptrdiff_t m1) {
    const auto& p = est.params;
    CVec z(static_cast<std::size_t>(m1 - m0));
    const double hn = std::norm(p.h);
    for (std::ptrdiff_t m = m0; m < m1; ++m) {
      const double rel =
          chan::kSps * static_cast<double>(m) * (1.0 + p.drift) + p.mu;
      const cplx v = interp.at(buf, static_cast<double>(origin) + rel);
      const double phi = -kTwoPi * p.freq_offset * rel;
      const cplx derot = v * cplx{std::cos(phi), std::sin(phi)};
      cplx r = derot;
      if (hn > 1e-18) {
        const cplx g = derot * std::conj(p.h);
        r = {g.real() / hn, g.imag() / hn};
      }
      z[static_cast<std::size_t>(m - m0)] = r;
    }
    return z;
  };
  const std::size_t guard =
      std::max(est.equalizer.pre(), est.equalizer.post());
  const std::size_t nblocks = (n + gains.block - 1) / gains.block;
  double resid_acc = 0.0;
  std::size_t resid_cnt = 0;
  for (std::size_t bi = 0; bi < nblocks; ++bi) {
    const std::size_t b = backward ? nblocks - 1 - bi : bi;
    const std::size_t bk0 = k0 + b * gains.block;
    const std::size_t bk1 = std::min(k1, bk0 + gains.block);
    const std::size_t bn = bk1 - bk0;
    for (int pass = 0; pass < 2; ++pass) {
      const auto m0 = static_cast<std::ptrdiff_t>(bk0) -
                      static_cast<std::ptrdiff_t>(guard);
      const CVec z = raw(m0, static_cast<std::ptrdiff_t>(bk1 + guard));
      CVec zeq(bn), dec(bn);
      for (std::size_t i = 0; i < bn; ++i) {
        const std::size_t k = bk0 + i;
        zeq[i] = est.equalizer.at(z, static_cast<std::ptrdiff_t>(k) - m0);
        const auto& spec = specs[k - k0];
        dec[i] = spec.pilot ? *spec.pilot
                            : Modulator(spec.mod).nearest_point(zeq[i]);
      }
      if (pass == 1 || !gains.enabled) {
        for (std::size_t i = 0; i < bn; ++i) {
          out.soft[bk0 + i - k0] = zeq[i];
          out.decided[bk0 + i - k0] = dec[i];
          resid_acc += std::norm(zeq[i] - dec[i]);
          ++resid_cnt;
        }
        break;
      }
      cplx corr{0.0, 0.0};
      double dpow = 0.0;
      for (std::size_t i = 0; i < bn; ++i) {
        corr += zeq[i] * std::conj(dec[i]);
        dpow += std::norm(dec[i]);
      }
      if (dpow < 1e-12) break;
      const double phase_err = std::arg(corr);
      const double amp_ratio = std::abs(corr) / dpow;
      double terr_num = 0.0, terr_den = 0.0;
      if (bn >= 3) {
        for (std::size_t i = 1; i + 1 < bn; ++i) {
          const cplx slope = 0.5 * (dec[i + 1] - dec[i - 1]);
          terr_num += std::real(std::conj(slope) * (zeq[i] - dec[i]));
          terr_den += std::norm(slope);
        }
      } else if (bn == 2) {
        const cplx slope = dec[1] - dec[0];
        terr_num += std::real(std::conj(slope) * (zeq[0] - dec[0]));
        terr_num += std::real(std::conj(slope) * (zeq[1] - dec[1]));
        terr_den += 2.0 * std::norm(slope);
      }
      const double timing_err = terr_den > 1e-9 ? -terr_num / terr_den : 0.0;
      auto& p = est.params;
      const double dphi = gains.phase * phase_err;
      p.h *= cplx{std::cos(dphi), std::sin(dphi)};
      const double damp = 1.0 + gains.amplitude * (amp_ratio - 1.0);
      p.h *= std::clamp(damp, 0.5, 2.0);
      const double df =
          gains.freq * phase_err /
          (kTwoPi * chan::kSps * static_cast<double>(gains.block));
      const double df_applied = backward ? -df : df;
      p.freq_offset += df_applied;
      const double rel_center =
          chan::kSps *
              (static_cast<double>(bk0) + 0.5 * static_cast<double>(bn)) *
              (1.0 + p.drift) +
          p.mu;
      const double comp = -kTwoPi * df_applied * rel_center;
      p.h *= cplx{std::cos(comp), std::sin(comp)};
      p.mu += std::clamp(gains.timing * timing_err, -0.1, 0.1);
    }
  }
  out.noise_var = resid_cnt ? resid_acc / static_cast<double>(resid_cnt) : 0.0;
  if (!est.noise_seeded) {
    est.noise_var = out.noise_var;
    est.noise_seeded = true;
  } else {
    est.noise_var = 0.9 * est.noise_var + 0.1 * out.noise_var;
  }
  return out;
}

::testing::AssertionResult same_bits(cplx a, cplx b) {
  return test::bits_equal_or_nan(a, b);
}

/// Every output of a decode and the estimate it leaves, bit for bit (a NaN
/// matching any NaN, see test::bits_equal_or_nan).
::testing::AssertionResult same_decode(const ChunkDecoder::Result& got,
                                       const LinkEstimate& got_est,
                                       const ChunkDecoder::Result& want,
                                       const LinkEstimate& want_est) {
  if (got.soft.size() != want.soft.size() ||
      got.decided.size() != want.decided.size())
    return ::testing::AssertionFailure() << "result sizes differ";
  for (std::size_t i = 0; i < want.soft.size(); ++i) {
    if (auto r = same_bits(got.soft[i], want.soft[i]); !r)
      return r << " soft[" << i << "]";
    if (auto r = same_bits(got.decided[i], want.decided[i]); !r)
      return r << " decided[" << i << "]";
  }
  const std::pair<double, double> scalars[] = {
      {got.noise_var, want.noise_var},
      {got_est.params.freq_offset, want_est.params.freq_offset},
      {got_est.params.mu, want_est.params.mu},
      {got_est.params.drift, want_est.params.drift},
      {got_est.noise_var, want_est.noise_var}};
  for (const auto& [g, w] : scalars)
    if (auto r = same_bits(cplx{g, 0.0}, cplx{w, 0.0}); !r)
      return r << " (scalar output)";
  if (auto r = same_bits(got_est.params.h, want_est.params.h); !r)
    return r << " h";
  if (got_est.noise_seeded != want_est.noise_seeded)
    return ::testing::AssertionFailure() << "noise_seeded differs";
  return ::testing::AssertionSuccess();
}

/// A random equalizer shape for config c: identity, 3 taps (pre 1), 7 taps
/// (pre 3), or an asymmetric 4-tap (pre 0) / 5-tap (pre 3) filter.
sig::Fir random_equalizer(Rng& rng, int shape) {
  static constexpr std::size_t kLen[] = {1, 3, 7, 4, 5};
  static constexpr std::size_t kPre[] = {0, 1, 3, 0, 3};
  if (shape == 0) return sig::Fir();
  std::vector<cplx> taps(kLen[shape]);
  for (std::size_t i = 0; i < taps.size(); ++i)
    taps[i] = (i == kPre[shape] ? cplx{1.0, 0.0} : cplx{}) +
              rng.uniform(0.0, 0.3) * rng.unit_phasor();
  return sig::Fir(std::move(taps), kPre[shape]);
}

TEST(ChunkDecoder, MatchesScalarReferenceOnSeededConfigurations) {
  // 2,400 seeded decodes against the scalar reference, on every SIMD route
  // (CPU dispatch, AVX2 cap, portable cap): every modulation, mixed and
  // with pilots (zero pilots too, which skip a block's tracking); forward
  // and backward; tracking on and off; block sizes 1, 2, 3, 16, 17 with
  // tail blocks and chunks starting past symbol 0; identity, 3-, 7-tap and
  // asymmetric equalizers; half widths 1, 3, 8; drift 0 and not, so the
  // weight key changes inside a block; integer positions, whose windows
  // have an odd tap count; windows clipped at both buffer edges; |ĥ|² ≤
  // 1e-18; and Inf and NaN samples in the buffer, some of whose complex
  // products take the C99 Annex G recovery.
  constexpr Modulation kMods[] = {Modulation::BPSK, Modulation::QPSK,
                                  Modulation::QAM16, Modulation::QAM64};
  constexpr std::size_t kBlocks[] = {1, 2, 3, 16, 17};
  constexpr std::size_t kHalfWidths[] = {8, 8, 3, 1};
  Rng rng(0xc0de);
  for (int c = 0; c < 2400; ++c) {
    TrackingGains gains;
    gains.block = kBlocks[c % 5];
    gains.enabled = c % 7 != 0;
    const std::size_t half = kHalfWidths[(c / 5) % 4];
    const bool backward = (c / 20) % 2 == 1;
    const Modulation mod = kMods[(c / 40) % 4];
    const bool mixed = c % 11 == 0;

    // The packet, rendered into a noisy buffer that may clip it at either
    // end: early symbols' windows start before sample 0 when the lead is
    // short, and late ones run past the end when the buffer is short.
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, 120));
    CVec syms(len);
    std::vector<SymbolSpec> all(len);
    for (std::size_t k = 0; k < len; ++k) {
      const Modulation m =
          mixed ? kMods[static_cast<std::size_t>(rng.uniform_int(0, 3))] : mod;
      const Modulator mo(m);
      syms[k] = mo.map(static_cast<unsigned>(rng.uniform_int(0, 63)));
      all[k].mod = m;
      if (k < 8 || rng.uniform() < 0.05) all[k].pilot = syms[k];
    }
    if (c % 13 == 0)  // a run of zero pilots: dpow = 0 skips tracking
      for (std::size_t k = 0; k < std::min<std::size_t>(len, 20); ++k)
        all[k].pilot = cplx{0.0, 0.0};
    chan::ChannelParams truth;
    truth.h = rng.uniform(0.3, 3.0) * rng.unit_phasor();
    truth.freq_offset = rng.uniform(-2e-3, 2e-3);
    truth.mu = rng.uniform(-0.5, 0.5);
    truth.drift = c % 3 == 0 ? rng.uniform(-1e-3, 1e-3) : 0.0;
    const auto lead = rng.uniform_int(0, 30);
    const auto tail = rng.uniform_int(-40, 30);
    const auto buf_len = static_cast<std::size_t>(std::max<std::int64_t>(
        8, lead + 2 * static_cast<std::int64_t>(len) + tail));
    CVec buf(buf_len);
    for (auto& v : buf) v = rng.gaussian_c(0.05);
    chan::add_signal(buf, lead, syms, truth, 1.0, half);
    if (c % 25 == 3)
      buf[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(buf_len) - 1))] =
          cplx{std::numeric_limits<double>::infinity(), 0.5};
    if (c % 25 == 7)
      buf[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(buf_len) - 1))] =
          cplx{0.25, std::numeric_limits<double>::quiet_NaN()};
    if (c % 50 == 11) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(buf_len) - 2));
      buf[at] = cplx{-std::numeric_limits<double>::infinity(), 1.0};
      buf[at + 1] = cplx{std::numeric_limits<double>::quiet_NaN(), 0.0};
    }
    if (c % 50 == 23) {  // products that take the Annex G recovery
      const double inf = std::numeric_limits<double>::infinity();
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(buf_len) - 1));
      buf[at] = c % 100 == 23
                    ? cplx{inf, -inf}
                    : cplx{std::numeric_limits<double>::quiet_NaN(), inf};
    }

    // The receiver's estimate: the truth, perturbed.
    LinkEstimate est0;
    est0.params.h = truth.h * rng.uniform(0.8, 1.25) *
                    std::polar(1.0, rng.uniform(-0.3, 0.3));
    if (c % 31 == 5) est0.params.h = 1e-10 * rng.unit_phasor();  // |ĥ|² ≤ 1e-18
    est0.params.freq_offset = truth.freq_offset + rng.uniform(-1e-4, 1e-4);
    est0.params.mu = truth.mu + rng.uniform(-0.2, 0.2);
    if (c % 17 == 0) est0.params.mu = 0.0;  // integer positions: odd windows
    est0.params.drift = truth.drift;
    est0.equalizer = random_equalizer(rng, static_cast<int>((c / 3) % 5));
    est0.noise_var = rng.uniform(0.01, 2.0);
    est0.noise_seeded = c % 2 == 0;

    const auto k0 = static_cast<std::size_t>(
        c % 4 == 0 ? 0 : rng.uniform_int(0, static_cast<std::int64_t>(len)));
    const auto k1 = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(k0),
                        static_cast<std::int64_t>(len)));
    const std::span<const SymbolSpec> specs{all.data() + k0, len - k0};

    LinkEstimate want_est = est0;
    const auto want = reference_chunk_decode(gains, half, buf, lead, k0, k1,
                                             specs, want_est, backward);
    const ChunkDecoder dec(gains, half);
    for (const int width : {0, 4, 2}) {
      sig::set_simd_width_for_test(width);
      LinkEstimate got_est = est0;
      const auto got = dec.decode(buf, lead, k0, k1, specs, got_est, backward);
      sig::set_simd_width_for_test(0);
      ASSERT_TRUE(same_decode(got, got_est, want, want_est))
          << "config=" << c << " width=" << width << " len=" << len
          << " k0=" << k0 << " k1=" << k1 << " block=" << gains.block
          << " half=" << half << " backward=" << backward;
    }
  }
}

TEST(Receiver, NoiseFloorEstimate) {
  Rng rng(9);
  CVec rx(600, cplx{});
  for (auto& s : rx) s = rng.gaussian_c(2.0);
  for (std::size_t i = 200; i < 500; ++i) rx[i] += cplx{8.0, 0.0};
  EXPECT_NEAR(estimate_noise_floor(rx), 2.0, 0.8);
}

TEST(Receiver, NoDetectionOnPureNoise) {
  Rng rng(10);
  CVec rx(2000, cplx{});
  for (auto& s : rx) s = rng.gaussian_c(1.0);
  const StandardReceiver receiver;
  SenderProfile p;
  p.snr_db = 10.0;
  EXPECT_FALSE(receiver.decode(rx, &p).detected);
}

TEST(Receiver, PreambleEstimateAccuracy) {
  Rng rng(11);
  FrameHeader h;
  h.payload_bytes = 100;
  const TxFrame f = build_frame(h, rng.bytes(100));

  chan::ChannelParams cp;
  cp.h = std::sqrt(db_to_lin(15.0)) * rng.unit_phasor();
  cp.freq_offset = 8e-4;
  cp.mu = 0.21;
  const CVec rx = chan::clean_reception(rng, f.symbols, cp, 64, 32, 1.0);

  const auto pe = estimate_at_peak(rx, 64, 0.0, kPreambleLength);
  EXPECT_LT(std::abs(pe.h - cp.h) / std::abs(cp.h), 0.25);
  EXPECT_NEAR(pe.freq_offset, cp.freq_offset, 3e-4);
  EXPECT_NEAR(pe.mu, cp.mu, 0.15);
}

TEST(Receiver, TrackingSurvivesLongPacketWithResidualOffset) {
  // 1500-byte packet with a frequency offset: phase accumulates over 12k
  // symbols; without tracking this would rotate far past π/2 (Fig 5-2a).
  Rng rng(12);
  FrameHeader h;
  h.payload_bytes = 1500;
  const Bytes payload = rng.bytes(1500);
  const TxFrame f = build_frame(h, payload);

  chan::ChannelParams cp;
  cp.h = std::sqrt(db_to_lin(12.0)) * rng.unit_phasor();
  cp.freq_offset = 5e-5;  // residual after coarse correction
  cp.mu = -0.3;
  const CVec rx = chan::clean_reception(rng, f.symbols, cp);

  const StandardReceiver receiver;  // tracking on by default
  const PacketDecode d = receiver.decode(rx, nullptr);
  ASSERT_TRUE(d.header_ok);
  EXPECT_TRUE(d.crc_ok);
  // The tracker should have converged to the true offset.
  EXPECT_NEAR(d.est.params.freq_offset, cp.freq_offset, 5e-5);
}

TEST(Receiver, TrackingDisabledFailsOnLongPacket) {
  Rng rng(13);
  FrameHeader h;
  h.payload_bytes = 1500;
  const TxFrame f = build_frame(h, rng.bytes(1500));

  chan::ChannelParams cp;
  cp.h = std::sqrt(db_to_lin(12.0)) * rng.unit_phasor();
  cp.freq_offset = 5e-5;
  const CVec rx = chan::clean_reception(rng, f.symbols, cp);

  ReceiverConfig cfg;
  cfg.gains.enabled = false;  // ablation: no phase/timing tracking
  const StandardReceiver receiver(cfg);
  const PacketDecode d = receiver.decode(rx, nullptr);
  // The packet cannot pass CRC: accumulated rotation flips late bits.
  EXPECT_FALSE(d.crc_ok);
}

}  // namespace
}  // namespace zz::phy
