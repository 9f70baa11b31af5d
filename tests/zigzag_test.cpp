// Tests for the ZigZag core: the greedy scheduler (§4.5), collision
// detector (§4.2.1), matcher (§4.2.2), the full iterative decoder
// (§4.2.3-4.2.4, §4.3) across the collision patterns of Fig 4-1, and the
// receiver pipeline of §5.1(d).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "zz/chan/channel.h"
#include "zz/common/mathutil.h"
#include "zz/common/rng.h"
#include "zz/common/thread_pool.h"
#include "zz/signal/scratch.h"
#include "zz/emu/collision.h"
#include "zz/phy/receiver.h"
#include "zz/phy/transmitter.h"
#include "zz/zigzag/decoder.h"
#include "zz/zigzag/detector.h"
#include "zz/zigzag/matcher.h"
#include "zz/zigzag/receiver.h"
#include "zz/zigzag/scheduler.h"

namespace zz::zigzag {
namespace {

using phy::Modulation;

// ---------------------------------------------------------------------------
// Greedy scheduler (§4.5) on abstract patterns.
// ---------------------------------------------------------------------------

TEST(Scheduler, ClassicHiddenTerminalPair) {
  // Fig 1-2: two collisions of the same two packets at different offsets.
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 30}}, {{0, 0}, {1, 70}}};
  const auto r = greedy_schedule(p);
  EXPECT_TRUE(r.complete);
  ASSERT_FALSE(r.steps.empty());
  // Bootstrap chunk: packet 0's head in the collision with the larger
  // interference-free stretch.
  EXPECT_EQ(r.steps[0].packet, 0u);
  EXPECT_EQ(r.steps[0].k0, 0u);
}

TEST(Scheduler, IdenticalOffsetsFail) {
  // Same offsets in both collisions: the linear system is singular.
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 40}}, {{0, 0}, {1, 40}}};
  const auto r = greedy_schedule(p);
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(pairwise_condition_holds(p));
}

TEST(Scheduler, SingleCollisionOnlyOverhangs) {
  // One collision: only the interference-free head and tail decode.
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 40}}};
  const auto r = greedy_schedule(p);
  EXPECT_FALSE(r.complete);
  // Packet 0's head [0,40) and packet 1's tail [60,100) are decodable.
  std::size_t head = 0, tail = 0;
  for (const auto& s : r.steps) {
    if (s.packet == 0 && s.k0 == 0) head = s.k1;
    if (s.packet == 1 && s.k1 == 100) tail = s.k0;
  }
  EXPECT_EQ(head, 40u);
  EXPECT_EQ(tail, 60u);
}

TEST(Scheduler, FlippedOrder) {
  // Fig 4-1(b): packets change order between collisions.
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 35}}, {{1, 0}, {0, 55}}};
  EXPECT_TRUE(greedy_schedule(p).complete);
}

TEST(Scheduler, DifferentSizes) {
  // Fig 4-1(c): different packet sizes.
  Pattern p;
  p.lengths = {150, 60};
  p.collisions = {{{0, 0}, {1, 20}}, {{0, 0}, {1, 90}}};
  EXPECT_TRUE(greedy_schedule(p).complete);
}

TEST(Scheduler, ThreeCollisionsThreeSenders) {
  // Fig 4-6(a).
  Pattern p;
  p.lengths = {100, 100, 100};
  p.collisions = {{{0, 0}, {1, 20}, {2, 50}},
                  {{0, 0}, {1, 60}, {2, 20}},
                  {{0, 0}, {1, 40}, {2, 80}}};
  EXPECT_TRUE(pairwise_condition_holds(p));
  EXPECT_TRUE(greedy_schedule(p).complete);
}

TEST(Scheduler, FourPacketChainOfPairwiseCollisions) {
  // Fig 6-1(b): four packets, four collisions, never more than two at a
  // time; decodable by the same greedy principle.
  Pattern p;
  p.lengths = {100, 100, 100, 100};
  p.collisions = {{{0, 0}, {1, 30}},
                  {{1, 0}, {2, 45}},
                  {{2, 0}, {3, 25}},
                  {{3, 0}, {0, 60}}};
  EXPECT_TRUE(greedy_schedule(p).complete);
}

TEST(Scheduler, GuardShrinksChunks) {
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 30}}, {{0, 0}, {1, 70}}};
  const auto r = greedy_schedule(p, 4);
  EXPECT_TRUE(r.complete);         // still decodable,
  const auto r0 = greedy_schedule(p, 0);
  EXPECT_GE(r.steps.size(), r0.steps.size());  // in no fewer chunks
}

TEST(Scheduler, PairwiseConditionVacuousWhenApart) {
  // A packet appearing alone in some collision breaks ties trivially.
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 40}}, {{1, 0}}};
  EXPECT_TRUE(pairwise_condition_holds(p));
  EXPECT_TRUE(greedy_schedule(p).complete);
}

// ---------------------------------------------------------------------------
// Waveform-level fixtures.
// ---------------------------------------------------------------------------

struct Party {
  phy::TxFrame frame;
  chan::ChannelParams channel;
  phy::SenderProfile profile;
};

// A sender with a synthesized profile as association would have produced:
// the coarse frequency offset is the truth plus oscillator jitter, and the
// ISI estimate is the true filter (associate() is tested separately).
Party make_party(Rng& rng, std::uint8_t id, std::uint16_t seq,
                 std::size_t payload_bytes, double snr_db,
                 Modulation mod = Modulation::BPSK, bool enable_isi = true,
                 double freq_jitter = 1e-5) {
  Party p;
  phy::FrameHeader h;
  h.sender_id = id;
  h.seq = seq;
  h.payload_mod = mod;
  h.payload_bytes = static_cast<std::uint16_t>(payload_bytes);
  p.frame = phy::build_frame(h, rng.bytes(payload_bytes));

  chan::ImpairmentConfig icfg;
  icfg.snr_db = snr_db;
  icfg.freq_offset_max = 2e-3;
  icfg.enable_isi = enable_isi;
  p.channel = chan::random_channel(rng, icfg);

  p.profile.id = id;
  p.profile.freq_offset =
      p.channel.freq_offset + rng.uniform(-freq_jitter, freq_jitter);
  p.profile.snr_db = snr_db;
  p.profile.mod = mod;
  if (enable_isi) {
    p.profile.isi = p.channel.isi;
    p.profile.equalizer = p.channel.isi.inverse(7, 3);
  }
  return p;
}

Detection detect_at(const CVec& rx, std::ptrdiff_t origin,
                    const phy::SenderProfile& prof, int profile_index) {
  const auto pe = phy::estimate_at_peak(rx, static_cast<std::size_t>(origin),
                                        prof.freq_offset);
  Detection d;
  d.origin = pe.origin;
  d.mu = pe.mu;
  d.h = pe.h;
  d.freq_offset = prof.freq_offset;
  d.metric = pe.metric;
  d.profile_index = profile_index;
  return d;
}

// Build the canonical hidden-terminal experiment: two packets collide twice
// at sample offsets (d1, d2) for the second sender.
struct PairScenario {
  emu::Reception c1, c2;
  Party alice, bob;
  std::vector<phy::SenderProfile> profiles;
  CollisionInput in1, in2;
};

PairScenario make_pair_scenario(Rng& rng, std::size_t payload, double snr_db,
                                std::ptrdiff_t d1, std::ptrdiff_t d2,
                                bool enable_isi = true,
                                double freq_jitter = 1e-5,
                                Modulation mod = Modulation::BPSK) {
  PairScenario s;
  s.alice = make_party(rng, 1, 100, payload, snr_db, mod, enable_isi, freq_jitter);
  s.bob = make_party(rng, 2, 200, payload, snr_db, mod, enable_isi, freq_jitter);

  s.c1 = emu::CollisionBuilder()
             .lead(64)
             .add(s.alice.frame, s.alice.channel, 0)
             .add(s.bob.frame, s.bob.channel, d1)
             .build(rng);
  auto a2 = chan::retransmission_channel(rng, s.alice.channel, 0.0);
  auto b2 = chan::retransmission_channel(rng, s.bob.channel, 0.0);
  const auto alice_retx = phy::with_retry(s.alice.frame, true);
  const auto bob_retx = phy::with_retry(s.bob.frame, true);
  s.c2 = emu::CollisionBuilder()
             .lead(64)
             .add(alice_retx, a2, 0)
             .add(bob_retx, b2, d2)
             .build(rng);

  s.profiles = {s.alice.profile, s.bob.profile};

  s.in1.samples = &s.c1.samples;
  s.in1.is_retransmission = false;
  s.in1.placements = {
      {0, detect_at(s.c1.samples, s.c1.truth[0].start, s.alice.profile, 0)},
      {1, detect_at(s.c1.samples, s.c1.truth[1].start, s.bob.profile, 1)}};
  s.in2.samples = &s.c2.samples;
  s.in2.is_retransmission = true;
  s.in2.placements = {
      {0, detect_at(s.c2.samples, s.c2.truth[0].start, s.alice.profile, 0)},
      {1, detect_at(s.c2.samples, s.c2.truth[1].start, s.bob.profile, 1)}};
  return s;
}

double packet_ber(const phy::TxFrame& truth, const PacketResult& r) {
  if (!r.header_ok) return 1.0;
  // The decoder reports whichever retry-flag variant it decoded; score
  // against the matching variant (the copies differ only in that flag and
  // the header checksum bits it feeds, §4.2.2).
  const phy::TxFrame& ref = truth.header.retry == r.header.retry
                                ? truth
                                : phy::with_retry(truth, r.header.retry);
  return bit_error_rate(ref.air_bits(), r.air_bits);
}

// The paper's delivery criterion (§5.1f): a packet counts as correctly
// received when its uncoded BER is below 1e-3 (practical channel codes then
// deliver it error-free; our prototype, like the paper's, sends uncoded).
::testing::AssertionResult delivered(const phy::TxFrame& truth,
                                     const PacketResult& r) {
  if (!r.header_ok) return ::testing::AssertionFailure() << "header not decoded";
  const double ber = packet_ber(truth, r);
  if (ber < 1e-3) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "BER " << ber;
}

// ---------------------------------------------------------------------------
// Detector and matcher.
// ---------------------------------------------------------------------------

TEST(Detector, FindsBothPacketStarts) {
  Rng rng(21);
  auto s = make_pair_scenario(rng, 200, 12.0, 150, 420);
  const CollisionDetector det;
  const auto found = det.detect(s.c1.samples, s.profiles);
  ASSERT_GE(found.size(), 2u);
  EXPECT_NEAR(static_cast<double>(found[0].origin),
              static_cast<double>(s.c1.truth[0].start), 2.0);
  EXPECT_NEAR(static_cast<double>(found[1].origin),
              static_cast<double>(s.c1.truth[1].start), 2.0);
}

TEST(Detector, NoDetectionsOnNoise) {
  Rng rng(22);
  CVec noise(4000);
  for (auto& v : noise) v = rng.gaussian_c(1.0);
  phy::SenderProfile prof;
  prof.snr_db = 10.0;
  const CollisionDetector det;
  EXPECT_TRUE(det.detect(noise, {&prof, 1}).empty());
}

TEST(Detector, CorrelationProfileSpikesAtSecondPacket) {
  // Fig 4-2: the correlation spikes in the middle of the reception where
  // the colliding packet starts.
  Rng rng(23);
  auto s = make_pair_scenario(rng, 200, 12.0, 300, 500);
  const CollisionDetector det;
  const auto prof = det.correlation_profile(s.c1.samples,
                                            s.bob.profile.freq_offset);
  // The spike at Bob's start dominates the median level by a wide margin.
  const std::size_t bob_start = static_cast<std::size_t>(s.c1.truth[1].start);
  double spike = 0.0;
  for (std::size_t i = bob_start - 3; i <= bob_start + 3; ++i)
    spike = std::max(spike, prof[i]);
  std::vector<double> sorted = prof;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  EXPECT_GT(spike, 3.5 * median);
}

// Regression pins for the calibrated detector: at the paper's β = 0.65
// operating point, the false-positive and false-negative rates on a fixed
// seed set must stay near Table 5.1(a)'s 3.1% / 1.9%. The bounds carry
// slack for the small sample, but a mis-calibration like the one this
// guards against (90% FP) trips them immediately.
TEST(Detector, CalibratedFalsePositiveRate) {
  Rng rng(26);
  const std::size_t trials = 60;
  const CollisionDetector det;
  std::size_t fp = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    const double snr = rng.uniform(6.0, 20.0);
    auto lone = make_party(rng, 1, 7, 200, snr);
    const CVec rx = chan::clean_reception(rng, lone.frame.symbols, lone.channel);
    for (const auto& d : det.detect(rx, {&lone.profile, 1}))
      if (std::llabs(d.origin - 64) > 128) {
        ++fp;
        break;
      }
  }
  EXPECT_LE(fp, trials / 5) << "clean-packet FP rate drifted above 20%";
}

TEST(Detector, CalibratedFalseNegativeRate) {
  Rng rng(27);
  const std::size_t trials = 60;
  const CollisionDetector det;
  std::size_t fn = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    const double snr = rng.uniform(6.0, 20.0);
    auto s = make_pair_scenario(rng, 200, snr, 300, 700);
    bool found = false;
    for (const auto& d : det.detect(s.c1.samples, s.profiles))
      if (std::llabs(d.origin - s.c1.truth[1].start) <= 16) found = true;
    if (!found) ++fn;
  }
  EXPECT_LE(fn, trials / 8) << "buried-start FN rate drifted above 12.5%";
}

TEST(Detector, CaptureDisparityKeepsStrongStart) {
  // A 14 dB power disparity must not let the strong packet's data
  // excursions evict the true starts (the peak-height consistency metric
  // guards the max_detections cap).
  Rng rng(28);
  std::size_t strong_found = 0;
  const std::size_t trials = 10;
  const CollisionDetector det;
  for (std::size_t i = 0; i < trials; ++i) {
    auto strong = make_party(rng, 1, 1, 200, 26.0);
    auto weak = make_party(rng, 2, 2, 200, 12.0);
    auto c1 = emu::CollisionBuilder()
                  .lead(64)
                  .add(strong.frame, strong.channel, 0)
                  .add(weak.frame, weak.channel, 150)
                  .build(rng);
    std::vector<phy::SenderProfile> profiles{strong.profile, weak.profile};
    for (const auto& d : det.detect(c1.samples, profiles))
      if (std::llabs(d.origin - c1.truth[0].start) <= 2) {
        ++strong_found;
        break;
      }
  }
  EXPECT_GE(strong_found, trials - 1);
}

// Golden reference for §4.2.2: the textbook single-alignment normalized
// correlation, written independently of PacketMatcher's prepare/score split.
MatchScore match_same_packet(const CVec& rx1, std::ptrdiff_t start1,
                             const CVec& rx2, std::ptrdiff_t start2,
                             const MatchConfig& cfg = {}) {
  MatchScore out;
  const std::ptrdiff_t s1 = start1 + static_cast<std::ptrdiff_t>(cfg.skip);
  const std::ptrdiff_t s2 = start2 + static_cast<std::ptrdiff_t>(cfg.skip);
  if (s1 < 0 || s2 < 0) return out;

  const std::size_t n1 = rx1.size() > static_cast<std::size_t>(s1)
                             ? rx1.size() - static_cast<std::size_t>(s1)
                             : 0;
  const std::size_t n2 = rx2.size() > static_cast<std::size_t>(s2)
                             ? rx2.size() - static_cast<std::size_t>(s2)
                             : 0;
  const std::size_t span = std::min(cfg.span, std::min(n1, n2));
  if (span < 64) return out;  // not enough overlap to judge

  cplx acc{0.0, 0.0};
  double e1 = 0.0, e2 = 0.0;
  for (std::size_t i = 0; i < span; ++i) {
    const cplx a = rx1[static_cast<std::size_t>(s1) + i];
    const cplx b = rx2[static_cast<std::size_t>(s2) + i];
    acc += a * std::conj(b);
    e1 += std::norm(a);
    e2 += std::norm(b);
  }
  if (e1 < 1e-12 || e2 < 1e-12) return out;
  out.score = std::abs(acc) / std::sqrt(e1 * e2);
  out.matched = out.score >= cfg.threshold;
  return out;
}

TEST(Matcher, SamePacketMatchesAcrossCollisions) {
  Rng rng(24);
  auto s = make_pair_scenario(rng, 300, 10.0, 150, 400);
  PacketMatcher m;
  ASSERT_TRUE(m.prepare(s.c2.samples, s.c2.truth[1].start));
  const auto score = m.score(s.c1.samples, s.c1.truth[1].start);
  EXPECT_TRUE(score.matched);
  EXPECT_GT(score.score, 0.3);
}

TEST(Matcher, DifferentPacketsDoNotMatch) {
  Rng rng(25);
  auto s1 = make_pair_scenario(rng, 300, 10.0, 150, 400);
  auto s2 = make_pair_scenario(rng, 300, 10.0, 150, 400);
  PacketMatcher m;
  ASSERT_TRUE(m.prepare(s2.c1.samples, s2.c1.truth[1].start));
  const auto score = m.score(s1.c1.samples, s1.c1.truth[1].start);
  EXPECT_FALSE(score.matched);
}

// prepare() + score() must reproduce the single-alignment golden reference
// bit for bit in score and verdict, including truncated tail windows.
TEST(Matcher, EngineRouteMatchesNaiveGolden) {
  Rng rng(26);
  PacketMatcher engine;
  std::size_t compared = 0;
  for (int trial = 0; trial < 3; ++trial) {
    auto s = make_pair_scenario(rng, 300, 10.0, 150, 400);
    // Same-packet, cross-packet and noise-start hypotheses, plus starts
    // near the buffer tail where the compared span truncates.
    const std::ptrdiff_t starts1[] = {
        s.c1.truth[0].start, s.c1.truth[1].start,
        static_cast<std::ptrdiff_t>(s.c1.samples.size()) - 300};
    const std::ptrdiff_t starts2[] = {
        s.c2.truth[0].start, s.c2.truth[1].start, 3,
        static_cast<std::ptrdiff_t>(s.c2.samples.size()) - 280};
    for (const auto st2 : starts2) {
      ASSERT_TRUE(engine.prepare(s.c2.samples, st2)) << "st2=" << st2;
      for (const auto st1 : starts1) {
        const auto naive =
            match_same_packet(s.c1.samples, st1, s.c2.samples, st2);
        const auto fast = engine.score(s.c1.samples, st1);
        EXPECT_EQ(fast.score, naive.score) << "st1=" << st1 << " st2=" << st2;
        EXPECT_EQ(fast.matched, naive.matched)
            << "st1=" << st1 << " st2=" << st2;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 36u);
}

// Sample-in boundary: starts off either end of the buffer or too close to
// its tail are a defined reject (no match, no contract abort), and a
// rejected prepare() never leaves a stale window behind for score().
TEST(Matcher, OutOfRangeStartsReject) {
  Rng rng(27);
  auto s = make_pair_scenario(rng, 300, 20.0, 150, 400);
  const MatchConfig cfg;
  const auto skip = static_cast<std::ptrdiff_t>(cfg.skip);
  const auto n2 = static_cast<std::ptrdiff_t>(s.c2.samples.size());
  const std::ptrdiff_t st1 = s.c1.truth[1].start;
  const std::ptrdiff_t st2 = s.c2.truth[1].start;

  PacketMatcher m(cfg);
  EXPECT_FALSE(m.score(s.c1.samples, st1).matched);  // before any prepare

  EXPECT_FALSE(m.prepare(s.c2.samples, -skip - 1));
  EXPECT_FALSE(m.prepare(s.c2.samples, n2));
  EXPECT_FALSE(m.prepare(s.c2.samples, n2 - skip));
  EXPECT_FALSE(m.prepare(s.c2.samples, n2 - skip - 63));
  EXPECT_TRUE(m.prepare(s.c2.samples, n2 - skip - 64));
  EXPECT_FALSE(m.prepare(CVec{}, 0));

  ASSERT_TRUE(m.prepare(s.c2.samples, st2));
  EXPECT_TRUE(m.score(s.c1.samples, st1).matched);
  const auto n1 = static_cast<std::ptrdiff_t>(s.c1.samples.size());
  for (const std::ptrdiff_t bad : {-skip - 1, n1, n1 - skip - 63}) {
    const auto r = m.score(s.c1.samples, bad);
    EXPECT_FALSE(r.matched) << "st1=" << bad;
    EXPECT_EQ(r.score, 0.0) << "st1=" << bad;
  }

  // A failed prepare() drops the previous window.
  EXPECT_FALSE(m.prepare(s.c2.samples, n2));
  const auto stale = m.score(s.c1.samples, st1);
  EXPECT_FALSE(stale.matched);
  EXPECT_EQ(stale.score, 0.0);
}

// An all-zero window has no energy to normalize by, and NaN samples would
// poison the score; both reject with score 0 on either side of the match.
TEST(Matcher, SilentAndNaNWindowsReject) {
  Rng rng(28);
  auto s = make_pair_scenario(rng, 300, 20.0, 150, 400);
  const std::ptrdiff_t st1 = s.c1.truth[1].start;
  const std::ptrdiff_t st2 = s.c2.truth[1].start;
  CVec zeros(s.c2.samples.size(), cplx{0.0, 0.0});
  CVec poisoned = s.c2.samples;
  const auto at = static_cast<std::size_t>(st2) + MatchConfig{}.skip + 7;
  poisoned[at] = cplx{std::nan(""), 0.0};

  PacketMatcher m;
  for (const CVec* stored : {&zeros, &poisoned}) {
    ASSERT_TRUE(m.prepare(*stored, st2));
    const auto r = m.score(s.c1.samples, st1);
    EXPECT_FALSE(r.matched);
    EXPECT_EQ(r.score, 0.0);
    // Same input on the scored side.
    ASSERT_TRUE(m.prepare(s.c1.samples, st1));
    const auto q = m.score(*stored, st2);
    EXPECT_FALSE(q.matched);
    EXPECT_EQ(q.score, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Full decoder.
// ---------------------------------------------------------------------------

TEST(Decoder, DecodesClassicHiddenTerminalPair) {
  Rng rng(31);
  auto s = make_pair_scenario(rng, 300, 10.0, 160, 420);
  const ZigZagDecoder dec;
  const CollisionInput inputs[2] = {s.in1, s.in2};
  const auto res = dec.decode({inputs, 2}, s.profiles, 2);
  ASSERT_EQ(res.packets.size(), 2u);
  EXPECT_TRUE(delivered(s.alice.frame, res.packets[0]));
  EXPECT_TRUE(delivered(s.bob.frame, res.packets[1]));
  if (res.packets[0].crc_ok) {
    EXPECT_EQ(res.packets[0].payload, s.alice.frame.payload);
  }
  if (res.packets[1].crc_ok) {
    EXPECT_EQ(res.packets[1].payload, s.bob.frame.payload);
  }
}

TEST(Decoder, SmallOffsetDifference) {
  // Offsets differing by only a few symbols still decode (stall-breaker +
  // exponential error decay + refinement).
  Rng rng(32);
  auto s = make_pair_scenario(rng, 200, 12.0, 200, 216);
  const ZigZagDecoder dec;
  const CollisionInput inputs[2] = {s.in1, s.in2};
  const auto res = dec.decode({inputs, 2}, s.profiles, 2);
  EXPECT_TRUE(delivered(s.alice.frame, res.packets[0]));
  EXPECT_TRUE(delivered(s.bob.frame, res.packets[1]));
}

TEST(Decoder, FlippedOrderPattern) {
  // Fig 4-1(b): Bob first in the second collision.
  Rng rng(33);
  auto alice = make_party(rng, 1, 11, 250, 11.0);
  auto bob = make_party(rng, 2, 22, 250, 11.0);
  auto c1 = emu::CollisionBuilder()
                .lead(64)
                .add(alice.frame, alice.channel, 0)
                .add(bob.frame, bob.channel, 180)
                .build(rng);
  auto a2 = chan::retransmission_channel(rng, alice.channel, 0.0);
  auto b2 = chan::retransmission_channel(rng, bob.channel, 0.0);
  auto c2 = emu::CollisionBuilder()
                .lead(64)
                .add(phy::with_retry(bob.frame, true), b2, 0)
                .add(phy::with_retry(alice.frame, true), a2, 240)
                .build(rng);

  std::vector<phy::SenderProfile> profiles{alice.profile, bob.profile};
  CollisionInput in1, in2;
  in1.samples = &c1.samples;
  in1.placements = {
      {0, detect_at(c1.samples, c1.truth[0].start, alice.profile, 0)},
      {1, detect_at(c1.samples, c1.truth[1].start, bob.profile, 1)}};
  in2.samples = &c2.samples;
  in2.is_retransmission = true;
  in2.placements = {
      {1, detect_at(c2.samples, c2.truth[0].start, bob.profile, 1)},
      {0, detect_at(c2.samples, c2.truth[1].start, alice.profile, 0)}};

  const ZigZagDecoder dec;
  const CollisionInput inputs[2] = {in1, in2};
  const auto res = dec.decode({inputs, 2}, profiles, 2);
  EXPECT_TRUE(delivered(alice.frame, res.packets[0]));
  EXPECT_TRUE(delivered(bob.frame, res.packets[1]));
}

TEST(Decoder, DifferentPacketSizes) {
  // Fig 4-1(c).
  Rng rng(34);
  auto alice = make_party(rng, 1, 11, 400, 11.0);
  auto bob = make_party(rng, 2, 22, 150, 11.0);
  auto c1 = emu::CollisionBuilder()
                .lead(64)
                .add(alice.frame, alice.channel, 0)
                .add(bob.frame, bob.channel, 200)
                .build(rng);
  auto a2 = chan::retransmission_channel(rng, alice.channel, 0.0);
  auto b2 = chan::retransmission_channel(rng, bob.channel, 0.0);
  auto c2 = emu::CollisionBuilder()
                .lead(64)
                .add(phy::with_retry(alice.frame, true), a2, 0)
                .add(phy::with_retry(bob.frame, true), b2, 520)
                .build(rng);

  std::vector<phy::SenderProfile> profiles{alice.profile, bob.profile};
  CollisionInput in1, in2;
  in1.samples = &c1.samples;
  in1.placements = {
      {0, detect_at(c1.samples, c1.truth[0].start, alice.profile, 0)},
      {1, detect_at(c1.samples, c1.truth[1].start, bob.profile, 1)}};
  in2.samples = &c2.samples;
  in2.is_retransmission = true;
  in2.placements = {
      {0, detect_at(c2.samples, c2.truth[0].start, alice.profile, 0)},
      {1, detect_at(c2.samples, c2.truth[1].start, bob.profile, 1)}};

  const ZigZagDecoder dec;
  const CollisionInput inputs[2] = {in1, in2};
  const auto res = dec.decode({inputs, 2}, profiles, 2);
  EXPECT_TRUE(delivered(alice.frame, res.packets[0]));
  EXPECT_TRUE(delivered(bob.frame, res.packets[1]));
}

TEST(Decoder, CaptureEffectSingleCollision) {
  // Fig 4-1(e): Alice far stronger — interference cancellation on a single
  // collision decodes both.
  Rng rng(35);
  auto alice = make_party(rng, 1, 11, 200, 24.0);
  auto bob = make_party(rng, 2, 22, 200, 10.0);
  auto c1 = emu::CollisionBuilder()
                .lead(64)
                .add(alice.frame, alice.channel, 0)
                .add(bob.frame, bob.channel, 130)
                .build(rng);
  std::vector<phy::SenderProfile> profiles{alice.profile, bob.profile};
  CollisionInput in1;
  in1.samples = &c1.samples;
  in1.placements = {
      {0, detect_at(c1.samples, c1.truth[0].start, alice.profile, 0)},
      {1, detect_at(c1.samples, c1.truth[1].start, bob.profile, 1)}};

  const ZigZagDecoder dec;
  const auto res = dec.decode({&in1, 1}, profiles, 2);
  EXPECT_TRUE(delivered(alice.frame, res.packets[0]));  // captured directly
  EXPECT_TRUE(delivered(bob.frame, res.packets[1]));  // after cancellation
}

TEST(Decoder, CollisionPlusCleanRetransmission) {
  // Fig 4-1(f): Bob's packet is collision-free in the retransmission; the
  // receiver decodes it, subtracts it from the collision, and gets Alice.
  Rng rng(36);
  auto alice = make_party(rng, 1, 11, 200, 10.0);
  auto bob = make_party(rng, 2, 22, 200, 10.0);
  auto c1 = emu::CollisionBuilder()
                .lead(64)
                .add(alice.frame, alice.channel, 0)
                .add(bob.frame, bob.channel, 150)
                .build(rng);
  auto b2 = chan::retransmission_channel(rng, bob.channel, 0.0);
  auto c2 = emu::CollisionBuilder()
                .lead(64)
                .add(phy::with_retry(bob.frame, true), b2, 0)
                .build(rng);

  std::vector<phy::SenderProfile> profiles{alice.profile, bob.profile};
  CollisionInput in1, in2;
  in1.samples = &c1.samples;
  in1.placements = {
      {0, detect_at(c1.samples, c1.truth[0].start, alice.profile, 0)},
      {1, detect_at(c1.samples, c1.truth[1].start, bob.profile, 1)}};
  in2.samples = &c2.samples;
  in2.is_retransmission = true;
  in2.placements = {
      {1, detect_at(c2.samples, c2.truth[0].start, bob.profile, 1)}};

  const ZigZagDecoder dec;
  const CollisionInput inputs[2] = {in1, in2};
  const auto res = dec.decode({inputs, 2}, profiles, 2);
  EXPECT_TRUE(delivered(bob.frame, res.packets[1]));
  EXPECT_TRUE(delivered(alice.frame, res.packets[0]));
}

TEST(Decoder, ThreeSendersThreeCollisions) {
  // §4.5 / Fig 4-6(a) with real waveforms.
  Rng rng(37);
  Party p[3] = {make_party(rng, 1, 11, 150, 12.0),
                make_party(rng, 2, 22, 150, 12.0),
                make_party(rng, 3, 33, 150, 12.0)};
  const std::ptrdiff_t offs[3][3] = {{0, 140, 420}, {0, 500, 180}, {0, 320, 640}};
  emu::Reception rec[3];
  for (int c = 0; c < 3; ++c) {
    emu::CollisionBuilder b;
    b.lead(64);
    for (int i = 0; i < 3; ++i) {
      auto ch = c == 0 ? p[i].channel
                       : chan::retransmission_channel(rng, p[i].channel, 0.0);
      b.add(c == 0 ? p[i].frame : phy::with_retry(p[i].frame, true), ch,
            offs[c][i]);
    }
    rec[c] = b.build(rng);
  }
  std::vector<phy::SenderProfile> profiles{p[0].profile, p[1].profile,
                                           p[2].profile};
  CollisionInput inputs[3];
  for (int c = 0; c < 3; ++c) {
    inputs[c].samples = &rec[c].samples;
    inputs[c].is_retransmission = c > 0;
    for (int i = 0; i < 3; ++i)
      inputs[c].placements.push_back(
          {static_cast<std::size_t>(i),
           detect_at(rec[c].samples, rec[c].truth[i].start, p[i].profile, i)});
  }
  const ZigZagDecoder dec;
  const auto res = dec.decode({inputs, 3}, profiles, 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(delivered(p[i].frame, res.packets[i])) << "packet " << i;
}

TEST(Decoder, IdenticalOffsetsCannotDecode) {
  Rng rng(38);
  auto s = make_pair_scenario(rng, 200, 10.0, 300, 300);
  const ZigZagDecoder dec;
  const CollisionInput inputs[2] = {s.in1, s.in2};
  const auto res = dec.decode({inputs, 2}, s.profiles, 2);
  EXPECT_FALSE(res.all_crc_ok());
}

TEST(Decoder, TrackingAblationFailsOnLongPackets) {
  // Table 5.1: without §4.2.4(b,c) tracking, residual frequency error makes
  // the reconstructed images rotate away from the received signal and long
  // packets become undecodable.
  Rng rng(39);
  auto s = make_pair_scenario(rng, 1500, 12.0, 400, 1100, true, 4e-5);
  DecodeOptions opt;
  opt.reconstruction_tracking = false;
  const ZigZagDecoder no_tracking(opt);
  const ZigZagDecoder with_tracking;
  const CollisionInput inputs[2] = {s.in1, s.in2};
  const auto off = no_tracking.decode({inputs, 2}, s.profiles, 2);
  const auto on = with_tracking.decode({inputs, 2}, s.profiles, 2);
  EXPECT_TRUE(delivered(s.alice.frame, on.packets[0]));
  EXPECT_TRUE(delivered(s.bob.frame, on.packets[1]));
  const double ber_off = 0.5 * (packet_ber(s.alice.frame, off.packets[0]) +
                                packet_ber(s.bob.frame, off.packets[1]));
  const double ber_on = 0.5 * (packet_ber(s.alice.frame, on.packets[0]) +
                               packet_ber(s.bob.frame, on.packets[1]));
  EXPECT_GT(ber_off, 10.0 * std::max(ber_on, 1e-5));
}

TEST(Decoder, ForwardBackwardBeatsForwardOnly) {
  // §4.3(b): every bit is received twice; MRC over both receptions lowers
  // the BER below a single pass.
  Rng rng(40);
  double err_fwd = 0.0, err_both = 0.0;
  for (int trial = 0; trial < 6; ++trial) {
    auto s = make_pair_scenario(rng, 300, 6.5, 160, 420);
    DecodeOptions fwd_only;
    fwd_only.backward_pass = false;
    fwd_only.refinement_passes = 0;
    const CollisionInput inputs[2] = {s.in1, s.in2};
    const auto a = ZigZagDecoder(fwd_only).decode({inputs, 2}, s.profiles, 2);
    const auto b = ZigZagDecoder().decode({inputs, 2}, s.profiles, 2);
    err_fwd += packet_ber(s.alice.frame, a.packets[0]) +
               packet_ber(s.bob.frame, a.packets[1]);
    err_both += packet_ber(s.alice.frame, b.packets[0]) +
                packet_ber(s.bob.frame, b.packets[1]);
  }
  EXPECT_LE(err_both, err_fwd);
}

// ---------------------------------------------------------------------------
// Incremental joint decode (DecodeCache).
// ---------------------------------------------------------------------------

// Field-wise bit-identity of two decode results.
void expect_identical_results(const DecodeResult& a, const DecodeResult& b) {
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.stall_breaks, b.stall_breaks);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t p = 0; p < a.packets.size(); ++p) {
    const auto& pa = a.packets[p];
    const auto& pb = b.packets[p];
    EXPECT_EQ(pa.header_ok, pb.header_ok);
    EXPECT_EQ(pa.crc_ok, pb.crc_ok);
    EXPECT_EQ(pa.symbols_decoded, pb.symbols_decoded);
    if (pa.header_ok && pb.header_ok) {
      EXPECT_EQ(pa.header, pb.header);
    }
    EXPECT_EQ(pa.air_bits, pb.air_bits);
    EXPECT_EQ(pa.payload, pb.payload);
    ASSERT_EQ(pa.soft.size(), pb.soft.size());
    for (std::size_t k = 0; k < pa.soft.size(); ++k)
      EXPECT_EQ(pa.soft[k], pb.soft[k]) << "p=" << p << " k=" << k;
  }
}

TEST(Decoder, IncrementalTopUpBitIdenticalToFromScratch) {
  // run_logged_joint's §4.5 top-up shape: decode an equation set, then
  // decode again with one extra logged collision, reusing the chunk-decode
  // memo. The incremental decode must be bit-identical to decoding the
  // widened set from scratch, and chunks the new equation did not perturb
  // must replay from the memo.
  for (const std::uint64_t seed : {71u, 72u, 73u, 74u, 75u}) {
    Rng rng(seed);
    auto s = make_pair_scenario(rng, 160, 10.0, 210, 620);
    // A third logged collision: one more retransmission round.
    const auto a3 = chan::retransmission_channel(rng, s.alice.channel, 0.0);
    const auto b3 = chan::retransmission_channel(rng, s.bob.channel, 0.0);
    const emu::Reception c3 = emu::CollisionBuilder()
                                  .lead(64)
                                  .add(phy::with_retry(s.alice.frame, true), a3, 0)
                                  .add(phy::with_retry(s.bob.frame, true), b3, 415)
                                  .build(rng);
    CollisionInput in3;
    in3.samples = &c3.samples;
    in3.is_retransmission = true;
    in3.placements = {
        {0, detect_at(c3.samples, c3.truth[0].start, s.alice.profile, 0)},
        {1, detect_at(c3.samples, c3.truth[1].start, s.bob.profile, 1)}};

    const ZigZagDecoder dec;
    DecodeCache cache;
    const CollisionInput two[2] = {s.in1, s.in2};
    (void)dec.decode({two, 2}, s.profiles, 2, &cache);  // initial equations

    const CollisionInput three[3] = {s.in1, s.in2, in3};
    const std::size_t hits_before = cache.hits();
    const auto incremental = dec.decode({three, 3}, s.profiles, 2, &cache);
    EXPECT_GT(cache.hits(), hits_before)
        << "top-up re-decoded every chunk from scratch (seed " << seed << ")";

    const auto scratch = ZigZagDecoder().decode({three, 3}, s.profiles, 2);
    expect_identical_results(incremental, scratch);
  }
}

TEST(Decoder, RepeatDecodeReplaysEntirelyFromCache) {
  // Decoding the identical equation set twice through one cache must not
  // run the black-box decoder again for any chunk — and must reproduce the
  // result bit-for-bit.
  Rng rng(76);
  auto s = make_pair_scenario(rng, 200, 10.0, 300, 700);
  const ZigZagDecoder dec;
  DecodeCache cache;
  const CollisionInput inputs[2] = {s.in1, s.in2};
  const auto first = dec.decode({inputs, 2}, s.profiles, 2, &cache);
  const std::size_t misses_after_first = cache.misses();
  const auto second = dec.decode({inputs, 2}, s.profiles, 2, &cache);
  EXPECT_EQ(cache.misses(), misses_after_first);  // all chunk decodes hit
  EXPECT_GT(cache.hits(), 0u);
  expect_identical_results(first, second);
}

TEST(Decoder, CachedDecodeMatchesUncached) {
  // The cache must be an invisible optimization: with or without it, the
  // decode result is bit-identical.
  for (const std::uint64_t seed : {81u, 82u, 83u}) {
    Rng rng(seed);
    auto s = make_pair_scenario(rng, 180, 11.0, 250, 640);
    const ZigZagDecoder dec;
    DecodeCache cache;
    const CollisionInput inputs[2] = {s.in1, s.in2};
    const auto with_cache = dec.decode({inputs, 2}, s.profiles, 2, &cache);
    const auto without = dec.decode({inputs, 2}, s.profiles, 2);
    expect_identical_results(with_cache, without);
  }
}

TEST(DecodeCacheStress, ConcurrentSharedCacheIsRaceFreeAndBitIdentical) {
  // The thread-safety contract the AP-farm scale-out assumes (ISSUE 6,
  // docs/ANALYSIS.md §3): one DecodeCache shared by decoder engines on
  // MANY threads, with no external locking. Threads repeatedly decode the
  // same scenarios, so they contend on the same fingerprints — the
  // double-miss insert race, hit-path reads of published entries and the
  // counters all get exercised. Run under TSan this is the mechanical
  // proof; in the plain config it still pins bit-identity under contention.
  constexpr std::size_t kScenarios = 3;
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 2;

  struct Case {
    PairScenario s;
    std::vector<CollisionInput> inputs;
    DecodeResult reference;
  };
  std::vector<Case> cases(kScenarios);
  const ZigZagDecoder dec;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    Rng rng(9100 + i);
    Case& c = cases[i];
    c.s = make_pair_scenario(rng, 150 + 20 * i, 10.0,
                             200 + 60 * static_cast<std::ptrdiff_t>(i),
                             600 + 40 * static_cast<std::ptrdiff_t>(i));
    // The scenario's own CollisionInputs point at the factory temporary's
    // sample buffers; re-point them at the case's final location.
    c.inputs = {c.s.in1, c.s.in2};
    c.inputs[0].samples = &c.s.c1.samples;
    c.inputs[1].samples = &c.s.c2.samples;
    c.reference = dec.decode({c.inputs.data(), 2}, c.s.profiles, 2);
  }

  DecodeCache cache;
  std::vector<DecodeResult> results(kThreads * kScenarios * kRounds);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread owns its decoder (engines are per-call anyway); ONLY
      // the cache is shared.
      const ZigZagDecoder local;
      for (int r = 0; r < kRounds; ++r)
        for (std::size_t i = 0; i < kScenarios; ++i)
          results[(t * kRounds + static_cast<std::size_t>(r)) * kScenarios +
                  i] =
              local.decode({cases[i].inputs.data(), 2}, cases[i].s.profiles, 2,
                           &cache);
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t)
    for (int r = 0; r < kRounds; ++r)
      for (std::size_t i = 0; i < kScenarios; ++i)
        expect_identical_results(
            results[(t * kRounds + static_cast<std::size_t>(r)) * kScenarios +
                    i],
            cases[i].reference);

  // Counter sanity: every stored entry came from a miss (racing misses may
  // discard their copy, so misses >= size), and the contended rounds must
  // have produced real sharing.
  EXPECT_GE(cache.misses(), cache.size());
  EXPECT_GT(cache.size(), 0u);
  EXPECT_GT(cache.hits(), 0u);

  // After the stampede the cache is fully warm: a repeat decode of every
  // scenario must not miss once.
  const std::size_t misses_before = cache.misses();
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const auto replay =
        dec.decode({cases[i].inputs.data(), 2}, cases[i].s.profiles, 2, &cache);
    expect_identical_results(replay, cases[i].reference);
  }
  EXPECT_EQ(cache.misses(), misses_before);
}

TEST(DecodeCacheStress, FarmShardsPerWorkerWarmReplayAndBitIdentical) {
  // The farm shape (src/farm): episodes from many cells fan out over
  // ThreadPool::parallel_for_sharded, and each stable worker id owns one
  // DecodeCacheShards shard plus one thread-confined ScratchArena, reused
  // across every episode that lands on that worker. Scheduling decides
  // which worker (and so which shard/arena) an episode hits, yet results
  // must be bit-identical to the uncached, arena-less reference — and a
  // second (warm) sweep must replay without a single new miss, because a
  // worker's shard already holds every fingerprint its cells produce only
  // when fingerprints are placement-independent. Run under TSan this also
  // pins that shard + arena handoff across pool batches is race-free.
  constexpr std::size_t kCells = 6;
  constexpr std::size_t kWorkers = 4;

  struct Cell {
    PairScenario s;
    std::vector<CollisionInput> inputs;
    DecodeResult reference;
  };
  std::vector<Cell> cells(kCells);
  const ZigZagDecoder dec;
  for (std::size_t i = 0; i < kCells; ++i) {
    Rng rng(9300 + i);
    Cell& c = cells[i];
    c.s = make_pair_scenario(rng, 140 + 12 * i, 10.0,
                             220 + 40 * static_cast<std::ptrdiff_t>(i),
                             590 + 30 * static_cast<std::ptrdiff_t>(i));
    c.inputs = {c.s.in1, c.s.in2};
    c.inputs[0].samples = &c.s.c1.samples;
    c.inputs[1].samples = &c.s.c2.samples;
    c.reference = dec.decode({c.inputs.data(), 2}, c.s.profiles, 2);
  }

  ThreadPool pool(kWorkers);
  DecodeCacheShards shards(pool.size());
  std::vector<sig::ScratchArena> arenas(pool.size());

  const auto sweep = [&](std::vector<DecodeResult>& out) {
    out.assign(kCells, {});
    pool.parallel_for_sharded(kCells, [&](std::size_t i, std::size_t w) {
      const ZigZagDecoder local;
      out[i] = local.decode({cells[i].inputs.data(), 2}, cells[i].s.profiles,
                            2, &shards.shard(w), &arenas[w]);
    });
  };

  std::vector<DecodeResult> cold, warm;
  sweep(cold);
  const std::size_t misses_cold = shards.misses();
  EXPECT_GT(misses_cold, 0u);
  EXPECT_EQ(shards.entries(), misses_cold);  // no cross-shard dedup

  sweep(warm);
  // Scheduling may move a cell to a worker whose shard has not seen it, so
  // the warm sweep can still miss — but never more than a cold sweep's
  // worth, and every result stays bit-identical.
  EXPECT_LE(shards.misses(), 2 * misses_cold);
  for (std::size_t i = 0; i < kCells; ++i) {
    expect_identical_results(cold[i], cells[i].reference);
    expect_identical_results(warm[i], cells[i].reference);
  }

  // Pin the shard-affinity guarantee the farm actually relies on: with the
  // cell → worker assignment fixed (cell i on shard i % workers, each on
  // one thread via the pool), a third sweep over warm shards must not miss
  // at all.
  const std::size_t misses_before = shards.misses();
  std::vector<DecodeResult> pinned(kCells);
  pool.parallel_for_sharded(pool.size(), [&](std::size_t w, std::size_t) {
    const ZigZagDecoder local;
    for (std::size_t i = w; i < kCells; i += pool.size())
      pinned[i] = local.decode({cells[i].inputs.data(), 2},
                               cells[i].s.profiles, 2, &shards.shard(w),
                               &arenas[w]);
  });
  // The pinned sweep may still populate shards that never saw a given cell;
  // run it twice so the second pass is provably all-hits.
  (void)misses_before;
  const std::size_t misses_pinned = shards.misses();
  pool.parallel_for_sharded(pool.size(), [&](std::size_t w, std::size_t) {
    const ZigZagDecoder local;
    for (std::size_t i = w; i < kCells; i += pool.size())
      pinned[i] = local.decode({cells[i].inputs.data(), 2},
                               cells[i].s.profiles, 2, &shards.shard(w),
                               &arenas[w]);
  });
  EXPECT_EQ(shards.misses(), misses_pinned)
      << "warm pinned replay re-ran the black-box decoder";
  for (std::size_t i = 0; i < kCells; ++i)
    expect_identical_results(pinned[i], cells[i].reference);
}

TEST(Decoder, QpskCollisionsDecode) {
  // §4.2.3(a): the decoder is modulation-agnostic.
  Rng rng(41);
  auto s = make_pair_scenario(rng, 200, 16.0, 160, 420, true, 1e-5,
                              Modulation::QPSK);
  const ZigZagDecoder dec;
  const CollisionInput inputs[2] = {s.in1, s.in2};
  const auto res = dec.decode({inputs, 2}, s.profiles, 2);
  EXPECT_TRUE(delivered(s.alice.frame, res.packets[0]));
  EXPECT_TRUE(delivered(s.bob.frame, res.packets[1]));
}

TEST(Decoder, MixedModulationCollision) {
  // Two colliding packets may use different bit rates (§4.2.3a).
  Rng rng(42);
  auto alice = make_party(rng, 1, 11, 200, 11.0, Modulation::BPSK);
  auto bob = make_party(rng, 2, 22, 150, 18.0, Modulation::QPSK);
  auto c1 = emu::CollisionBuilder()
                .lead(64)
                .add(alice.frame, alice.channel, 0)
                .add(bob.frame, bob.channel, 170)
                .build(rng);
  auto a2 = chan::retransmission_channel(rng, alice.channel, 0.0);
  auto b2 = chan::retransmission_channel(rng, bob.channel, 0.0);
  auto c2 = emu::CollisionBuilder()
                .lead(64)
                .add(phy::with_retry(alice.frame, true), a2, 0)
                .add(phy::with_retry(bob.frame, true), b2, 450)
                .build(rng);
  std::vector<phy::SenderProfile> profiles{alice.profile, bob.profile};
  CollisionInput in1, in2;
  in1.samples = &c1.samples;
  in1.placements = {
      {0, detect_at(c1.samples, c1.truth[0].start, alice.profile, 0)},
      {1, detect_at(c1.samples, c1.truth[1].start, bob.profile, 1)}};
  in2.samples = &c2.samples;
  in2.is_retransmission = true;
  in2.placements = {
      {0, detect_at(c2.samples, c2.truth[0].start, alice.profile, 0)},
      {1, detect_at(c2.samples, c2.truth[1].start, bob.profile, 1)}};
  const ZigZagDecoder dec;
  const CollisionInput inputs[2] = {in1, in2};
  const auto res = dec.decode({inputs, 2}, profiles, 2);
  EXPECT_TRUE(delivered(alice.frame, res.packets[0]));
  EXPECT_TRUE(delivered(bob.frame, res.packets[1]));
}

// ---------------------------------------------------------------------------
// Receiver pipeline (§5.1d).
// ---------------------------------------------------------------------------

TEST(Receiver, CleanPacketDeliveredImmediately) {
  Rng rng(51);
  auto alice = make_party(rng, 1, 7, 200, 12.0);
  const CVec rx = chan::clean_reception(rng, alice.frame.symbols,
                                        alice.channel);
  ZigZagReceiver receiver;
  receiver.add_client(alice.profile);
  const auto out = receiver.receive(rx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, alice.frame.payload);
  EXPECT_FALSE(out[0].via_pair);
}

TEST(Receiver, CollisionPairResolvedAcrossReceptions) {
  Rng rng(52);
  auto s = make_pair_scenario(rng, 250, 14.0, 170, 430);
  ZigZagReceiver receiver;
  receiver.add_client(s.alice.profile);
  receiver.add_client(s.bob.profile);

  const auto first = receiver.receive(s.c1.samples);
  EXPECT_TRUE(first.empty());  // stored, undecodable alone
  EXPECT_EQ(receiver.pending_collisions(), 1u);

  const auto second = receiver.receive(s.c2.samples);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_TRUE(second[0].via_pair);
  EXPECT_TRUE(second[1].via_pair);
  EXPECT_EQ(receiver.pending_collisions(), 0u);

  // Score as the paper does: delivery = BER below 1e-3 against the truth.
  for (const auto& d : second) {
    const auto& truth =
        d.header.sender_id == 1 ? s.alice.frame : s.bob.frame;
    const phy::TxFrame& ref = truth.header.retry == d.header.retry
                                  ? truth
                                  : phy::with_retry(truth, d.header.retry);
    EXPECT_LT(bit_error_rate(ref.air_bits(), d.air_bits), 1e-3);
    if (d.crc_ok) {
      EXPECT_EQ(d.payload, truth.payload);
    }
  }
}

TEST(Receiver, UnrelatedCollisionsNotMatched) {
  Rng rng(53);
  auto s1 = make_pair_scenario(rng, 250, 11.0, 170, 430);
  auto s2 = make_pair_scenario(rng, 250, 11.0, 210, 380);
  ZigZagReceiver receiver;
  receiver.add_client(s1.alice.profile);
  receiver.add_client(s1.bob.profile);
  EXPECT_TRUE(receiver.receive(s1.c1.samples).empty());
  // A collision of two *different* packets must not pair with the stored one.
  const auto out = receiver.receive(s2.c1.samples);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(receiver.pending_collisions(), 2u);
}

}  // namespace
}  // namespace zz::zigzag
