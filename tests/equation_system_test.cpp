// Tests for the "Collision Helps" equation-system layer: the message-passing
// plan (zz/zigzag/equation_system.h), plus the plan route of the decoder
// engine (zz/zigzag/algebraic_mp.h) on synthesized collisions — including
// the equal-offset pattern that pure zigzag cannot decode (Assertion 4.5.1)
// but 2x2 Gaussian elimination can — and the input contract both of the
// engine's entry points share.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "zz/chan/channel.h"
#include "zz/common/alloc_hook.h"
#include "zz/common/mathutil.h"
#include "zz/common/rng.h"
#include "zz/emu/collision.h"
#include "zz/phy/receiver.h"
#include "zz/phy/transmitter.h"
#include "zz/zigzag/algebraic_mp.h"
#include "zz/zigzag/decoder.h"
#include "zz/zigzag/equation_system.h"
#include "zz/zigzag/scheduler.h"

namespace zz::zigzag {
namespace {

// ---------------------------------------------------------------------------
// Message-passing plan.
// ---------------------------------------------------------------------------

TEST(MessagePassingPlan, PeelsWhereGreedySucceeds) {
  // The classic hidden-terminal pair: peeling alone must solve it, no
  // eliminations needed.
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 30}}, {{0, 0}, {1, 70}}};
  const auto plan = message_passing_plan(p);
  EXPECT_TRUE(plan.complete);
  EXPECT_GT(plan.peels, 0u);
  EXPECT_EQ(plan.eliminations, 0u);
  EXPECT_TRUE(greedy_schedule(p).complete);  // agreement with §4.5
}

TEST(MessagePassingPlan, EliminatesWhereGreedyFails) {
  // Identical offsets in both collisions: zigzag-undecodable (Assertion
  // 4.5.1), but the coefficients of the two equations are independent, so
  // one 2x2 elimination unlocks the rest.
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 40}}, {{0, 0}, {1, 40}}};
  EXPECT_FALSE(greedy_schedule(p).complete);
  EXPECT_FALSE(pairwise_condition_holds(p));
  const auto plan = message_passing_plan(p);
  EXPECT_TRUE(plan.complete);
  EXPECT_GE(plan.eliminations, 1u);
  // The eliminated range is the pair's overlap in packet 0's indices.
  bool saw = false;
  for (const auto& s : plan.steps)
    if (s.kind == MpStep::Kind::Eliminate) {
      saw = true;
      EXPECT_EQ(s.packet, 0u);
      EXPECT_EQ(s.other_packet, 1u);
      EXPECT_EQ(s.k0, 40u);
      EXPECT_EQ(s.k1, 100u);
    }
  EXPECT_TRUE(saw);
}

TEST(MessagePassingPlan, FullyOverlappedEqualPairSolved) {
  // Complete overlap at offset 0 twice: no overhanging chunk at all, the
  // whole packet pair is recovered by elimination alone.
  Pattern p;
  p.lengths = {60, 60};
  p.collisions = {{{0, 0}, {1, 0}}, {{0, 0}, {1, 0}}};
  EXPECT_FALSE(greedy_schedule(p).complete);
  const auto plan = message_passing_plan(p);
  EXPECT_TRUE(plan.complete);
  EXPECT_GE(plan.eliminations, 1u);
}

TEST(MessagePassingPlan, SingleEquationStaysUnresolved) {
  // One collision of a fully-overlapped pair: one equation, two unknowns —
  // no algebra recovers that.
  Pattern p;
  p.lengths = {80, 80};
  p.collisions = {{{0, 0}, {1, 0}}};
  const auto plan = message_passing_plan(p);
  EXPECT_FALSE(plan.complete);
  ASSERT_EQ(plan.unresolved_packets.size(), 2u);
}

TEST(MessagePassingPlan, GuardShrinksPeelRuns) {
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 30}}, {{0, 0}, {1, 70}}};
  const auto p0 = message_passing_plan(p, 0);
  const auto p4 = message_passing_plan(p, 4);
  EXPECT_TRUE(p0.complete);
  EXPECT_TRUE(p4.complete);
  EXPECT_GE(p4.steps.size(), p0.steps.size());
}

TEST(MessagePassingPlan, ThreeSendersComplete) {
  Pattern p;
  p.lengths = {100, 100, 100};
  p.collisions = {{{0, 0}, {1, 20}, {2, 50}},
                  {{0, 0}, {1, 60}, {2, 20}},
                  {{0, 0}, {1, 40}, {2, 80}}};
  const auto plan = message_passing_plan(p);
  EXPECT_TRUE(plan.complete);
}

// ---------------------------------------------------------------------------
// Waveform executor: AlgebraicMpDecoder on synthesized collisions.
// ---------------------------------------------------------------------------

struct Party {
  phy::TxFrame frame;
  chan::ChannelParams channel;
  phy::SenderProfile profile;
};

Party make_party(Rng& rng, std::uint8_t id, std::uint16_t seq,
                 std::size_t payload_bytes, double snr_db) {
  Party p;
  phy::FrameHeader h;
  h.sender_id = id;
  h.seq = seq;
  h.payload_bytes = static_cast<std::uint16_t>(payload_bytes);
  p.frame = phy::build_frame(h, rng.bytes(payload_bytes));
  chan::ImpairmentConfig icfg;
  icfg.snr_db = snr_db;
  icfg.freq_offset_max = 2e-3;
  p.channel = chan::random_channel(rng, icfg);
  p.profile.id = id;
  p.profile.freq_offset = p.channel.freq_offset + rng.uniform(-2e-5, 2e-5);
  p.profile.snr_db = snr_db;
  p.profile.isi = p.channel.isi;
  if (!p.channel.isi.is_identity())
    p.profile.equalizer = p.channel.isi.inverse(7, 3);
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

struct PairFixture {
  emu::Reception c1, c2;
  Party alice, bob;
  std::vector<phy::SenderProfile> profiles;
  CollisionInput in1, in2;
};

// Two collisions of the same packet pair at sample offsets d1, d2.
PairFixture make_pair(Rng& rng, std::size_t payload, double snr_db,
                      std::ptrdiff_t d1, std::ptrdiff_t d2) {
  PairFixture s;
  s.alice = make_party(rng, 1, 100, payload, snr_db);
  s.bob = make_party(rng, 2, 200, payload, snr_db);
  s.c1 = emu::CollisionBuilder()
             .lead(64)
             .add(s.alice.frame, s.alice.channel, 0)
             .add(s.bob.frame, s.bob.channel, d1)
             .build(rng);
  auto a2 = chan::retransmission_channel(rng, s.alice.channel, 0.0);
  auto b2 = chan::retransmission_channel(rng, s.bob.channel, 0.0);
  s.c2 = emu::CollisionBuilder()
             .lead(64)
             .add(phy::with_retry(s.alice.frame, true), a2, 0)
             .add(phy::with_retry(s.bob.frame, true), b2, d2)
             .build(rng);
  s.profiles = {s.alice.profile, s.bob.profile};
  s.in1.samples = &s.c1.samples;
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
  const phy::TxFrame& ref = truth.header.retry == r.header.retry
                                ? truth
                                : phy::with_retry(truth, r.header.retry);
  return bit_error_rate(ref.air_bits(), r.air_bits);
}

TEST(AlgebraicMpDecoder, PeelsClassicPairMostlyClean) {
  // Peel-only recovery of the classic pair. Without the §4.2.4 tracking
  // refinements the mid-packet symbols (where both ladders' accumulated
  // subtraction error meets) carry a ~1% error floor — the documented gap
  // to the full zigzag decoder; the scenario engine reaches delivery-grade
  // BER by requesting extra equations (scenario_test pins that).
  Rng rng(7);
  const auto s = make_pair(rng, 150, 14.0, 80, 240);
  const CollisionInput ins[] = {s.in1, s.in2};
  const AlgebraicMpDecoder dec;
  const auto res = dec.decode({ins, 2}, s.profiles, 2,
                              phy::layout_for(s.alice.frame.header).total_syms);
  ASSERT_EQ(res.packets.size(), 2u);
  EXPECT_TRUE(res.packets[0].header_ok);
  EXPECT_TRUE(res.packets[1].header_ok);
  EXPECT_LT(packet_ber(s.alice.frame, res.packets[0]), 5e-2);
  EXPECT_LT(packet_ber(s.bob.frame, res.packets[1]), 5e-2);
}

TEST(AlgebraicMpDecoder, EliminatesEqualOffsetPairZigZagCannot) {
  // The same relative offset in both collisions — the pattern Assertion
  // 4.5.1 declares zigzag-undecodable. The algebraic receiver solves it by
  // per-symbol 2x2 elimination over the two (random-phase) channel gains.
  Rng rng(11);
  const auto s = make_pair(rng, 150, 20.0, 120, 120);
  const CollisionInput ins[] = {s.in1, s.in2};
  const std::size_t syms = phy::layout_for(s.alice.frame.header).total_syms;

  const AlgebraicMpDecoder mp;
  const auto res = mp.decode({ins, 2}, s.profiles, 2, syms);
  ASSERT_EQ(res.packets.size(), 2u);
  EXPECT_LT(packet_ber(s.alice.frame, res.packets[0]), 1e-2);
  EXPECT_LT(packet_ber(s.bob.frame, res.packets[1]), 1e-2);

  // The full zigzag decoder on the same inputs leaves symbols unresolved
  // or badly decoded — the offsets carry no chunk structure.
  const ZigZagDecoder zz;
  const auto zres = zz.decode({ins, 2}, s.profiles, 2);
  const double zz_worst = std::max(packet_ber(s.alice.frame, zres.packets[0]),
                                   packet_ber(s.bob.frame, zres.packets[1]));
  const double mp_worst = std::max(packet_ber(s.alice.frame, res.packets[0]),
                                   packet_ber(s.bob.frame, res.packets[1]));
  EXPECT_LT(mp_worst, zz_worst);
}

TEST(AlgebraicMpDecoder, SubstitutedImagesKeepTheirLeadingTails) {
  // Near-equal offsets (181 vs 163 samples) cut both packets into many
  // short chunks, so most substituted images start mid-packet. An image
  // that leaves out the pulse tail before its first symbol (the renderer
  // draws nothing before its stream's first symbol) leaves that tail in
  // every equation, and later steps decode on top of it: BER 0.24 / 0.30
  // here instead of 0.016 / 0.006.
  Rng rng(33);
  const auto s = make_pair(rng, 120, 14.0, 181, 163);
  const CollisionInput ins[] = {s.in1, s.in2};
  const auto res = AlgebraicMpDecoder().decode(
      {ins, 2}, s.profiles, 2,
      phy::layout_for(s.alice.frame.header).total_syms);
  ASSERT_EQ(res.packets.size(), 2u);
  EXPECT_LT(packet_ber(s.alice.frame, res.packets[0]), 5e-2);
  EXPECT_LT(packet_ber(s.bob.frame, res.packets[1]), 5e-2);
}

TEST(AlgebraicMpDecoder, HeaderParseLeavesLinkEstimatesAlone) {
  // By the time this pair's headers parse, a chunk decoder's δf̂ has moved
  // more than 8e-5 off the sender profile. The greedy route snaps such a
  // link back to the profile, rotating ĥ to keep the phase continuous at
  // the link's last projection point; the plan route has none, and a snap
  // breaks the phase: BER 0.24 / 0.25 instead of 0.058 / 0.016.
  Rng rng(8);
  const auto s = make_pair(rng, 150, 14.0, 80, 240);
  const CollisionInput ins[] = {s.in1, s.in2};
  const auto res = AlgebraicMpDecoder().decode(
      {ins, 2}, s.profiles, 2,
      phy::layout_for(s.alice.frame.header).total_syms);
  ASSERT_EQ(res.packets.size(), 2u);
  EXPECT_LT(packet_ber(s.alice.frame, res.packets[0]), 0.1);
  EXPECT_LT(packet_ber(s.bob.frame, res.packets[1]), 0.1);
}

TEST(AlgebraicMpDecoder, RejectsNullSamples) {
  CollisionInput in;
  const AlgebraicMpDecoder dec;
  EXPECT_THROW((void)dec.decode({&in, 1}, {}, 1), std::invalid_argument);
}

TEST(AlgebraicMpDecoder, RejectsDuplicatePlacement) {
  // Caller placements become the plan's pattern; the same packet placed
  // twice in one collision is rejected like an out-of-range one.
  Rng rng(5);
  auto s = make_pair(rng, 60, 20.0, 80, 240);
  s.in1.placements.push_back(s.in1.placements.front());
  const CollisionInput ins[] = {s.in1, s.in2};
  const AlgebraicMpDecoder dec;
  EXPECT_THROW((void)dec.decode({ins, 2}, s.profiles, 2), std::invalid_argument);
}

TEST(AlgebraicMpDecoder, EmptyInputsReturnEmpty) {
  const AlgebraicMpDecoder dec;
  const auto res = dec.decode({}, {}, 0);
  EXPECT_TRUE(res.packets.empty());
}

// ---------------------------------------------------------------------------
// Both entry points of the engine: ZigZagDecoder (greedy route) and
// AlgebraicMpDecoder (plan route) share one input screen and set-up.
// ---------------------------------------------------------------------------

DecodeResult decode_with(bool plan, std::span<const CollisionInput> ins,
                         std::span<const phy::SenderProfile> profiles,
                         std::size_t num_packets) {
  if (plan) return AlgebraicMpDecoder().decode(ins, profiles, num_packets);
  return ZigZagDecoder().decode(ins, profiles, num_packets);
}

TEST(JointDecodeEntry, NullSamplesRejectedOnBothRoutes) {
  const CollisionInput in;
  for (const bool plan : {false, true})
    EXPECT_THROW((void)decode_with(plan, {&in, 1}, {}, 1),
                 std::invalid_argument)
        << "plan route: " << plan;
}

TEST(JointDecodeEntry, OutOfRangePlacementRejectedOnBothRoutes) {
  Rng rng(5);
  auto s = make_pair(rng, 60, 20.0, 80, 240);
  s.in2.placements[1].packet = 2;  // only packets 0 and 1 exist
  const CollisionInput ins[] = {s.in1, s.in2};
  for (const bool plan : {false, true})
    EXPECT_THROW((void)decode_with(plan, {ins, 2}, s.profiles, 2),
                 std::invalid_argument)
        << "plan route: " << plan;
}

TEST(JointDecodeEntry, EmptyInputsReturnEmptyOnBothRoutes) {
  Rng rng(5);
  const auto s = make_pair(rng, 60, 20.0, 80, 240);
  for (const bool plan : {false, true}) {
    EXPECT_TRUE(decode_with(plan, {}, s.profiles, 2).packets.empty());
    EXPECT_TRUE(decode_with(plan, {&s.in1, 1}, s.profiles, 0).packets.empty());
  }
}

TEST(JointDecodeEntry, UnplacedPacketsGetZeroLengthOnBothRoutes) {
  // One clean reception of one packet, decoded as packet 0 of 1 and of 3.
  // Packets 1 and 2 are placed nowhere: they have nothing to decode, so
  // they must neither size buffers for a maximal packet nor report symbols.
  Rng rng(9);
  const Party alice = make_party(rng, 1, 100, 120, 20.0);
  const auto rx = emu::CollisionBuilder()
                      .lead(64)
                      .add(alice.frame, alice.channel, 0)
                      .build(rng);
  CollisionInput in;
  in.samples = &rx.samples;
  in.placements = {
      {0, detect_at(rx.samples, rx.truth[0].start, alice.profile, 0)}};
  const std::vector<phy::SenderProfile> profiles = {alice.profile};

  for (const bool plan : {false, true}) {
    SCOPED_TRACE(plan ? "plan route" : "greedy route");
    AllocTally one_tally;
    const auto one = decode_with(plan, {&in, 1}, profiles, 1);
    const std::uint64_t one_bytes = one_tally.alloc_bytes();
    AllocTally three_tally;
    const auto three = decode_with(plan, {&in, 1}, profiles, 3);
    const std::uint64_t three_bytes = three_tally.alloc_bytes();

    ASSERT_EQ(one.packets.size(), 1u);
    ASSERT_EQ(three.packets.size(), 3u);
    EXPECT_TRUE(one.packets[0].crc_ok);
    EXPECT_EQ(three.packets[0].air_bits, one.packets[0].air_bits);
    for (std::size_t p = 1; p < 3; ++p) {
      EXPECT_EQ(three.packets[p].symbols_decoded, 0u) << "packet " << p;
      EXPECT_FALSE(three.packets[p].header_ok) << "packet " << p;
    }
    EXPECT_LE(three_bytes, 2 * one_bytes);
  }
}

TEST(JointDecodeEntry, RetryCompletionOnlyOnPlanRoute) {
  // A header whose retry bit disagrees with its HCS: the greedy route must
  // reject it, while the plan route rebuilds the retry and HCS bits from
  // the solving collision's retransmission flag and parses it.
  Rng rng(13);
  Party alice = make_party(rng, 1, 100, 120, 20.0);
  alice.frame.symbols[phy::kPreambleLength + phy::kHeaderRetryBit] *= -1.0;
  const auto rx = emu::CollisionBuilder()
                      .lead(64)
                      .add(alice.frame, alice.channel, 0)
                      .build(rng);
  CollisionInput in;
  in.samples = &rx.samples;
  in.is_retransmission = true;
  in.placements = {
      {0, detect_at(rx.samples, rx.truth[0].start, alice.profile, 0)}};
  const std::vector<phy::SenderProfile> profiles = {alice.profile};

  const auto greedy = decode_with(false, {&in, 1}, profiles, 1);
  ASSERT_EQ(greedy.packets.size(), 1u);
  EXPECT_FALSE(greedy.packets[0].header_ok);

  const auto plan = decode_with(true, {&in, 1}, profiles, 1);
  ASSERT_EQ(plan.packets.size(), 1u);
  ASSERT_TRUE(plan.packets[0].header_ok);
  EXPECT_TRUE(plan.packets[0].header.retry);
  EXPECT_EQ(plan.packets[0].header.seq, 100u);
  EXPECT_TRUE(plan.packets[0].crc_ok);
}

}  // namespace
}  // namespace zz::zigzag
