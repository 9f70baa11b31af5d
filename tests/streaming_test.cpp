// Tests for the streaming receiver pipeline (sample-in → packet-out):
// ring-buffer ingest, silence-gap framing, and the gated streaming
// contract — bit-identical packets vs the offline route under ANY chunking
// of the input, with bounded per-push work.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "zz/chan/channel.h"
#include "zz/common/rng.h"
#include "zz/emu/collision.h"
#include "zz/phy/framer.h"
#include "zz/phy/preamble.h"
#include "zz/phy/receiver.h"
#include "zz/phy/transmitter.h"
#include "zz/signal/ring.h"
#include "zz/testbed/scenario.h"
#include "zz/zigzag/receiver.h"
#include "zz/zigzag/streaming.h"

namespace zz {
namespace {

// ---------------------------------------------------------------------------
// SampleRing: absolute positions across wrap and growth.
// ---------------------------------------------------------------------------

CVec ramp(std::size_t n, std::size_t start = 0) {
  CVec v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = cplx{static_cast<double>(start + i),
                -static_cast<double>(start + i) / 3.0};
  return v;
}

TEST(SampleRing, WrapAroundKeepsAbsolutePositions) {
  sig::SampleRing ring(16);  // rounds up to a small power of two
  const CVec all = ramp(1000);
  std::size_t fed = 0;
  // Push / drop in a pattern that wraps the ring many times while keeping
  // the retained window smaller than the capacity.
  while (fed < all.size()) {
    const std::size_t chunk = std::min<std::size_t>(7, all.size() - fed);
    ring.push(all.data() + fed, chunk);
    fed += chunk;
    if (ring.size() > 10) ring.drop_before(ring.end_pos() - 10);
  }
  EXPECT_EQ(ring.end_pos(), all.size());
  EXPECT_LE(ring.capacity(), 32u);  // never grew past the retained window
  for (std::uint64_t p = ring.begin_pos(); p < ring.end_pos(); ++p)
    EXPECT_EQ(ring.at(p), all[static_cast<std::size_t>(p)]);
  CVec out;
  ring.copy_range(ring.begin_pos(), ring.end_pos(), out);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], all[static_cast<std::size_t>(ring.begin_pos()) + i]);
}

TEST(SampleRing, GrowthPreservesRetainedSamples) {
  sig::SampleRing ring(8);
  const CVec all = ramp(300, 77);
  ring.push(all.data(), 5);
  ring.drop_before(3);  // leave a wrapped, non-zero-based window
  ring.push(all.data() + 5, all.size() - 5);  // forces several growths
  EXPECT_EQ(ring.begin_pos(), 3u);
  EXPECT_EQ(ring.end_pos(), all.size());
  CVec out;
  ring.copy_range(3, all.size(), out);
  ASSERT_EQ(out.size(), all.size() - 3);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], all[i + 3]);
}

TEST(SampleRing, DropClampsAndResetForgets) {
  sig::SampleRing ring;
  const CVec v = ramp(10);
  ring.push(v);
  ring.drop_before(1000);  // past the end: clamps, doesn't corrupt
  EXPECT_EQ(ring.begin_pos(), 10u);
  EXPECT_EQ(ring.end_pos(), 10u);
  EXPECT_TRUE(ring.empty());
  ring.reset();
  EXPECT_EQ(ring.begin_pos(), 0u);
  ring.push(v);
  EXPECT_EQ(ring.at(0), v[0]);
}

// ---------------------------------------------------------------------------
// FrameSync: exact window recovery under any chunking.
// ---------------------------------------------------------------------------

TEST(FrameSync, RecoversWindowsExactlyUnderAnyChunking) {
  Rng rng(11);
  CVec stream;
  auto append_silence = [&](std::size_t n) {
    stream.insert(stream.end(), n, cplx{0.0, 0.0});
  };
  auto append_burst = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) stream.push_back(rng.gaussian_c(1.0));
  };
  append_silence(50);
  append_burst(300);   // window 1: [50, 350)
  append_silence(40);
  append_burst(211);   // window 2: [390, 601)
  append_silence(100);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, stream.size()}) {
    phy::FrameSync sync;
    std::vector<phy::FrameWindow> wins;
    for (std::size_t off = 0; off < stream.size(); off += chunk)
      sync.push(stream.data() + off, std::min(chunk, stream.size() - off),
                wins);
    sync.finish(wins);
    ASSERT_EQ(wins.size(), 2u) << "chunk " << chunk;
    EXPECT_EQ(wins[0].begin, 50u);
    EXPECT_EQ(wins[0].end, 350u);
    EXPECT_EQ(wins[0].decided_at, 350u + sync.config().gap_hang);
    EXPECT_EQ(wins[1].begin, 390u);
    EXPECT_EQ(wins[1].end, 601u);
    EXPECT_EQ(wins[1].decided_at, 601u + sync.config().gap_hang);
  }
}

TEST(FrameSync, ShortGapDoesNotSplitAWindow) {
  phy::FrameSync sync;  // gap_hang = 24 by default
  CVec stream(100, cplx{1.0, 0.0});
  for (std::size_t i = 40; i < 60; ++i) stream[i] = cplx{0.0, 0.0};  // 20 < 24
  std::vector<phy::FrameWindow> wins;
  sync.push(stream.data(), stream.size(), wins);
  EXPECT_TRUE(wins.empty());
  ASSERT_TRUE(sync.in_window());

  // A 30-sample gap (≥ 24) closes exactly that one window...
  const CVec off(30, cplx{0.0, 0.0});
  sync.push(off.data(), off.size(), wins);
  ASSERT_EQ(wins.size(), 1u);
  EXPECT_EQ(wins[0].begin, 0u);
  EXPECT_EQ(wins[0].end, 100u);  // the quiet dip is window content
  EXPECT_FALSE(sync.in_window());

  // ...and the next burst opens a fresh one.
  const CVec on(10, cplx{1.0, 0.0});
  sync.push(on.data(), on.size(), wins);
  EXPECT_TRUE(sync.in_window());
  sync.finish(wins);
  ASSERT_EQ(wins.size(), 2u);
  EXPECT_EQ(wins[1].begin, 130u);
  EXPECT_EQ(wins[1].end, 140u);
}

TEST(FrameSync, MaxWindowCutsARunawayStream) {
  phy::FramerConfig cfg;
  cfg.max_window = 128;
  phy::FrameSync sync(cfg);
  std::vector<phy::FrameWindow> wins;
  const CVec on(500, cplx{1.0, 0.0});
  sync.push(on.data(), on.size(), wins);
  ASSERT_GE(wins.size(), 3u);
  EXPECT_EQ(wins[0].end - wins[0].begin, 128u);
}

// ---------------------------------------------------------------------------
// The streaming contract: StreamingReceiver emits bit-identical packets to
// the offline ZigZagReceiver fed the same receptions — at any chunking.
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
  h.payload_mod = phy::Modulation::BPSK;
  h.payload_bytes = static_cast<std::uint16_t>(payload_bytes);
  p.frame = phy::build_frame(h, rng.bytes(payload_bytes));

  chan::ImpairmentConfig icfg;
  icfg.snr_db = snr_db;
  icfg.freq_offset_max = 2e-3;
  p.channel = chan::random_channel(rng, icfg);

  p.profile.id = id;
  p.profile.freq_offset = p.channel.freq_offset + rng.uniform(-1e-5, 1e-5);
  p.profile.snr_db = snr_db;
  p.profile.mod = phy::Modulation::BPSK;
  p.profile.isi = p.channel.isi;
  if (!p.channel.isi.is_identity())
    p.profile.equalizer = p.channel.isi.inverse(7, 3);
  return p;
}

/// n-sender hidden-terminal log: `collisions` receptions of the same n
/// packets at per-collision offsets.
struct StreamScenario {
  std::vector<Party> parties;
  std::vector<phy::SenderProfile> profiles;
  std::vector<emu::Reception> receptions;
};

StreamScenario make_stream_scenario(
    Rng& rng, std::size_t n,
    const std::vector<std::vector<std::ptrdiff_t>>& offsets) {
  StreamScenario s;
  for (std::size_t i = 0; i < n; ++i) {
    s.parties.push_back(make_party(rng, static_cast<std::uint8_t>(i + 1),
                                   static_cast<std::uint16_t>(100 * (i + 1)),
                                   200, 15.0));
    s.profiles.push_back(s.parties.back().profile);
  }
  for (std::size_t c = 0; c < offsets.size(); ++c) {
    emu::CollisionBuilder builder;
    builder.lead(64);
    for (std::size_t i = 0; i < n; ++i)
      builder.add(phy::with_retry(s.parties[i].frame, c > 0),
                  chan::retransmission_channel(rng, s.parties[i].channel, 0.0),
                  offsets[c][i]);
    s.receptions.push_back(builder.build(rng));
  }
  return s;
}

zigzag::ReceiverOptions receiver_options(std::size_t n) {
  // The production n-client tuning (stock pair config at n = 2, n-way
  // match/detector tuning above) — the same options run_live builds, so
  // these pins cover the configuration the testbed routes actually use.
  return zigzag::ReceiverOptions::for_clients(n);
}

void expect_same_packet(const zigzag::Delivered& a, const zigzag::Delivered& b,
                        std::size_t k) {
  EXPECT_EQ(a.header.sender_id, b.header.sender_id) << "packet " << k;
  EXPECT_EQ(a.header.seq, b.header.seq) << "packet " << k;
  EXPECT_EQ(a.header.retry, b.header.retry) << "packet " << k;
  EXPECT_EQ(a.crc_ok, b.crc_ok) << "packet " << k;
  EXPECT_EQ(a.via_pair, b.via_pair) << "packet " << k;
  EXPECT_EQ(a.via_sic, b.via_sic) << "packet " << k;
  EXPECT_EQ(a.air_bits, b.air_bits) << "packet " << k;   // bit-identical
  EXPECT_EQ(a.payload, b.payload) << "packet " << k;
}

/// Push a reception through the streaming receiver in partition-seeded
/// random chunks, then a silence gap to close its window.
void stream_reception(zigzag::StreamingReceiver& rx, const CVec& samples,
                      Rng& part, std::vector<zigzag::StreamDelivered>& got) {
  std::size_t fed = 0;
  while (fed < samples.size()) {
    const auto chunk = static_cast<std::size_t>(part.uniform_int(
        1, static_cast<std::int64_t>(
               std::min<std::size_t>(700, samples.size() - fed))));
    for (auto& d : rx.push(samples.data() + fed, chunk))
      got.push_back(std::move(d));
    fed += chunk;
  }
  const CVec gap(64, cplx{0.0, 0.0});
  for (auto& d : rx.push(gap)) got.push_back(std::move(d));
}

void check_stream_matches_offline(std::uint64_t seed, std::size_t n) {
  std::vector<std::vector<std::ptrdiff_t>> offsets;
  if (n == 2) {
    offsets = {{0, 150}, {0, 420}};
  } else {
    // Five rounds: a 3-way joint decode needs three well-detected
    // receptions (§4.5), and a preamble lost to a fade in one round (the
    // paper's FN ≈ 2-4% per start) must be recoverable from later
    // retransmissions rather than failing the scenario.
    offsets = {{0, 150, 330},
               {0, 370, 190},
               {0, 260, 470},
               {0, 440, 240},
               {0, 180, 410}};
  }
  Rng rng(seed);
  const StreamScenario sc = make_stream_scenario(rng, n, offsets);

  zigzag::ZigZagReceiver offline(receiver_options(n));
  offline.add_clients(sc.profiles);
  std::vector<zigzag::Delivered> want;
  for (const auto& rec : sc.receptions)
    for (auto& d : offline.receive(rec.samples)) want.push_back(std::move(d));

  zigzag::StreamingOptions sopt;
  sopt.receiver = receiver_options(n);
  zigzag::StreamingReceiver streaming(sopt);
  streaming.add_clients(sc.profiles);
  Rng part(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<zigzag::StreamDelivered> got;
  for (const auto& rec : sc.receptions)
    stream_reception(streaming, rec.samples, part, got);
  for (auto& d : streaming.finish()) got.push_back(std::move(d));

  // The hidden-terminal log must actually decode (the pin would be vacuous
  // on an empty delivery list).
  EXPECT_GE(want.size(), n) << "seed " << seed;
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t k = 0; k < want.size(); ++k)
    expect_same_packet(got[k].packet, want[k], k);

  // Every reception framed into exactly one window, none spuriously split
  // by a push boundary.
  EXPECT_EQ(streaming.stats().windows, sc.receptions.size());
}

TEST(StreamingReceiver, BitIdenticalToOfflineTwoSenders) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    check_stream_matches_offline(seed, 2);
}

TEST(StreamingReceiver, BitIdenticalToOfflineThreeSenders) {
  // Seeds where the offline route delivers every sender (10 of the first
  // 14 do; the misses are genuine preamble-fade FNs, not pipeline bugs) —
  // the bit-identity assertion itself holds at any seed.
  for (const std::uint64_t seed : {2, 3, 5, 7, 8})
    check_stream_matches_offline(seed, 3);
}

TEST(StreamingReceiver, WindowsStraddlingPushBoundariesMatchContiguous) {
  // The adversarial chunkings: single-sample feeds, and cuts placed inside
  // the detection window (the last W samples of a block) — both must agree
  // with one whole-buffer push.
  Rng rng(77);
  const StreamScenario sc = make_stream_scenario(rng, 2, {{0, 150}, {0, 420}});
  const CVec gap(64, cplx{0.0, 0.0});

  auto run = [&](std::size_t chunk) {
    zigzag::StreamingOptions sopt;
    sopt.receiver = receiver_options(2);
    zigzag::StreamingReceiver rx(sopt);
    rx.add_clients(sc.profiles);
    std::vector<zigzag::StreamDelivered> got;
    for (const auto& rec : sc.receptions) {
      for (std::size_t off = 0; off < rec.samples.size(); off += chunk)
        for (auto& d : rx.push(rec.samples.data() + off,
                               std::min(chunk, rec.samples.size() - off)))
          got.push_back(std::move(d));
      for (auto& d : rx.push(gap)) got.push_back(std::move(d));
    }
    for (auto& d : rx.finish()) got.push_back(std::move(d));
    return got;
  };

  const auto whole = run(1u << 30);  // one push per reception
  ASSERT_GE(whole.size(), 2u);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{13},
                                  std::size_t{phy::kPreambleLength - 1},
                                  std::size_t{256}}) {
    const auto split = run(chunk);
    ASSERT_EQ(split.size(), whole.size()) << "chunk " << chunk;
    for (std::size_t k = 0; k < whole.size(); ++k) {
      expect_same_packet(split[k].packet, whole[k].packet, k);
      // Decode scheduling is also chunk-independent: the decision point is
      // a stream position, not a push boundary.
      EXPECT_EQ(split[k].decoded_at, whole[k].decoded_at) << "packet " << k;
      EXPECT_EQ(split[k].window_begin, whole[k].window_begin);
      EXPECT_EQ(split[k].window_end, whole[k].window_end);
    }
  }
}

TEST(StreamingReceiver, PerPushWorkIsConstantInStreamLength) {
  // Same window geometry, 4 windows vs 16: if any per-push work scaled
  // with stream length (rescanning history, unbounded retention), the
  // longer run's peak push work would exceed the shorter run's.
  Rng rng(3);
  const StreamScenario sc = make_stream_scenario(rng, 2, {{0, 150}});
  const CVec& rec = sc.receptions[0].samples;
  const CVec gap(64, cplx{0.0, 0.0});

  auto run = [&](std::size_t repeats) {
    zigzag::StreamingOptions sopt;
    sopt.receiver = receiver_options(2);
    zigzag::StreamingReceiver rx(sopt);
    rx.add_clients(sc.profiles);
    for (std::size_t r = 0; r < repeats; ++r) {
      for (std::size_t off = 0; off < rec.size(); off += 256)
        rx.push(rec.data() + off, std::min<std::size_t>(256, rec.size() - off));
      rx.push(gap);
    }
    rx.finish();
    return rx.stats();
  };

  const auto short_run = run(4);
  const auto long_run = run(16);
  EXPECT_EQ(long_run.max_push_work, short_run.max_push_work);
  EXPECT_EQ(long_run.max_retained, short_run.max_retained);
  // Retention is bounded by the window, not the stream.
  EXPECT_LE(long_run.max_retained, rec.size() + 2 * gap.size());
  EXPECT_EQ(long_run.windows, 16u);
}

// ---------------------------------------------------------------------------
// Scenario-level pin: CollectMode::Streaming reproduces CollectMode::Live
// draw-for-draw and packet-for-packet, and reports latency.
// ---------------------------------------------------------------------------

testbed::Scenario live_scenario(std::size_t n) {
  testbed::Scenario sc;
  sc.senders.assign(n, testbed::SenderSpec{12.0, 0});
  sc.receiver = testbed::ReceiverKind::ZigZag;
  sc.mode = testbed::CollectMode::Live;
  sc.p_sense = 0.0;
  sc.cfg.packets_per_sender = 4;
  sc.cfg.payload_bytes = 200;
  return sc;
}

void check_streaming_scenario_matches_live(std::uint64_t seed, std::size_t n) {
  testbed::Scenario sc = live_scenario(n);
  Rng rng_live(seed);
  const auto live = testbed::run_scenario(rng_live, sc);

  sc.mode = testbed::CollectMode::Streaming;
  Rng rng_stream(seed);
  const auto stream = testbed::run_scenario(rng_stream, sc);

  ASSERT_EQ(stream.flows.size(), live.flows.size());
  for (std::size_t i = 0; i < live.flows.size(); ++i) {
    EXPECT_EQ(stream.flows[i].offered, live.flows[i].offered) << "seed " << seed;
    EXPECT_EQ(stream.flows[i].delivered, live.flows[i].delivered)
        << "seed " << seed << " flow " << i;
    EXPECT_EQ(stream.flows[i].throughput, live.flows[i].throughput);
  }
  EXPECT_EQ(stream.airtime_rounds, live.airtime_rounds) << "seed " << seed;
  EXPECT_EQ(stream.concurrent_rounds, live.concurrent_rounds);

  // The streaming-only accounting is populated and sane: decodes happen
  // mid-stream (first delivery long before the last sample), and every
  // window's decode latency is its length plus the silence hang.
  EXPECT_GT(stream.stream_samples, 0u);
  EXPECT_GT(stream.stream_windows, 0u);
  if (stream.stream_deliveries > 0) {
    EXPECT_LT(stream.first_delivery_pos, stream.stream_samples);
    EXPECT_GT(stream.mean_decode_latency, 0.0);
    EXPECT_LT(stream.mean_decode_latency,
              static_cast<double>(stream.stream_samples));
  }
  EXPECT_EQ(live.stream_samples, 0u);  // offline route reports none
}

TEST(StreamingScenario, MatchesLiveTwoSenders) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    check_streaming_scenario_matches_live(seed, 2);
}

TEST(StreamingScenario, MatchesLiveThreeSenders) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    check_streaming_scenario_matches_live(seed, 3);
}

TEST(StreamingScenario, RequiresZigZagReceiver) {
  testbed::Scenario sc = live_scenario(2);
  sc.mode = testbed::CollectMode::Streaming;
  sc.receiver = testbed::ReceiverKind::Current80211;
  Rng rng(1);
  EXPECT_THROW(testbed::run_scenario(rng, sc), std::invalid_argument);
}

}  // namespace
}  // namespace zz
