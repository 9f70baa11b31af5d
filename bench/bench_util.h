// Shared helpers for the paper-reproduction benches: canonical scenario
// construction (senders, profiles, collisions) and scoring, mirroring the
// methodology fixtures used across the test suite, plus the gate each bench
// applies to the claims it reproduces.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "zz/chan/channel.h"
#include "zz/common/mathutil.h"
#include "zz/common/rng.h"
#include "zz/emu/collision.h"
#include "zz/phy/receiver.h"
#include "zz/phy/transmitter.h"
#include "zz/zigzag/decoder.h"

namespace zz::bench {

/// Scale factor for run sizes: ZZ_QUICK=1 shrinks every bench for smoke
/// runs; ZZ_FULL=1 enlarges them toward paper-sized sample counts.
inline double run_scale() {
  if (std::getenv("ZZ_QUICK")) return 0.25;
  if (std::getenv("ZZ_FULL")) return 4.0;
  return 1.0;
}

inline std::size_t scaled(std::size_t n) {
  const auto v = static_cast<std::size_t>(static_cast<double>(n) * run_scale());
  return v ? v : 1;
}

/// Gate failures recorded so far by gate().
inline int gate_failures = 0;

/// Checks a paper claim on the value the bench computed (the quick scale,
/// run_scale() < 1, carries wider bands). A failed gate prints
/// "gate FAILED: <what>" to stderr and makes exit_status() 1; a passing
/// one prints nothing, so the drift-diffed stdout stays as it was.
inline void gate(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "gate FAILED: %s\n", what.c_str());
  ++gate_failures;
}

/// What main returns: 0 when every gate held, 1 otherwise.
inline int exit_status() { return gate_failures == 0 ? 0 : 1; }

struct Party {
  phy::TxFrame frame;
  chan::ChannelParams channel;
  phy::SenderProfile profile;
};

inline Party make_party(Rng& rng, std::uint8_t id, std::uint16_t seq,
                        std::size_t payload_bytes, double snr_db,
                        phy::Modulation mod = phy::Modulation::BPSK,
                        double freq_jitter = 2e-5,
                        double isi_strength = 0.15) {
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
  icfg.isi_strength = isi_strength;
  p.channel = chan::random_channel(rng, icfg);
  p.profile.id = id;
  p.profile.freq_offset =
      p.channel.freq_offset + rng.uniform(-freq_jitter, freq_jitter);
  p.profile.snr_db = snr_db;
  p.profile.mod = mod;
  p.profile.isi = p.channel.isi;
  if (!p.channel.isi.is_identity())
    p.profile.equalizer = p.channel.isi.inverse(7, 3);
  return p;
}

inline zigzag::Detection detect_at(const CVec& rx, std::ptrdiff_t origin,
                                   const phy::SenderProfile& prof,
                                   int profile_index) {
  const auto pe = phy::estimate_at_peak(rx, static_cast<std::size_t>(origin),
                                        prof.freq_offset);
  zigzag::Detection d;
  d.origin = pe.origin;
  d.mu = pe.mu;
  d.h = pe.h;
  d.freq_offset = prof.freq_offset;
  d.metric = pe.metric;
  d.profile_index = profile_index;
  return d;
}

/// The canonical hidden-terminal collision pair at sample offsets d1, d2.
struct PairScenario {
  emu::Reception c1, c2;
  Party alice, bob;
  std::vector<phy::SenderProfile> profiles;
  zigzag::CollisionInput in1, in2;
};

inline PairScenario make_pair_scenario(Rng& rng, std::size_t payload,
                                       double snr_db, std::ptrdiff_t d1,
                                       std::ptrdiff_t d2,
                                       double isi_strength = 0.15) {
  PairScenario s;
  s.alice = make_party(rng, 1, 100, payload, snr_db, phy::Modulation::BPSK,
                       2e-5, isi_strength);
  s.bob = make_party(rng, 2, 200, payload, snr_db, phy::Modulation::BPSK,
                     2e-5, isi_strength);
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

/// BER of a decoded packet against the matching retry variant of the truth.
inline double packet_ber(const phy::TxFrame& truth,
                         const zigzag::PacketResult& r) {
  if (!r.header_ok) return 1.0;
  const phy::TxFrame& ref = truth.header.retry == r.header.retry
                                ? truth
                                : phy::with_retry(truth, r.header.retry);
  return bit_error_rate(ref.air_bits(), r.air_bits);
}

}  // namespace zz::bench
