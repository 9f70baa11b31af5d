#include "inputs.h"

#include <algorithm>
#include <cstdlib>

#include "zz/common/thread_pool.h"
#include "zz/emu/collision.h"
#include "zz/phy/transmitter.h"

namespace perf {

using namespace zz;

Client make_client(Rng& rng, std::uint8_t id, double snr_db) {
  Client c;
  chan::ImpairmentConfig icfg;
  icfg.snr_db = snr_db;
  icfg.freq_offset_max = 2e-3;
  c.channel = chan::random_channel(rng, icfg);
  c.profile.id = id;
  c.profile.freq_offset = c.channel.freq_offset + rng.uniform(-2e-5, 2e-5);
  c.profile.snr_db = snr_db;
  c.profile.mod = phy::Modulation::BPSK;
  c.profile.isi = c.channel.isi;
  if (!c.channel.isi.is_identity())
    c.profile.equalizer = c.channel.isi.inverse(7, 3);
  return c;
}

phy::TxFrame next_frame(Rng& rng, Client& c, std::size_t payload_bytes,
                        TruthBook& truth) {
  phy::FrameHeader h;
  h.sender_id = c.profile.id;
  h.seq = c.next_seq++;
  h.payload_mod = phy::Modulation::BPSK;
  h.payload_bytes = static_cast<std::uint16_t>(payload_bytes);
  const Bytes payload = rng.bytes(payload_bytes);
  truth.add(h, payload);
  return phy::build_frame(h, payload);
}

namespace {

/// Backoff slot of the emulated MAC, in samples (20 µs at 1 Msample/s).
constexpr std::ptrdiff_t kSlot = 20;
/// Warm-up inputs come from a fixed seed, so set-up does the same work on
/// every run; their sequence numbers stay clear of the measured packets.
constexpr std::uint64_t kWarmupSeed = 0x5e7a9u;
constexpr std::uint16_t kWarmupSeq = 0xF000;
/// The stream's two clients (channel, ISI, frequency offset) are part of
/// the workload, as an AP's associated clients are; the run's seed draws
/// the traffic. With per-seed clients, one channel draw set the cost of a
/// whole run and the latency median moved ±12 % from seed to seed.
constexpr std::uint64_t kAssociationSeed = 0xa55c;
/// Seed of the joint workload's hard rounds (see make_joint).
constexpr std::uint64_t kHardSeed = 0x4a4d;

/// Two backoff draws whose offset Δ = b − a keeps both preambles apart
/// (|Δ| ≥ min_sep) and differs from `avoid` by at least min_sep, so the
/// pair of collisions is a well-conditioned §4.2.3 zigzag.
std::ptrdiff_t draw_delta(Rng& rng, int cw, std::ptrdiff_t min_sep,
                          std::ptrdiff_t avoid, std::ptrdiff_t* a,
                          std::ptrdiff_t* b) {
  for (;;) {
    *a = rng.uniform_int(0, cw) * kSlot;
    *b = rng.uniform_int(0, cw) * kSlot;
    const std::ptrdiff_t d = *b - *a;
    if (std::abs(d) >= min_sep && std::abs(d - avoid) >= min_sep) return d;
  }
}

emu::Reception collide(Rng& rng, const Client& ca, const phy::TxFrame& fa,
                       std::ptrdiff_t a, const Client& cb,
                       const phy::TxFrame& fb, std::ptrdiff_t b) {
  const std::ptrdiff_t base = std::min(a, b);
  emu::CollisionBuilder builder;
  builder.lead(64);
  builder.add(fa, chan::retransmission_channel(rng, ca.channel, 0.0), a - base);
  builder.add(fb, chan::retransmission_channel(rng, cb.channel, 0.0), b - base);
  return builder.build(rng);
}

void add_exchange(Rng& rng, StreamInput& in, std::size_t e,
                  std::size_t payload_bytes, TruthBook& truth,
                  SampleStore& dst, std::vector<Window>& windows) {
  constexpr std::ptrdiff_t kMinSep = 64;
  Client& ca = in.clients[0];
  Client& cb = in.clients[1];
  const phy::TxFrame fa = next_frame(rng, ca, payload_bytes, truth);
  const phy::TxFrame fb = next_frame(rng, cb, payload_bytes, truth);
  std::ptrdiff_t a = 0, b = 0;
  const std::ptrdiff_t d1 = draw_delta(rng, 63, kMinSep, 0, &a, &b);
  const auto first = collide(rng, ca, fa, a, cb, fb, b);
  draw_delta(rng, 63, kMinSep, d1, &a, &b);
  const auto retry = collide(rng, ca, phy::with_retry(fa, true), a, cb,
                             phy::with_retry(fb, true), b);
  // Clean frames, each before, between or after the two collisions.
  std::vector<CVec> clean[3];
  for (std::size_t k = 0; k < kCleanPerExchange; ++k) {
    Client& cc = in.clients[rng.chance(0.5) ? 0 : 1];
    const phy::TxFrame fc = next_frame(rng, cc, payload_bytes, truth);
    CVec rx = chan::clean_reception(
        rng, fc.symbols, chan::retransmission_channel(rng, cc.channel, 0.0));
    clean[rng.uniform_int(0, 2)].push_back(std::move(rx));
  }

  const auto put = [&](const CVec& rx, WindowKind kind,
                       std::vector<std::size_t> starts) {
    {
      Window w;
      w.begin = dst.size();
      w.length = rx.size();
      w.kind = kind;
      w.exchange = e;
      w.starts = std::move(starts);
      windows.push_back(std::move(w));
    }
    dst.insert(dst.end(), rx.begin(), rx.end());
    dst.insert(dst.end(), kGapSamples, cplx{0.0, 0.0});
  };
  const auto starts = [](const emu::Reception& r) {
    std::vector<std::size_t> s;
    for (const auto& t : r.truth) s.push_back(static_cast<std::size_t>(t.start));
    return s;
  };
  // clean_reception's noise lead-in puts symbol 0 at sample 64.
  const auto put_clean = [&](const std::vector<CVec>& rxs) {
    for (const auto& rx : rxs) put(rx, WindowKind::Clean, {64});
  };
  put_clean(clean[0]);
  put(first.samples, WindowKind::First, starts(first));
  put_clean(clean[1]);
  put(retry.samples, WindowKind::Retry, starts(retry));
  put_clean(clean[2]);
}

}  // namespace

void make_stream(std::uint64_t seed, std::size_t exchanges,
                 std::size_t payload_bytes, StreamInput& out) {
  {
    Rng assoc(kAssociationSeed);
    out.clients.push_back(make_client(assoc, 1, 12.0));
    out.clients.push_back(make_client(assoc, 2, 12.0));
  }
  Rng rng(seed);
  {
    Rng warm(kWarmupSeed);
    TruthBook unscored;
    for (auto& c : out.clients) c.next_seq = kWarmupSeq;
    add_exchange(warm, out, 0, payload_bytes, unscored, out.warmup,
                 out.warmup_windows);
    for (auto& c : out.clients) c.next_seq = 0;
  }
  out.exchanges = exchanges;
  out.windows.reserve((2 + kCleanPerExchange) * exchanges);
  for (std::size_t e = 0; e < exchanges; ++e)
    add_exchange(rng, out, e, payload_bytes, out.truth, out.samples,
                 out.windows);
}

namespace {

void add_round(Rng& rng, std::size_t n, std::uint16_t seq,
               std::size_t payload_bytes, double first_snr_db,
               TruthBook& truth, Round& rd) {
  // Backoff slot of the joint workload: half the live slot, so offsets stay
  // within one packet length at the shortened payload and every equation
  // overlaps all n packets, as 300 B packets do against the testbed's CW.
  // Offsets are redrawn until every pair of starts is 125 symbols apart and
  // each pair's relative offset is 30 symbols away from its relative offset
  // in every earlier equation of the round. Near-coincident starts, or a
  // pair that lands at almost the same relative offset twice, make an
  // ill-conditioned system; with those in the mix 4 to 14 rounds in 100
  // topped up, depending on the seed, and moved the latency p90 and the
  // throughput with them. With them out 1 to 3 do.
  constexpr std::ptrdiff_t kJointSlot = kSlot / 2;
  constexpr std::ptrdiff_t kJointMinSep = 250;
  constexpr std::ptrdiff_t kJointMinRelSep = 60;
  std::vector<phy::TxFrame> frames;
  for (std::size_t i = 0; i < n; ++i) {
    const double snr = i == 0 ? first_snr_db : rng.uniform(9.0, 12.0);
    rd.clients.push_back(make_client(rng, static_cast<std::uint8_t>(i + 1), snr));
    rd.clients.back().next_seq = seq;
    frames.push_back(next_frame(rng, rd.clients.back(), payload_bytes, truth));
    rd.headers.push_back(frames.back().header);
  }
  rd.pkt_symbols = frames[0].layout.total_syms;
  std::vector<std::vector<std::ptrdiff_t>> earlier;
  for (std::size_t c = 0; c < n + kSpareEquations; ++c) {
    emu::CollisionBuilder builder;
    builder.lead(64);
    std::vector<std::ptrdiff_t> offs(n);
    for (bool apart = false; !apart;) {
      for (auto& o : offs) o = rng.uniform_int(0, 127) * kJointSlot;
      apart = true;
      for (std::size_t x = 0; x < n; ++x)
        for (std::size_t y = x + 1; y < n; ++y) {
          const std::ptrdiff_t rel = offs[x] - offs[y];
          if (std::abs(rel) < kJointMinSep) apart = false;
          for (const auto& e : earlier)
            if (std::abs(rel - (e[x] - e[y])) < kJointMinRelSep) apart = false;
        }
    }
    earlier.push_back(offs);
    const std::ptrdiff_t base = *std::min_element(offs.begin(), offs.end());
    for (std::size_t i = 0; i < n; ++i)
      builder.add(phy::with_retry(frames[i], c > 0),
                  chan::retransmission_channel(rng, rd.clients[i].channel, 0.0),
                  offs[i] - base);
    emu::Reception rec = builder.build(rng);
    std::vector<std::size_t> st;
    for (const auto& t : rec.truth) st.push_back(static_cast<std::size_t>(t.start));
    rd.starts.push_back(std::move(st));
    rd.receptions.push_back(std::move(rec.samples));
  }
}

}  // namespace

void make_joint(std::uint64_t seed, std::size_t rounds,
                std::size_t payload_bytes, JointInput& out) {
  Rng rng(seed);
  out.rounds.resize(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t n = r % kFourEvery == kFourEvery - 1 ? 4 : 3;
    const auto seq = static_cast<std::uint16_t>(r);
    if (r % kHardEvery == kHardEvery / 2) {
      Rng hard(shard_seed(kHardSeed, r / kHardEvery));
      add_round(hard, n, seq, payload_bytes, 0.0, out.truth, out.rounds[r]);
    } else {
      add_round(rng, n, seq, payload_bytes, rng.uniform(9.0, 12.0), out.truth,
                out.rounds[r]);
    }
  }
}

}  // namespace perf
