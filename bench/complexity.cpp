// §4.6 — "ZigZag is linear in the number of colliding senders".
// google-benchmark timings of the decoder vs number of senders and packet
// size; the per-sender cost should grow roughly linearly. Per-kernel
// microbenches follow the end-to-end ones: the FFT, §4.2.1 preamble
// correlation, §4.2.2 packet matching, the §4.2.3(a) chunk decoder and the
// §4.2.3(b) image path (chunk render, block interpolation).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "zz/chan/channel.h"
#include "zz/phy/preamble.h"
#include "zz/phy/tracker.h"
#include "zz/signal/correlate.h"
#include "zz/signal/fft.h"
#include "zz/signal/interp.h"
#include "zz/zigzag/matcher.h"

using namespace zz;

namespace {

// Build an n-sender, n-collision scenario and time the joint decode.
struct MultiScenario {
  std::vector<bench::Party> parties;
  std::vector<emu::Reception> recs;
  std::vector<phy::SenderProfile> profiles;
  std::vector<zigzag::CollisionInput> inputs;
};

MultiScenario make_multi(Rng& rng, std::size_t n, std::size_t payload) {
  MultiScenario s;
  for (std::size_t i = 0; i < n; ++i)
    s.parties.push_back(bench::make_party(
        rng, static_cast<std::uint8_t>(i + 1),
        static_cast<std::uint16_t>(10 * (i + 1)), payload, 12.0));
  for (std::size_t c = 0; c < n; ++c) {
    emu::CollisionBuilder b;
    b.lead(64);
    for (std::size_t i = 0; i < n; ++i) {
      const auto off = rng.uniform_int(0, 40) * 20;
      b.add(phy::with_retry(s.parties[i].frame, c > 0),
            chan::retransmission_channel(rng, s.parties[i].channel, 0.0), off);
    }
    s.recs.push_back(b.build(rng));
  }
  for (auto& p : s.parties) s.profiles.push_back(p.profile);
  s.inputs.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    s.inputs[c].samples = &s.recs[c].samples;
    s.inputs[c].is_retransmission = c > 0;
    for (std::size_t i = 0; i < n; ++i)
      s.inputs[c].placements.push_back(
          {i, bench::detect_at(s.recs[c].samples, s.recs[c].truth[i].start,
                               s.profiles[i], static_cast<int>(i))});
  }
  return s;
}

void BM_DecodeVsSenders(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(123 + n);
  auto s = make_multi(rng, n, 150);
  const zigzag::ZigZagDecoder dec;
  for (auto _ : state) {
    auto res = dec.decode({s.inputs.data(), s.inputs.size()}, s.profiles, n);
    benchmark::DoNotOptimize(res);
  }
  state.counters["per_sender_ms"] = benchmark::Counter(
      1e3 * static_cast<double>(n),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_DecodeVsPayload(benchmark::State& state) {
  const auto payload = static_cast<std::size_t>(state.range(0));
  Rng rng(321);
  auto s = make_multi(rng, 2, payload);
  const zigzag::ZigZagDecoder dec;
  for (auto _ : state) {
    auto res = dec.decode({s.inputs.data(), s.inputs.size()}, s.profiles, 2);
    benchmark::DoNotOptimize(res);
  }
}

void BM_StandardDecode(benchmark::State& state) {
  Rng rng(77);
  auto p = bench::make_party(rng, 1, 5, static_cast<std::size_t>(state.range(0)), 12.0);
  const CVec rx = chan::clean_reception(rng, p.frame.symbols, p.channel);
  const phy::StandardReceiver std_rx;
  for (auto _ : state) {
    auto d = std_rx.decode(rx, &p.profile);
    benchmark::DoNotOptimize(d);
  }
}

// One in-place forward transform of size n (the input is restored from a
// copy each iteration so the values stay bounded).
void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(51);
  CVec in(n);
  for (auto& v : in) v = cplx{rng.gaussian(), rng.gaussian()};
  const sig::Fft fft(n);
  CVec work(n);
  for (auto _ : state) {
    std::copy(in.begin(), in.end(), work.begin());
    fft.forward(work.data());
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
}

// The detector's use of SlidingCorrelator: prepare one 4096-sample window
// against the preamble, then correlate it under two client frequency
// hypotheses.
void BM_Correlate(benchmark::State& state) {
  Rng rng(52);
  const auto p = bench::make_party(rng, 1, 5, 200, 12.0);
  CVec rx = chan::clean_reception(rng, p.frame.symbols, p.channel);
  rx.resize(4096, cplx{0.0, 0.0});
  sig::SlidingCorrelator corr(phy::preamble_waveform());
  CVec gamma;
  for (auto _ : state) {
    corr.prepare(rx);
    corr.correlate(p.profile.freq_offset, gamma);
    corr.correlate(-p.profile.freq_offset, gamma);
    benchmark::DoNotOptimize(gamma.data());
    benchmark::ClobberMemory();
  }
}

// §4.2.2 as ZigZagReceiver runs it: one prepare() of a new reception's
// window, then score() of 4 stored receptions (one of them the same
// packet, retransmitted over a fresh channel).
void BM_MatchScore(benchmark::State& state) {
  Rng rng(53);
  std::vector<CVec> stored;
  std::vector<bench::Party> parties;
  for (std::uint8_t i = 1; i <= 4; ++i) {
    parties.push_back(bench::make_party(rng, i, 5, 200, 12.0));
    stored.push_back(chan::clean_reception(rng, parties.back().frame.symbols,
                                           parties.back().channel));
  }
  const CVec rx = chan::clean_reception(
      rng, phy::with_retry(parties[0].frame, true).symbols,
      chan::retransmission_channel(rng, parties[0].channel, 0.0));
  constexpr std::ptrdiff_t kOrigin = 64;  // clean_reception's lead
  zigzag::PacketMatcher matcher;
  for (auto _ : state) {
    matcher.prepare(rx, kOrigin);
    for (const CVec& s : stored) {
      const auto sc = matcher.score(s, kOrigin);
      benchmark::DoNotOptimize(sc);
    }
  }
}

// ChunkDecoder::decode of a whole 200 B BPSK packet from a clean
// reception, tracking from the preamble estimate.
void BM_ChunkDecode(benchmark::State& state) {
  Rng rng(54);
  const auto p = bench::make_party(rng, 1, 5, 200, 12.0);
  const CVec rx = chan::clean_reception(rng, p.frame.symbols, p.channel);
  const auto pe = phy::estimate_at_peak(rx, 64, p.channel.freq_offset);
  phy::LinkEstimate est0;
  est0.params.h = pe.h;
  est0.params.freq_offset = p.channel.freq_offset;
  est0.params.mu = pe.mu;
  est0.params.isi = p.channel.isi;
  est0.equalizer = p.profile.equalizer;
  est0.noise_var = phy::estimate_noise_floor(rx);
  const std::size_t total = p.frame.layout.total_syms;
  std::vector<phy::SymbolSpec> specs(total);
  const CVec& pre = phy::preamble();
  for (std::size_t k = 0; k < pre.size(); ++k) specs[k].pilot = pre[k];
  const phy::ChunkDecoder dec;
  for (auto _ : state) {
    phy::LinkEstimate est = est0;
    auto res = dec.decode(rx, pe.origin, 0, total, specs, est);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(total));
}

// Clock drift of the kernel benches' link: arg 0 gives a drift-free link,
// as every receiver-side estimate is (tap weights reused across symbols);
// arg 1 a simulator-like drift of 1.3e-6 (every symbol computes its own).
double bench_drift(const benchmark::State& state) {
  return state.range(0) != 0 ? 1.3e-6 : 0.0;
}

// chan::add_signal over one whole frame: the image render of §4.2.3(b).
void BM_Render(benchmark::State& state) {
  Rng rng(55);
  const auto p = bench::make_party(
      rng, 1, 5, static_cast<std::size_t>(state.range(1)), 12.0);
  chan::ChannelParams ch = p.channel;
  ch.drift = bench_drift(state);
  const CVec& sym = p.frame.symbols;
  CVec buf(2 * sym.size() + 128, cplx{0.0, 0.0});
  for (auto _ : state) {
    chan::add_signal(buf, 32, sym, ch);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sym.size()));
}

// SincInterpolator::at_batch over a 200 B frame's symbol positions, one
// call per 16-symbol tracking block as ChunkDecoder::raw_block issues them.
void BM_AtBatch(benchmark::State& state) {
  Rng rng(56);
  const auto p = bench::make_party(rng, 1, 5, 200, 12.0);
  const CVec rx = chan::clean_reception(rng, p.frame.symbols, p.channel);
  const double drift = bench_drift(state);
  const std::size_t n = p.frame.symbols.size();
  const std::ptrdiff_t origin = 64;
  std::vector<double> pos(n);
  for (std::size_t k = 0; k < n; ++k)
    pos[k] = static_cast<double>(origin) +
             (chan::kSps * static_cast<double>(k) * (1.0 + drift) +
              p.channel.mu);
  const sig::SincInterpolator interp(8);
  constexpr std::size_t kBlock = 16;
  CVec out(kBlock);
  for (auto _ : state) {
    for (std::size_t k0 = 0; k0 < n; k0 += kBlock) {
      const std::size_t m = std::min(kBlock, n - k0);
      interp.at_batch(rx, {pos.data() + k0, m}, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

}  // namespace

BENCHMARK(BM_DecodeVsSenders)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecodeVsPayload)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StandardDecode)->Arg(200)->Arg(400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fft)->Arg(256)->Arg(2048)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Correlate)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MatchScore)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ChunkDecode)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Render)
    ->ArgNames({"drift", "bytes"})
    ->ArgsProduct({{0, 1}, {80, 200}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AtBatch)->ArgName("drift")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK_MAIN();
