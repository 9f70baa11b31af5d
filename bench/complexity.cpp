// §4.6 — "ZigZag is linear in the number of colliding senders".
// google-benchmark timings of the decoder vs number of senders and packet
// size; the per-sender cost should grow roughly linearly. Per-kernel
// microbenches of the §4.2.3(b) image path (chunk render, block
// interpolation) follow the end-to-end ones.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "zz/chan/channel.h"
#include "zz/signal/interp.h"

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
BENCHMARK(BM_Render)
    ->ArgNames({"drift", "bytes"})
    ->ArgsProduct({{0, 1}, {80, 200}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AtBatch)->ArgName("drift")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);
BENCHMARK_MAIN();
