// stream_pair: the path a deployed AP runs. One StreamingReceiver with two
// hidden clients, fed a pre-generated stream of §5.2 exchanges in fixed
// 509-sample pushes, closed loop (the next push follows the previous one's
// return).
#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <optional>

#include "inputs.h"
#include "workloads.h"
#include "zz/common/alloc_hook.h"
#include "zz/common/rng.h"
#include "zz/common/thread_pool.h"
#include "zz/phy/preamble.h"
#include "zz/signal/correlate.h"
#include "zz/signal/fft.h"
#include "zz/zigzag/streaming.h"

namespace perf {
namespace {

using namespace zz;

constexpr std::size_t kPayload = 200;
/// Exchanges per second of --seconds: 40 exchanges (200 windows, about
/// 3 s of pushes per pass on a 2.1 GHz core) at the default 20 s. The
/// window-closing latencies are a continuum around their median, so each
/// pass needs many of them for a steady p50; ten passes make it likely that
/// at least one falls inside a fast phase of a shared host.
constexpr std::size_t kExchangesPerSecond = 2;
constexpr int kPasses = 10;
/// Fresh set-ups before each pass; setup_s is the best pass's median.
constexpr int kSetupsPerPass = 3;
constexpr std::size_t kTracedExchanges = 36;

zigzag::StreamingOptions options() {
  zigzag::StreamingOptions o;
  o.receiver = zigzag::ReceiverOptions::for_clients(2);
  return o;
}

std::vector<phy::SenderProfile> profiles_of(const StreamInput& in) {
  std::vector<phy::SenderProfile> p;
  for (const auto& c : in.clients) p.push_back(c.profile);
  return p;
}

struct Feed {
  std::vector<double> close_ms;  ///< each push that closed a window
  std::vector<double> open_ms;   ///< each push that closed none
  std::vector<double> push_ms;   ///< every push
  double wall_ms = 0.0;          ///< the whole feed loop
  std::size_t push_allocs = 0;   ///< heap allocations inside push()
  std::size_t windows = 0;
  std::size_t deliveries = 0;
  Digest digest;
};

/// Push `s` through `rx` in kPushSamples chunks, scoring deliveries
/// against `truth` when given. A timed pass (`repin`) moves to the fastest
/// vCPU between pushes.
Feed feed(zigzag::StreamingReceiver& rx, const SampleStore& s,
          TruthBook* truth, Tracer& tr, bool repin = false) {
  Feed f;
  const auto w0 = Clock::now();
  for (std::size_t off = 0; off < s.size(); off += kPushSamples) {
    if (repin) pin_to_fastest_cpu();
    const std::size_t n = std::min(kPushSamples, s.size() - off);
    const auto before = rx.stats().windows;
    std::vector<zigzag::StreamDelivered> out;
    double ms = 0.0;
    {
      const auto sp = tr.span("StreamingReceiver::push", f.windows);
      const AllocTally allocs;
      const auto t0 = Clock::now();
      out = rx.push(s.data() + off, n);
      ms = ms_between(t0, Clock::now());
      f.push_allocs += allocs.allocs();
    }
    f.push_ms.push_back(ms);
    if (rx.stats().windows != before) {
      f.close_ms.push_back(ms);
      f.windows += rx.stats().windows - before;
    } else {
      f.open_ms.push_back(ms);
    }
    for (const auto& d : out) {
      const auto& p = d.packet;
      f.digest.add(p.header.sender_id, p.header.seq, p.air_bits);
      ++f.deliveries;
      if (truth) truth->score(p.header, p.air_bits);
    }
  }
  if (!rx.finish().empty()) f.deliveries = SIZE_MAX;  // a window left open
  f.wall_ms = ms_between(w0, Clock::now());
  return f;
}

CVec window_samples(const SampleStore& s, const Window& w) {
  return CVec(s.begin() + static_cast<std::ptrdiff_t>(w.begin),
              s.begin() + static_cast<std::ptrdiff_t>(w.begin + w.length));
}

void check_framing(Report& rep, const Feed& f, const StreamInput& in) {
  if (f.windows != in.windows.size())
    rep.fail(fmt("stream framed %zu windows, %zu generated", f.windows,
                 in.windows.size()));
  if (f.deliveries == SIZE_MAX) rep.fail("finish() closed a window left open");
}

}  // namespace

void stream_pair(const Args& a, Report& rep, Tally& t) {
  StreamInput in;
  make_stream(shard_seed(a.seed, 1),
              kExchangesPerSecond * static_cast<std::size_t>(a.seconds),
              kPayload, in);
  const auto profiles = profiles_of(in);
  Tracer off(false);

  const HeapWatch heap;
  std::vector<Feed> passes;
  std::vector<PassTimes> times;
  std::optional<zigzag::StreamingReceiver> rx;
  for (int k = 0; k < kPasses; ++k) {
    pin_to_fastest_cpu();
    std::vector<double> setups;
    for (int s = 0; s < kSetupsPerPass; ++s) {
      const auto t0 = Clock::now();
      rx.emplace(options());
      rx->add_clients(profiles);
      feed(*rx, in.warmup, nullptr, off);
      setups.push_back(ms_between(t0, Clock::now()) / 1e3);
    }
    passes.push_back(
        feed(*rx, in.samples, k == 0 ? &in.truth : nullptr, off, true));
    times.push_back(pass_times(setups, passes.back().push_ms,
                               passes.back().close_ms));
  }
  const double heap_mb = heap.peak_mb();
  const Feed& f = passes.front();
  check_framing(rep, f, in);
  for (const auto& p : passes)
    if (p.digest.hex() != f.digest.hex() || p.close_ms.size() != f.close_ms.size())
      rep.fail("passes over the same stream delivered different packets");
  const PassTimes best = best_pass(times);
  const double busy_s = best.busy_ms / 1e3;

  rep.metric("samples_per_s", static_cast<double>(in.samples.size()) / busy_s,
             "1/s");
  rep.metric("pkts_per_s", static_cast<double>(in.truth.correct()) / busy_s,
             "1/s");
  report_latency(rep, best, "window-closing pushes");
  rep.metric("setup_s", best.setup_s, "s");
  rep.metric("heap_peak_mb", heap_mb, "MB");

  const auto offered = in.truth.offered();
  rep.note(fmt("stream_pair: %zu exchanges, %zu windows, %zu samples, %zu "
               "pushes", in.exchanges, f.windows, in.samples.size(),
               (in.samples.size() + kPushSamples - 1) / kPushSamples));
  rep.note(fmt("pkt_loss: %.4f ratio (%zu of %zu offered not delivered "
               "correct; %zu duplicates, %zu phantoms)",
               1.0 - static_cast<double>(in.truth.correct()) /
                         static_cast<double>(offered),
               offered - in.truth.correct(), offered, in.truth.duplicates(),
               in.truth.phantoms()));
  rep.note(fmt("delivery digest: %s (%zu deliveries)", f.digest.hex().c_str(),
               f.deliveries));
  if (!heap.exact()) rep.note("heap_peak_mb: bounded by input generation");
  t.attempted += offered;
  t.failed += in.truth.failures();
}

void stream_pair_layers(const Args& a, Report& rep, Tracer& tr, Tally& t,
                        bool overhead) {
  StreamInput in;
  make_stream(shard_seed(a.seed, 1), kTracedExchanges, kPayload, in);
  const auto profiles = profiles_of(in);
  const auto opt = options();
  Tracer off(false);

  if (overhead) {
    zigzag::StreamingReceiver rx0(opt);
    rx0.add_clients(profiles);
    feed(rx0, in.warmup, nullptr, off);
    TruthBook unscored = in.truth;
    const Feed plain = feed(rx0, in.samples, &unscored, off);
    zigzag::StreamingReceiver rx1(opt);
    rx1.add_clients(profiles);
    feed(rx1, in.warmup, nullptr, off);
    unscored = in.truth;
    Tracer probe(true);
    const Feed traced = feed(rx1, in.samples, &unscored, probe);
    rep.metric("trace.overhead_ratio", traced.wall_ms / plain.wall_ms, "ratio");
  }

  // The pipeline itself, with a span per push.
  zigzag::StreamingReceiver rx(opt);
  rx.add_clients(profiles);
  feed(rx, in.warmup, nullptr, off);
  const Feed f = feed(rx, in.samples, &in.truth, tr);
  check_framing(rep, f, in);
  t.attempted += in.truth.offered();
  t.failed += in.truth.failures();

  std::vector<CVec> windows;
  for (const auto& w : in.windows) windows.push_back(window_samples(in.samples, w));
  const std::size_t nw = windows.size();

  // 1. The stock decoder on every window.
  const phy::StandardReceiver std_rx(opt.receiver.rx);
  for (std::size_t w = 0; w < nw; ++w) {
    const auto sp = tr.span("StandardReceiver::decode", w);
    (void)std_rx.decode(windows[w]);
  }

  // 2. Collision detection, scored against the true starts.
  const zigzag::CollisionDetector det(opt.receiver.detector);
  std::vector<std::vector<zigzag::Detection>> dets(nw);
  std::size_t true_dets = 0, all_dets = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    {
      const auto sp = tr.span("CollisionDetector::detect", w);
      dets[w] = det.detect(windows[w], profiles);
    }
    for (const auto& d : dets[w]) {
      ++all_dets;
      for (const std::size_t s : in.windows[w].starts)
        if (std::abs(d.origin - static_cast<std::ptrdiff_t>(s)) <= 4) {
          ++true_dets;
          break;
        }
    }
  }

  // 3. §4.2.2 matching of each collision window's detections against the
  // collisions stored before it (the receiver keeps at most max_pending).
  zigzag::PacketMatcher matcher(opt.receiver.match);
  std::deque<std::size_t> stored;
  std::size_t scores = 0, accepted = 0;
  // pairs[e]: (first-window detection, retry-window detection) matches.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> pairs(
      in.exchanges);
  std::vector<std::size_t> first_of(in.exchanges, SIZE_MAX);
  for (std::size_t w = 0; w < nw; ++w) {
    const Window& win = in.windows[w];
    if (win.kind == WindowKind::Clean) continue;
    if (win.kind == WindowKind::First) first_of[win.exchange] = w;
    for (std::size_t j = 0; j < dets[w].size(); ++j) {
      bool ready = false;
      {
        const auto sp = tr.span("PacketMatcher::prepare", w);
        ready = matcher.prepare(windows[w], dets[w][j].origin);
      }
      if (!ready) continue;
      for (const std::size_t s : stored)
        for (std::size_t i = 0; i < dets[s].size(); ++i) {
          zigzag::MatchScore sc;
          {
            const auto sp = tr.span("PacketMatcher::score", w);
            sc = matcher.score(windows[s], dets[s][i].origin);
          }
          ++scores;
          if (!sc.matched) continue;
          ++accepted;
          if (win.kind == WindowKind::Retry && s == first_of[win.exchange])
            pairs[win.exchange].push_back({i, j});
        }
    }
    stored.push_back(w);
    while (stored.size() > opt.receiver.max_pending) stored.pop_front();
  }

  // 4. Joint decode of each exchange's matched pair.
  const zigzag::ZigZagDecoder dec(opt.receiver.decode, opt.receiver.rx);
  for (std::size_t e = 0; e < in.exchanges; ++e) {
    if (pairs[e].empty() || first_of[e] == SIZE_MAX) continue;
    const std::size_t w1 = first_of[e];
    std::size_t w2 = w1 + 1;
    while (in.windows[w2].kind != WindowKind::Retry) ++w2;
    zigzag::CollisionInput c1, c2;
    c1.samples = &windows[w1];
    c2.samples = &windows[w2];
    c2.is_retransmission = true;
    std::vector<bool> used1(dets[w1].size()), used2(dets[w2].size());
    std::size_t k = 0;
    for (const auto& [i, j] : pairs[e]) {
      if (used1[i] || used2[j]) continue;
      used1[i] = used2[j] = true;
      c1.placements.push_back({k, dets[w1][i]});
      c2.placements.push_back({k, dets[w2][j]});
      ++k;
    }
    const zigzag::CollisionInput ins[] = {c1, c2};
    const auto sp = tr.span("ZigZagDecoder::decode_pair", e);
    (void)dec.decode(ins, profiles, k);
  }

  // 5. The offline receiver on the same windows: the streaming contract
  // says the stream delivered exactly these packets.
  zigzag::ZigZagReceiver zr(opt.receiver);
  zr.add_clients(profiles);
  for (const auto& w : in.warmup_windows) (void)zr.receive(window_samples(in.warmup, w));
  Digest offline;
  std::size_t offline_n = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    std::vector<zigzag::Delivered> out;
    {
      const auto sp = tr.span("ZigZagReceiver::receive", w);
      out = zr.receive(windows[w]);
    }
    for (const auto& d : out) {
      offline.add(d.header.sender_id, d.header.seq, d.air_bits);
      ++offline_n;
    }
  }
  if (offline.hex() != f.digest.hex() || offline_n != f.deliveries)
    rep.fail(fmt("stream delivered %zu packets (digest %s), offline receive "
                 "%zu (digest %s)", f.deliveries, f.digest.hex().c_str(),
                 offline_n, offline.hex().c_str()));
  rep.note(fmt("stream_pair layers: %zu windows, stream digest %s == offline "
               "digest %s", nw, f.digest.hex().c_str(), offline.hex().c_str()));

  const double n = static_cast<double>(nw);
  // Push self time per window: ring, FrameSync and hint scanning. Pushes
  // that close no window do only that work; a window-closing push does it
  // plus ZigZagReceiver::receive, so it is charged the median non-closing
  // push. (Subtracting a separate receive() replay from the push total
  // leaves a difference smaller than the replay's own run-to-run noise.)
  rep.metric("zigzag.StreamingReceiver.push.self_ms",
             (std::accumulate(f.open_ms.begin(), f.open_ms.end(), 0.0) +
              static_cast<double>(f.close_ms.size()) * quantile(f.open_ms, 0.5)) /
                 n,
             "ms");
  rep.metric("zigzag.ZigZagReceiver.receive.ms_p50",
             quantile(tr.durations_ms("ZigZagReceiver::receive"), 0.5), "ms");
  rep.metric("phy.StandardReceiver.decode.ms_p50",
             quantile(tr.durations_ms("StandardReceiver::decode"), 0.5), "ms");
  rep.metric("phy.StandardReceiver.decode.calls", n, "count");
  rep.metric("zigzag.CollisionDetector.detect.ms_p50",
             quantile(tr.durations_ms("CollisionDetector::detect"), 0.5), "ms");
  rep.metric("zigzag.CollisionDetector.detect.true_ratio",
             all_dets ? static_cast<double>(true_dets) / static_cast<double>(all_dets)
                      : 0.0,
             "ratio");
  rep.metric("zigzag.PacketMatcher.score.us_p50",
             1e3 * quantile(tr.durations_ms("PacketMatcher::score"), 0.5), "us");
  rep.metric("zigzag.PacketMatcher.score.calls", static_cast<double>(scores),
             "count");
  rep.metric("zigzag.PacketMatcher.score.accept_ratio",
             scores ? static_cast<double>(accepted) / static_cast<double>(scores)
                    : 0.0,
             "ratio");
  rep.metric("zigzag.ZigZagDecoder.decode_pair.ms_p50",
             quantile(tr.durations_ms("ZigZagDecoder::decode_pair"), 0.5), "ms");
  rep.metric("common.alloc.per_window", static_cast<double>(f.push_allocs) / n,
             "count");

  // Kernels at the sizes this pipeline uses: the 256- and 2048-point
  // transforms SlidingCorrelator picks for the 64-sample preamble and the
  // 512-sample match span, and one detector correlation over a collision.
  for (const std::size_t size : {std::size_t{256}, std::size_t{2048}}) {
    const sig::Fft fft(size);
    Rng rng(size);
    CVec buf(size);
    for (auto& x : buf) x = rng.gaussian_c(1.0);
    std::vector<double> reps;
    for (int r = 0; r < 7; ++r) {
      const auto t0 = Clock::now();
      for (int i = 0; i < 400; ++i) fft.forward(buf.data());
      reps.push_back(ms_between(t0, Clock::now()) * 1e3 / 400.0);
    }
    rep.metric(fmt("signal.Fft.forward.n%zu.us", size), median(reps), "us");
  }
  {
    sig::SlidingCorrelator corr(phy::preamble_waveform());
    const CVec& rxw = windows[first_of[0] == SIZE_MAX ? 0 : first_of[0]];
    CVec out;
    std::vector<double> reps;
    for (int r = 0; r < 15; ++r) {
      const auto t0 = Clock::now();
      corr.prepare(rxw);
      corr.correlate(profiles[0].freq_offset, out);
      reps.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    rep.metric("signal.SlidingCorrelator.correlate.us", median(reps), "us");
  }
}

}  // namespace perf
