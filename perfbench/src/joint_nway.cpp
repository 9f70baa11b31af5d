// joint_nway: offline §5.7 joint decode. Each round's n ∈ {3, 4} hidden
// senders' collisions are decoded the way the testbed's LoggedJoint route
// does it: equations ordered best-conditioned first, the Assertion 4.5.1
// pre-check, ZigZagDecoder::decode with nway_decode_options() and one
// DecodeCache per round, and one extra equation per failed decode.
#include <algorithm>
#include <optional>

#include "inputs.h"
#include "workloads.h"
#include "zz/common/alloc_hook.h"
#include "zz/common/thread_pool.h"
#include "zz/signal/interp.h"
#include "zz/testbed/scenario.h"
#include "zz/zigzag/scheduler.h"

namespace perf {
namespace {

using namespace zz;

constexpr std::size_t kPayload = 80;
/// Rounds per second of --seconds: 100 rounds (about 6 s of decoding per
/// pass on a 2.1 GHz core) at the default 20 s; a pass needs 100 rounds for
/// its own latency p90.
constexpr std::size_t kRoundsPerSecond = 5;
constexpr int kPasses = 8;
/// Fresh set-ups before each pass; setup_s is the best pass's median.
constexpr int kSetupsPerPass = 3;
/// Enough rounds for the traced replay to hold six hard rounds, so its
/// top-up and DecodeCache figures are the same share on every seed.
constexpr std::size_t kTracedRounds = 40;
/// Set-up decodes round 0 (n = 3) of its own fixed-seed clients, so set-up
/// does the same work whatever the run's seed; round kFourEvery − 1 (n = 4)
/// is the worst-case round of the heap measurement.
constexpr std::uint64_t kWarmupSeed = 0x3a7e;

struct RoundResult {
  double ms = 0.0;
  std::size_t attempts = 0;
  std::size_t samples = 0;  ///< samples of every reception decoded
  std::size_t cache_hits = 0;
  std::size_t cache_lookups = 0;
  std::size_t chunks = 0;
  std::size_t stall_breaks = 0;
  std::size_t allocs = 0;  ///< heap allocations inside ZigZagDecoder::decode
};

zigzag::Pattern pattern_of(const Round& rd, std::size_t used) {
  zigzag::Pattern pat;
  const std::size_t n = rd.clients.size();
  pat.lengths.assign(n, rd.pkt_symbols);
  pat.collisions.resize(used);
  for (std::size_t c = 0; c < used; ++c)
    for (std::size_t i = 0; i < n; ++i)
      pat.collisions[c].push_back(
          {i, static_cast<std::ptrdiff_t>(rd.starts[c][i] / 2)});
  return pat;
}

/// The round's first `used` equations with each packet placed by
/// estimate_at_peak at its true start, as the LoggedJoint route does.
std::vector<zigzag::CollisionInput> place(
    const Round& rd, const std::vector<phy::SenderProfile>& profiles,
    std::size_t used) {
  std::vector<zigzag::CollisionInput> inputs(used);
  for (std::size_t c = 0; c < used; ++c) {
    inputs[c].samples = &rd.receptions[c];
    inputs[c].is_retransmission = c > 0;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const auto pe = phy::estimate_at_peak(rd.receptions[c], rd.starts[c][i],
                                            profiles[i].freq_offset);
      zigzag::Detection det;
      det.origin = pe.origin;
      det.mu = pe.mu;
      det.h = pe.h;
      det.freq_offset = profiles[i].freq_offset;
      det.metric = pe.metric;
      det.profile_index = static_cast<int>(i);
      inputs[c].placements.push_back({i, det});
    }
  }
  return inputs;
}

std::vector<phy::SenderProfile> profiles_of(const Round& rd) {
  std::vector<phy::SenderProfile> p;
  for (const auto& c : rd.clients) p.push_back(c.profile);
  return p;
}

/// One round, mirroring the testbed's LoggedJoint decode loop. Scores the
/// final decode into `truth` and `digest` (when given) and returns its cost.
RoundResult decode_round(const Round& rd, const JointInput& in,
                         const zigzag::ZigZagDecoder& dec, TruthBook* truth,
                         Tracer& tr, std::size_t id, Digest* digest = nullptr) {
  RoundResult out;
  const std::size_t n = rd.clients.size();
  const auto profiles = profiles_of(rd);

  const auto t0 = Clock::now();
  const auto sp = tr.span("round", id);
  std::size_t used = n, extra = 0;
  while (extra < kSpareEquations &&
         !zigzag::pairwise_condition_holds(pattern_of(rd, used))) {
    ++used;
    ++extra;
  }
  zigzag::DecodeCache cache;
  zigzag::DecodeResult res;
  for (;;) {
    std::vector<zigzag::CollisionInput> inputs;
    {
      const auto est = tr.span("estimate_at_peak", id);
      inputs = place(rd, profiles, used);
    }
    std::vector<zigzag::CollisionInput> ordered;
    for (const std::size_t c : zigzag::order_equations(pattern_of(rd, used)))
      ordered.push_back(std::move(inputs[c]));
    {
      const auto d = tr.span("ZigZagDecoder::decode", id);
      const AllocTally allocs;
      res = dec.decode(ordered, profiles, n, &cache);
      out.allocs += allocs.allocs();
    }
    ++out.attempts;
    out.chunks += res.chunks;
    out.stall_breaks += res.stall_breaks;
    bool all_ok = res.packets.size() == n;
    for (std::size_t i = 0; all_ok && i < n; ++i)
      all_ok = res.packets[i].header_ok &&
               in.truth.matches(rd.headers[i], res.packets[i].header,
                                res.packets[i].air_bits);
    if (all_ok || extra >= kSpareEquations) break;
    ++used;  // a failed decode requests one more retransmission
    ++extra;
  }
  out.ms = ms_between(t0, Clock::now());
  for (std::size_t c = 0; c < used; ++c) out.samples += rd.receptions[c].size();
  out.cache_hits = cache.hits();
  out.cache_lookups = cache.hits() + cache.misses();
  for (const auto& p : res.packets) {
    if (!p.header_ok) continue;
    if (truth) truth->score(p.header, p.air_bits);
    if (digest) digest->add(p.header.sender_id, p.header.seq, p.air_bits);
  }
  return out;
}

/// The largest round the workload can reach: an n = 4 round decoded at
/// every width from n to n + kSpareEquations equations through one cache,
/// as if each decode failed. Set-up runs it once, so the run's heap peak is
/// this worst case rather than whichever round a seed happens to make
/// largest.
void decode_worst_case(const Round& rd, const zigzag::ZigZagDecoder& dec) {
  const auto profiles = profiles_of(rd);
  zigzag::DecodeCache cache;
  for (std::size_t used = profiles.size();
       used <= profiles.size() + kSpareEquations; ++used)
    (void)dec.decode(place(rd, profiles, used), profiles, profiles.size(),
                     &cache);
}

struct Pass {
  std::vector<RoundResult> rounds;
  double wall_ms = 0.0;
};

/// Decode every round once. A timed pass (`repin`) moves to the fastest
/// vCPU between rounds.
Pass decode_all(const JointInput& in, const zigzag::ZigZagDecoder& dec,
                TruthBook* truth, Tracer& tr, Digest* digest = nullptr,
                bool repin = false) {
  Pass p;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < in.rounds.size(); ++r) {
    if (repin) pin_to_fastest_cpu();
    p.rounds.push_back(
        decode_round(in.rounds[r], in, dec, truth, tr, r, digest));
  }
  p.wall_ms = ms_between(t0, Clock::now());
  return p;
}

}  // namespace

void joint_nway(const Args& a, Report& rep, Tally& t) {
  JointInput in;
  make_joint(shard_seed(a.seed, 2),
             kRoundsPerSecond * static_cast<std::size_t>(a.seconds), kPayload,
             in);
  JointInput warm;
  make_joint(kWarmupSeed, kFourEvery, kPayload, warm);
  Tracer off(false);

  const HeapWatch heap;
  std::optional<zigzag::ZigZagDecoder> dec;
  std::vector<Pass> passes;
  std::vector<PassTimes> times;
  Digest digest;
  for (int k = 0; k < kPasses; ++k) {
    pin_to_fastest_cpu();
    std::vector<double> setups;
    for (int s = 0; s < kSetupsPerPass; ++s) {
      const auto t0 = Clock::now();
      dec.emplace(testbed::nway_decode_options());
      (void)decode_round(warm.rounds[0], warm, *dec, nullptr, off, 0);
      setups.push_back(ms_between(t0, Clock::now()) / 1e3);
    }
    if (k == 0) decode_worst_case(warm.rounds[kFourEvery - 1], *dec);
    passes.push_back(decode_all(in, *dec, k == 0 ? &in.truth : nullptr, off,
                                k == 0 ? &digest : nullptr, true));
    std::vector<double> round_ms;
    for (std::size_t r = 0; r < in.rounds.size(); ++r) {
      round_ms.push_back(passes.back().rounds[r].ms);
      if (passes.back().rounds[r].attempts != passes[0].rounds[r].attempts)
        rep.fail(fmt("round %zu took %zu decodes in one pass, %zu in another",
                     r, passes.back().rounds[r].attempts,
                     passes[0].rounds[r].attempts));
    }
    times.push_back(pass_times(setups, round_ms, round_ms));
  }
  const double heap_mb = heap.peak_mb();

  const PassTimes best = best_pass(times);
  const double busy_ms = best.busy_ms;
  std::size_t samples = 0, attempts = 0, topped_up = 0, hits = 0, lookups = 0;
  for (const auto& r : passes[0].rounds) {
    samples += r.samples;
    attempts += r.attempts;
    topped_up += r.attempts > 1;
    hits += r.cache_hits;
    lookups += r.cache_lookups;
  }
  rep.metric("samples_per_s", static_cast<double>(samples) / (busy_ms / 1e3),
             "1/s");
  rep.metric("pkts_per_s",
             static_cast<double>(in.truth.correct()) / (busy_ms / 1e3), "1/s");
  report_latency(rep, best, "rounds");
  rep.metric("setup_s", best.setup_s, "s");
  rep.metric("heap_peak_mb", heap_mb, "MB");

  const auto offered = in.truth.offered();
  rep.note(fmt("joint_nway: %zu rounds, %zu decode attempts, %zu rounds "
               "topped up, DecodeCache %zu hits of %zu lookups, %zu samples "
               "decoded", in.rounds.size(), attempts, topped_up, hits, lookups,
               samples));
  rep.note(fmt("pkt_loss: %.4f ratio (%zu of %zu offered not delivered "
               "correct; %zu duplicates, %zu phantoms)",
               1.0 - static_cast<double>(in.truth.correct()) /
                         static_cast<double>(offered),
               offered - in.truth.correct(), offered, in.truth.duplicates(),
               in.truth.phantoms()));
  rep.note(fmt("delivery digest: %s", digest.hex().c_str()));
  if (!heap.exact()) rep.note("heap_peak_mb: bounded by input generation");
  t.attempted += offered;
  t.failed += in.truth.failures();
}

void joint_nway_layers(const Args& a, Report& rep, Tracer& tr, Tally& t,
                       bool overhead) {
  JointInput in;
  make_joint(shard_seed(a.seed, 2), kTracedRounds, kPayload, in);
  JointInput warm;
  make_joint(kWarmupSeed, 1, kPayload, warm);
  const zigzag::ZigZagDecoder dec(testbed::nway_decode_options());
  Tracer off(false);
  (void)decode_round(warm.rounds[0], warm, dec, nullptr, off, 0);

  if (overhead) {
    const Pass plain = decode_all(in, dec, nullptr, off);
    Tracer probe(true);
    const Pass traced = decode_all(in, dec, nullptr, probe);
    rep.metric("trace.overhead_ratio", traced.wall_ms / plain.wall_ms, "ratio");
  }

  const Pass p = decode_all(in, dec, &in.truth, tr);
  t.attempted += in.truth.offered();
  t.failed += in.truth.failures();

  std::size_t attempts = 0, chunks = 0, stalls = 0, hits = 0, lookups = 0;
  std::size_t allocs = 0;
  for (const auto& r : p.rounds) {
    allocs += r.allocs;
    attempts += r.attempts;
    chunks += r.chunks;
    stalls += r.stall_breaks;
    hits += r.cache_hits;
    lookups += r.cache_lookups;
  }
  const double calls = static_cast<double>(attempts);
  const double rounds = static_cast<double>(in.rounds.size());
  rep.metric("zigzag.ZigZagDecoder.decode.ms_p50",
             quantile(tr.durations_ms("ZigZagDecoder::decode"), 0.5), "ms");
  rep.metric("zigzag.ZigZagDecoder.decode.chunks_per_call",
             static_cast<double>(chunks) / calls, "count");
  rep.metric("zigzag.ZigZagDecoder.decode.stall_breaks",
             static_cast<double>(stalls) / calls, "count");
  rep.metric("zigzag.DecodeCache.hit_ratio",
             lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0,
             "ratio");
  rep.metric("zigzag.decode.attempts_per_round", calls / rounds, "count");
  rep.metric("common.alloc.per_round", static_cast<double>(allocs) / rounds,
             "count");
  rep.note(fmt("joint_nway layers: %zu rounds, %zu decodes, %zu of %zu "
               "packets correct", in.rounds.size(), attempts,
               in.truth.correct(), in.truth.offered()));

  // Image-render kernels at this workload's packet length: one packet's
  // sinc fetch positions and one packet image rendered into a reception.
  const Round& rd = in.rounds[0];
  const CVec& rx = rd.receptions[0];
  const sig::SincInterpolator interp(8);
  std::vector<double> pos(rd.pkt_symbols);
  for (std::size_t k = 0; k < pos.size(); ++k)
    pos[k] = static_cast<double>(rd.starts[0][0]) + 2.0 * static_cast<double>(k) + 0.25;
  CVec fetched(pos.size());
  CVec symbols(rd.pkt_symbols, cplx{1.0, 0.0});
  for (std::size_t k = 0; k < symbols.size(); k += 3) symbols[k] = -symbols[k];
  CVec canvas(rx.size());
  std::vector<double> interp_us, render_us;
  for (int r = 0; r < 15; ++r) {
    auto t0 = Clock::now();
    interp.at_batch(rx, pos, fetched.data());
    interp_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    t0 = Clock::now();
    chan::add_signal(canvas, static_cast<std::ptrdiff_t>(rd.starts[0][0]), symbols,
                     rd.clients[0].channel);
    render_us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  rep.metric("signal.SincInterpolator.at_batch.us", median(interp_us), "us");
  rep.metric("chan.add_signal.us", median(render_us), "us");
}

}  // namespace perf
