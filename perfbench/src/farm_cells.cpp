// farm_cells: the AP farm in throughput mode. Heterogeneous Streaming cells
// (two and three hidden senders, 10–12 dB) played for a fixed episode
// count in one ApFarm::run() on two workers.
#include <algorithm>
#include <optional>

#include "workloads.h"
#include "zz/common/alloc_hook.h"
#include "zz/common/rng.h"
#include "zz/common/thread_pool.h"
#include "zz/farm/farm.h"
#include "zz/testbed/episode.h"

namespace perf {
namespace {

using namespace zz;

/// Two workers, never "one per hardware thread", so the load stays the
/// same on any machine with at least two cores.
constexpr std::size_t kWorkers = 2;
/// Set-ups per untraced run: two on their own, then one per timed pass.
constexpr int kExtraSetups = 2;
constexpr int kPasses = 3;  ///< timed run() passes, each on a fresh farm
constexpr int kReplayPasses = 2;
constexpr std::size_t kPacketsPerSender = 1;
/// Episodes per cell per 10 s of --seconds (40 per cell, 160 in all, at
/// the default 20 s: enough for a p90 over the serial replay).
constexpr std::size_t kEpisodesPer10s = 20;
/// Traced run: worker-scaling runs and the overhead probe play
/// kTracedEpisodes per cell; the episode-time replay plays kReplayEpisodes
/// per cell, so its p90 has ten samples beyond it.
constexpr std::size_t kTracedEpisodes = 12;
constexpr std::size_t kReplayEpisodes = 25;
constexpr std::uint64_t kWarmupSeed = 0xfa4e;

std::vector<farm::CellSpec> cells() {
  struct Shape {
    std::size_t n;
    double snr_db;
    std::size_t payload_bytes;
  };
  // Three pair cells and one triple cell with shorter frames: pairs are
  // three quarters of the episodes (the latency p50 sits among them) and
  // the triples set the p90 without dominating the run's work.
  const Shape shapes[] = {
      {2, 12.0, 100}, {2, 11.0, 100}, {2, 10.0, 100}, {3, 11.5, 60}};
  std::vector<farm::CellSpec> out;
  for (const auto& s : shapes) {
    testbed::ExperimentConfig cfg;
    cfg.packets_per_sender = kPacketsPerSender;
    cfg.payload_bytes = s.payload_bytes;
    // Standard CWmax: with a tighter window, n = 3 retransmissions repeat
    // offsets and nothing is decodable on any route.
    cfg.timing.cw_max = 1023;
    farm::CellSpec cell;
    cell.scenario = testbed::hidden_n_scenario(s.n, s.snr_db,
                                               testbed::ReceiverKind::ZigZag, cfg);
    cell.scenario.mode = testbed::CollectMode::Streaming;
    // Heterogeneous senders within the cell: 0.5 dB steps below the cell SNR.
    for (std::size_t i = 0; i < s.n; ++i)
      cell.scenario.senders[i].snr_db = s.snr_db - 0.5 * static_cast<double>(i);
    out.push_back(cell);
  }
  return out;
}

std::size_t offered(const std::vector<farm::CellSpec>& cs, std::size_t episodes) {
  std::size_t n = 0;
  for (const auto& c : cs) n += c.scenario.senders.size() * kPacketsPerSender;
  return n * episodes;
}

double total_samples(const farm::FarmResult& r) {
  double s = 0.0;
  for (const auto& c : r.cells) s += static_cast<double>(c.stream_samples);
  return s;
}

/// Lazy process-wide state (preamble waveforms, FFT set-up) warmed by one
/// fixed-seed episode of the first cell on the calling thread; the farm's
/// own arenas and cache shards start cold, as a fresh farm's do.
void warm_up(const std::vector<farm::CellSpec>& cs) {
  Rng rng(kWarmupSeed);
  testbed::EpisodeStream es(cs[0].scenario, rng);
  while (!es.done()) es.step(rng);
  (void)es.finish();
}

/// The serial reference: every (cell, episode) of the farm replayed on the
/// calling thread through testbed::EpisodeStream with the farm's seed
/// discipline (cell seed = shard_seed(seed, cell), episode seed =
/// shard_seed(cell seed, episode)). Per-cell sums must equal the farm's
/// result; the per-episode wall times are the farm's request latency.
struct Replay {
  std::vector<farm::CellResult> cells;
  std::vector<double> episode_ms;
};

Replay replay(const std::vector<farm::CellSpec>& cs, std::uint64_t seed,
              std::size_t episodes, Tracer& tr) {
  Replay out;
  out.cells.resize(cs.size());
  for (std::size_t c = 0; c < cs.size(); ++c)
    for (std::size_t e = 0; e < episodes; ++e) {
      const std::size_t id = c * episodes + e;
      const auto t0 = Clock::now();
      testbed::ScenarioStats st;
      {
        const auto sp = tr.span("EpisodeStream::episode", id);
        Rng rng(shard_seed(shard_seed(seed, c), e));
        testbed::EpisodeStream es(cs[c].scenario, rng);
        while (!es.done()) es.step(rng);
        st = es.finish();
      }
      out.episode_ms.push_back(ms_between(t0, Clock::now()));
      farm::CellResult& r = out.cells[c];
      ++r.episodes;
      r.rounds += st.airtime_rounds;
      r.stream_samples += st.stream_samples;
      r.stream_windows += st.stream_windows;
      r.stream_deliveries += st.stream_deliveries;
      for (const auto& f : st.flows) r.delivered += f.delivered;
    }
  return out;
}

void check_against(Report& rep, const farm::FarmResult& got,
                   const std::vector<farm::CellResult>& want, const char* what) {
  for (std::size_t c = 0; c < want.size(); ++c) {
    const auto& g = got.cells[c];
    const auto& w = want[c];
    if (g.episodes != w.episodes || g.rounds != w.rounds ||
        g.delivered != w.delivered || g.stream_samples != w.stream_samples ||
        g.stream_windows != w.stream_windows ||
        g.stream_deliveries != w.stream_deliveries)
      rep.fail(fmt("farm cell %zu differs from %s (delivered %llu vs %llu)", c,
                   what, static_cast<unsigned long long>(g.delivered),
                   static_cast<unsigned long long>(w.delivered)));
  }
}

farm::FarmOptions farm_options(std::uint64_t seed, std::size_t workers) {
  farm::FarmOptions o;
  o.seed = seed;
  o.workers = workers;
  return o;
}

}  // namespace

void farm_cells(const Args& a, Report& rep, Tally& t) {
  const auto cs = cells();
  const std::uint64_t seed = shard_seed(a.seed, 3);
  const std::size_t episodes =
      (kEpisodesPer10s * static_cast<std::size_t>(a.seconds) + 9) / 10;

  const HeapWatch heap;
  std::vector<double> setups, run_s;
  std::optional<farm::FarmResult> r;
  for (int k = 0; k < kExtraSetups + kPasses; ++k) {
    const auto t0 = Clock::now();
    farm::ApFarm f(cs, farm_options(seed, kWorkers));
    warm_up(cs);
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (k < kExtraSetups) continue;
    const auto t1 = Clock::now();
    farm::FarmResult got = f.run(episodes);
    run_s.push_back(ms_between(t1, Clock::now()) / 1e3);
    if (r) check_against(rep, got, r->cells, "an earlier pass");
    else r = std::move(got);
  }
  const double heap_mb = heap.peak_mb();
  const double wall_s = *std::min_element(run_s.begin(), run_s.end());

  // The serial replay checks the farm and times each episode; the latency
  // percentiles are the best replay pass's.
  Tracer off(false);
  std::vector<PassTimes> replays;
  for (int k = 0; k < kReplayPasses; ++k) {
    const Replay ref = replay(cs, seed, episodes, off);
    check_against(rep, *r, ref.cells, "the serial EpisodeStream replay");
    replays.push_back(pass_times({}, ref.episode_ms, ref.episode_ms));
  }

  rep.metric("samples_per_s", total_samples(*r) / wall_s, "1/s");
  rep.metric("pkts_per_s", static_cast<double>(r->delivered) / wall_s, "1/s");
  report_latency(rep, best_pass(replays), "episodes (serial replay)");
  rep.metric("setup_s", median(setups), "s");
  rep.metric("heap_peak_mb", heap_mb, "MB");

  const std::size_t off_n = offered(cs, episodes);
  rep.note(fmt("farm_cells: %zu cells x %zu episodes on %zu workers, %llu "
               "rounds, %.0f samples, run() %.3f s",
               cs.size(), episodes, kWorkers,
               static_cast<unsigned long long>(r->rounds), total_samples(*r),
               wall_s));
  rep.note(fmt("pkt_loss: %.4f ratio (%llu of %zu offered delivered correct)",
               1.0 - static_cast<double>(r->delivered) / static_cast<double>(off_n),
               static_cast<unsigned long long>(r->delivered), off_n));
  t.attempted += off_n;
}

void farm_cells_layers(const Args& a, Report& rep, Tracer& tr, Tally& t,
                       bool overhead) {
  const auto cs = cells();
  const std::uint64_t seed = shard_seed(a.seed, 3);
  warm_up(cs);

  const auto timed_run = [&](std::size_t workers, double* s) {
    farm::ApFarm f(cs, farm_options(seed, workers));
    const auto sp = tr.span("ApFarm::run", workers);
    const auto t0 = Clock::now();
    farm::FarmResult r = f.run(kTracedEpisodes);
    *s = ms_between(t0, Clock::now()) / 1e3;
    return r;
  };
  double s1 = 0.0, s2 = 0.0;
  const farm::FarmResult one = timed_run(1, &s1);
  const farm::FarmResult two = timed_run(kWorkers, &s2);
  check_against(rep, two, one.cells, "the 1-worker farm");
  t.attempted += offered(cs, kTracedEpisodes);

  if (overhead) {
    Tracer off(false), probe(true);
    const auto t0 = Clock::now();
    (void)replay(cs, seed, kTracedEpisodes, off);
    const double plain = ms_between(t0, Clock::now());
    const auto t1 = Clock::now();
    (void)replay(cs, seed, kTracedEpisodes, probe);
    rep.metric("trace.overhead_ratio", ms_between(t1, Clock::now()) / plain,
               "ratio");
  }
  (void)replay(cs, seed, kReplayEpisodes, tr);

  const auto ep = tr.durations_ms("EpisodeStream::episode");
  for (const double p : {0.5, 0.9}) {
    const Percentile q = percentile(ep, p);
    if (!q.supported)
      rep.fail(fmt("episode p%.0f over %zu replays is unsupported", 100 * p,
                   q.samples));
    rep.metric(p == 0.5 ? "testbed.EpisodeStream.episode_ms_p50"
                        : "testbed.EpisodeStream.episode_ms_p90",
               q.value, "ms");
  }
  // Equal work on both sides, so the pkts/s ratio is the wall-time ratio.
  rep.metric("farm.scaling_eff", s1 / (static_cast<double>(kWorkers) * s2),
             "ratio");
  rep.metric("farm.DecodeCache.entries",
             static_cast<double>(two.decode_cache_entries), "count");
  const double lookups =
      static_cast<double>(two.decode_cache_hits + two.decode_cache_misses);
  rep.metric("farm.DecodeCache.hit_ratio",
             lookups > 0 ? static_cast<double>(two.decode_cache_hits) / lookups
                         : 0.0,
             "ratio");
  rep.metric("farm.allocs_per_episode",
             static_cast<double>(two.episode_allocs) /
                 static_cast<double>(two.episodes),
             "count");
  rep.note(fmt("farm_cells layers: %llu episodes, 1 worker %.3f s, %zu "
               "workers %.3f s, episode p90 over %zu replays",
               static_cast<unsigned long long>(two.episodes), s1, kWorkers, s2,
               ep.size()));
}

}  // namespace perf
