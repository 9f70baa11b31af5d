#include "zz/farm/farm.h"

#include <cmath>
#include <stdexcept>

#include "zz/common/alloc_hook.h"
#include "zz/common/check.h"
#include "zz/common/thread_pool.h"
#include "zz/signal/scratch.h"
#include "zz/testbed/episode.h"
#include "zz/zigzag/decoder.h"

namespace zz::farm {
namespace {

/// POD per-episode aggregate — the unit the merge accumulates. Fixed arrays
/// only, so a slot holds it without heap traffic.
struct EpisodeAgg {
  std::uint64_t rounds = 0;
  std::uint64_t concurrent_rounds = 0;
  std::uint64_t delivered = 0;
  std::uint64_t collisions_resolved = 0;
  std::uint64_t stream_samples = 0;
  std::uint64_t stream_windows = 0;
  std::uint64_t stream_deliveries = 0;
  std::uint64_t latency_sum = 0;
  std::array<std::uint64_t, kMaxCellSenders> per_flow{};
};

EpisodeAgg aggregate_stats(const testbed::ScenarioStats& s) {
  EpisodeAgg a;
  a.rounds = s.airtime_rounds;
  a.concurrent_rounds = s.concurrent_rounds;
  a.stream_samples = s.stream_samples;
  a.stream_windows = s.stream_windows;
  a.stream_deliveries = s.stream_deliveries;
  // ScenarioStats folds its integer tallies into rates; recover the exact
  // integers (the divisions were by the multiplier, so llround is exact).
  a.latency_sum = static_cast<std::uint64_t>(std::llround(
      s.mean_decode_latency * static_cast<double>(s.stream_deliveries)));
  ZZ_CHECK_LE(s.flows.size(), kMaxCellSenders);
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    a.per_flow[i] = s.flows[i].delivered;
    a.delivered += s.flows[i].delivered;
    a.collisions_resolved += static_cast<std::uint64_t>(std::llround(
        s.concurrent_throughput[i] * static_cast<double>(s.concurrent_rounds)));
  }
  return a;
}

void accumulate(CellResult& c, const EpisodeAgg& a) {
  ++c.episodes;
  c.rounds += a.rounds;
  c.concurrent_rounds += a.concurrent_rounds;
  c.delivered += a.delivered;
  c.collisions_resolved += a.collisions_resolved;
  c.stream_samples += a.stream_samples;
  c.stream_windows += a.stream_windows;
  c.stream_deliveries += a.stream_deliveries;
  c.latency_sum += a.latency_sum;
  for (std::size_t i = 0; i < kMaxCellSenders; ++i)
    c.per_flow_delivered[i] += a.per_flow[i];
}

/// The episode-seed discipline, shared verbatim by ApFarm and run_cell so
/// the scale-out and the serial reference draw identical streams.
std::uint64_t episode_seed(std::uint64_t farm_seed, std::size_t cell,
                           std::size_t episode) {
  return shard_seed(shard_seed(farm_seed, cell), episode);
}

EpisodeAgg play_episode(const CellSpec& spec, std::uint64_t seed,
                        const testbed::EpisodeResources& res) {
  Rng rng(seed);
  testbed::EpisodeStream es(spec.scenario, rng, res);
  while (!es.done()) es.step(rng);
  return aggregate_stats(es.finish());
}

void validate_cell(const CellSpec& cell) {
  const auto& sc = cell.scenario;
  if (sc.senders.empty())
    throw std::invalid_argument("ApFarm: cell has no senders");
  if (sc.senders.size() > kMaxCellSenders)
    throw std::invalid_argument("ApFarm: cell exceeds kMaxCellSenders");
  if (sc.mode != testbed::CollectMode::Live &&
      sc.mode != testbed::CollectMode::Streaming)
    throw std::invalid_argument(
        "ApFarm: cells are episode streams (Live/Streaming collection)");
  if (sc.receiver == testbed::ReceiverKind::AlgebraicMP)
    throw std::invalid_argument(
        "ApFarm: AlgebraicMP needs LoggedJoint collection");
  if (sc.mode == testbed::CollectMode::Streaming &&
      sc.receiver != testbed::ReceiverKind::ZigZag)
    throw std::invalid_argument(
        "ApFarm: Streaming collection is ZigZag-only");
}

}  // namespace

CellResult run_cell(const CellSpec& cell, std::size_t cell_index,
                    std::uint64_t seed, std::size_t episodes) {
  validate_cell(cell);
  CellResult out;
  out.cell = cell_index;
  for (std::size_t e = 0; e < episodes; ++e)
    accumulate(out,
               play_episode(cell, episode_seed(seed, cell_index, e), {}));
  return out;
}

struct ApFarm::Impl {
  std::vector<CellSpec> cells;
  FarmOptions opt;
  ThreadPool pool;
  /// One per stable worker id, reused by every episode that lands on the
  /// worker — the farm's only cross-episode state.
  std::vector<sig::ScratchArena> arenas;

  Impl(std::vector<CellSpec> cs, const FarmOptions& o)
      : cells(std::move(cs)), opt(o), pool(opt.workers),
        arenas(pool.size()) {
    if (cells.empty()) throw std::invalid_argument("ApFarm: no cells");
    for (const auto& c : cells) validate_cell(c);
  }

  /// Per-episode outcome, filled on the worker and merged serially after
  /// the pool barrier — per-episode slots rather than shared accumulators
  /// so no cross-thread accumulation order can exist at all.
  struct Slot {
    EpisodeAgg agg;
    std::uint64_t allocs = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_entries = 0;
  };

  void process(std::size_t cell, std::size_t e, std::size_t worker,
               Slot& slot) {
    AllocTally tally;
    {
      zigzag::DecodeCache cache;
      slot.agg = play_episode(cells[cell], episode_seed(opt.seed, cell, e),
                              {&cache, &arenas[worker]});
      slot.cache_hits = cache.hits();
      slot.cache_misses = cache.misses();
      slot.cache_entries = cache.size();
    }
    slot.allocs = tally.allocs();
  }

  FarmResult run(std::size_t epc) {
    const std::size_t n = cells.size() * epc;
    std::vector<Slot> slots(n);
    pool.parallel_for_sharded(n, [&](std::size_t i, std::size_t w) {
      process(i / epc, i % epc, w, slots[i]);
    });

    FarmResult out;
    out.cells.resize(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) out.cells[c].cell = c;
    // Merge in (cell, episode) order on this thread: the only summation
    // order that ever exists, independent of scheduling.
    for (std::size_t i = 0; i < n; ++i) {
      const Slot& s = slots[i];
      accumulate(out.cells[i / epc], s.agg);
      out.episode_allocs += s.allocs;
      out.decode_cache_hits += s.cache_hits;
      out.decode_cache_misses += s.cache_misses;
      out.decode_cache_entries += s.cache_entries;
    }
    out.episodes = n;
    for (const auto& c : out.cells) {
      out.rounds += c.rounds;
      out.delivered += c.delivered;
      out.collisions_resolved += c.collisions_resolved;
    }
    return out;
  }
};

ApFarm::ApFarm(std::vector<CellSpec> cells, FarmOptions options)
    : impl_(std::make_unique<Impl>(std::move(cells), options)) {}
ApFarm::~ApFarm() = default;

FarmResult ApFarm::run(std::size_t episodes_per_cell) {
  return impl_->run(episodes_per_cell);
}
std::size_t ApFarm::cells() const { return impl_->cells.size(); }
std::size_t ApFarm::workers() const { return impl_->pool.size(); }

}  // namespace zz::farm
