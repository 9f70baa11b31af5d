// The AP-farm throughput engine: many independent AP cells at scale.
//
// A deployment-sized ZigZag evaluation is not one hidden-terminal pair but
// a building of them: N access points, each serving its own cell of
// saturated senders, each an endless stream of collision episodes. ApFarm
// runs that shape on one machine: every cell is a sequence of episodes —
// one episode is one full Live/Streaming scenario played through
// testbed::EpisodeStream — and the (cell, episode) grid is multiplexed
// over a work-stealing worker pool (ThreadPool::parallel_for_sharded).
//
// Determinism is the load-bearing property. Every episode draws from its
// own RNG stream, sharded twice: cell_seed = shard_seed(options.seed,
// cell) and episode_seed = shard_seed(cell_seed, episode). Episode results
// are integer aggregates accumulated into per-episode slots and merged in
// (cell, episode) order on the calling thread, so FarmResult is
// bit-identical at any worker count — the farm_test pins 1/2/4/8 workers
// against each other and against the serial run_cell reference.
//
// Every episode runs the engine: the paper's AP decodes every collision it
// hears, and so does each cell. An episode gets its own DecodeCache (the
// receiver's chunk-decode memo, dropped with the episode — fingerprints
// hash the samples, so no other episode could ever hit its entries) and
// borrows its worker's ScratchArena, whose capacity plateaus after the
// first episodes. The arenas are the farm's only cross-episode state, so
// the retained heap stays flat however many episodes a farm plays (gated
// by the allocation-counting hook, see tests/farm_soak_test.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "zz/testbed/scenario.h"

namespace zz::farm {

/// One AP cell: the scenario its senders and receiver play every episode.
/// Streaming collection is the headline configuration (the AP is the
/// incremental sample-in → packet-out pipeline); Live works identically.
/// LoggedJoint/SlottedAloha are not episode streams and are rejected.
struct CellSpec {
  testbed::Scenario scenario;
};

/// Sender count ceiling per cell — keeps episode aggregates POD (fixed
/// arrays merged without heap traffic).
inline constexpr std::size_t kMaxCellSenders = 8;

struct FarmOptions {
  std::uint64_t seed = 1;      ///< farm-level RNG shard base
  std::size_t workers = 0;     ///< pool size; 0 = one per hardware thread
};

/// Integer aggregate of the episodes one cell has played. All fields are
/// exact sums of per-episode integers, so accumulation order cannot change
/// them; the doubles below are derived at read time.
struct CellResult {
  std::size_t cell = 0;
  std::uint64_t episodes = 0;
  std::uint64_t rounds = 0;               ///< airtime rounds
  std::uint64_t concurrent_rounds = 0;    ///< rounds with ≥2 backlogged
  std::uint64_t delivered = 0;            ///< packets delivered (all flows)
  std::uint64_t collisions_resolved = 0;  ///< deliveries out of contended rounds
  std::uint64_t stream_samples = 0;
  std::uint64_t stream_windows = 0;
  std::uint64_t stream_deliveries = 0;
  std::uint64_t latency_sum = 0;  ///< summed per-delivery decode latency
  std::array<std::uint64_t, kMaxCellSenders> per_flow_delivered{};

  /// Packets per airtime round, the paper's throughput unit.
  double throughput() const {
    return rounds ? static_cast<double>(delivered) / static_cast<double>(rounds)
                  : 0.0;
  }
};

struct FarmResult {
  std::vector<CellResult> cells;  ///< indexed by cell, merge order pinned
  std::uint64_t episodes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t delivered = 0;
  std::uint64_t collisions_resolved = 0;
  /// operator new calls observed inside episode processing (episode run
  /// plus its DecodeCache, slot accumulation) summed over all episodes.
  std::uint64_t episode_allocs = 0;
  /// Per-episode DecodeCache totals summed over this run's episodes —
  /// exact, and the same at any worker count.
  std::uint64_t decode_cache_hits = 0;
  std::uint64_t decode_cache_misses = 0;
  std::uint64_t decode_cache_entries = 0;

  double throughput() const {
    return rounds ? static_cast<double>(delivered) / static_cast<double>(rounds)
                  : 0.0;
  }
};

/// Serial reference: cell `cell_index` of a farm configured with `seed`,
/// played for `episodes` episodes with no pool, no decode cache and no
/// arena. ApFarm's per-cell results must be bit-identical to this
/// (test-pinned) — it is the definition of what the scale-out computes.
CellResult run_cell(const CellSpec& cell, std::size_t cell_index,
                    std::uint64_t seed, std::size_t episodes);

class ApFarm {
 public:
  /// Validates every cell (Live/Streaming collection, ≤ kMaxCellSenders
  /// senders) and builds the pool plus per-worker resources. Throws
  /// std::invalid_argument on an invalid cell or an empty farm.
  ApFarm(std::vector<CellSpec> cells, FarmOptions options = {});
  ~ApFarm();
  ApFarm(const ApFarm&) = delete;
  ApFarm& operator=(const ApFarm&) = delete;

  /// Play `episodes_per_cell` episodes of every cell, fanned out over the
  /// pool, and return the merged result. Episode numbering restarts at 0
  /// each call, so a second run() replays the same seeds — through the
  /// engine again, with only the warm arenas carried over. Counters in the
  /// result cover this run only.
  FarmResult run(std::size_t episodes_per_cell);

  std::size_t cells() const;
  std::size_t workers() const;  ///< resolved pool size

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace zz::farm
