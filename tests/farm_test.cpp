// Tests for the AP-farm throughput engine (zz/farm/farm.h).
//
// The contract under test is determinism at scale: a farm's merged result
// is a pure function of (cells, seed, episodes) — the worker count, the
// work-stealing schedule, the per-episode decode caches and the
// episode-persistent arenas must all be invisible in the output. The pins
// compare 1/2/4/8-worker farms bit for bit against each other and against
// the serial run_cell reference, which is the definition of the
// computation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "zz/farm/farm.h"
#include "zz/testbed/episode.h"
#include "zz/testbed/scenario.h"

namespace zz::farm {
namespace {

using testbed::CollectMode;
using testbed::ReceiverKind;

CellSpec make_cell(double snr_db, std::size_t packets, CollectMode mode,
                   std::size_t senders = 2) {
  CellSpec cell;
  cell.scenario = testbed::hidden_n_scenario(senders, snr_db,
                                             ReceiverKind::ZigZag);
  cell.scenario.mode = mode;
  cell.scenario.cfg.packets_per_sender = packets;
  cell.scenario.cfg.payload_bytes = 200;
  return cell;
}

/// A small heterogeneous farm: cells differ in SNR, backlog and collection
/// mode so a merge that permuted or double-counted cells cannot cancel out.
std::vector<CellSpec> small_farm() {
  return {make_cell(12.0, 2, CollectMode::Live),
          make_cell(10.0, 3, CollectMode::Live),
          make_cell(11.0, 2, CollectMode::Streaming)};
}

void expect_cells_eq(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.concurrent_rounds, b.concurrent_rounds);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.collisions_resolved, b.collisions_resolved);
  EXPECT_EQ(a.stream_samples, b.stream_samples);
  EXPECT_EQ(a.stream_windows, b.stream_windows);
  EXPECT_EQ(a.stream_deliveries, b.stream_deliveries);
  EXPECT_EQ(a.latency_sum, b.latency_sum);
  EXPECT_EQ(a.per_flow_delivered, b.per_flow_delivered);
}

void expect_farms_eq(const FarmResult& a, const FarmResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c)
    expect_cells_eq(a.cells[c], b.cells[c]);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.collisions_resolved, b.collisions_resolved);
}

void expect_cache_counts_eq(const FarmResult& a, const FarmResult& b) {
  EXPECT_EQ(a.decode_cache_hits, b.decode_cache_hits);
  EXPECT_EQ(a.decode_cache_misses, b.decode_cache_misses);
  EXPECT_EQ(a.decode_cache_entries, b.decode_cache_entries);
}

TEST(ApFarm, BitIdenticalAtAnyWorkerCount) {
  // The headline determinism pin: the same farm at 1, 2, 4 and 8 workers,
  // over several farm seeds. Identical results index-for-index — worker
  // count only changes wall clock. Each farm runs twice: the decode-cache
  // counts are per-episode sums, so they too must match across worker
  // counts and across the two runs (no cache outlives its episode).
  constexpr std::size_t kEpisodes = 2;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    FarmOptions base;
    base.seed = seed;
    base.workers = 1;
    ApFarm reference(small_farm(), base);
    const FarmResult ref = reference.run(kEpisodes);
    EXPECT_GT(ref.delivered, 0u) << "farm did nothing at seed " << seed;
    EXPECT_GT(ref.decode_cache_misses, 0u);
    expect_cache_counts_eq(reference.run(kEpisodes), ref);

    for (const std::size_t workers : {2u, 4u, 8u}) {
      FarmOptions opt = base;
      opt.workers = workers;
      ApFarm farm(small_farm(), opt);
      EXPECT_EQ(farm.workers(), workers);
      const FarmResult first = farm.run(kEpisodes);
      expect_farms_eq(first, ref);
      expect_cache_counts_eq(first, ref);
      const FarmResult second = farm.run(kEpisodes);
      expect_farms_eq(second, ref);
      expect_cache_counts_eq(second, ref);
    }
  }
}

TEST(ApFarm, PerCellStatsEqualStandaloneReference) {
  // Each merged per-cell aggregate equals run_cell — the serial,
  // pool-free, cache-free, arena-free definition of the computation.
  const auto cells = small_farm();
  FarmOptions opt;
  opt.seed = 21;
  opt.workers = 4;
  ApFarm farm(cells, opt);
  const FarmResult res = farm.run(3);
  ASSERT_EQ(res.cells.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellResult ref = run_cell(cells[c], c, opt.seed, 3);
    expect_cells_eq(res.cells[c], ref);
  }
}

TEST(ApFarm, MergeIsInCellOrder) {
  // cells[c] belongs to spec c: the heterogeneous backlog (2 vs 3 packets
  // per sender) makes per-cell episode round counts distinguishable, so a
  // permuted merge cannot pass.
  const auto cells = small_farm();
  FarmOptions opt;
  opt.seed = 31;
  opt.workers = 4;
  ApFarm farm(cells, opt);
  const FarmResult res = farm.run(2);
  std::uint64_t rounds = 0, delivered = 0;
  for (std::size_t c = 0; c < res.cells.size(); ++c) {
    EXPECT_EQ(res.cells[c].cell, c);
    EXPECT_EQ(res.cells[c].episodes, 2u);
    rounds += res.cells[c].rounds;
    delivered += res.cells[c].delivered;
    // The per-cell offered backlog bounds what one episode can deliver.
    const std::size_t offered =
        cells[c].scenario.cfg.packets_per_sender *
        cells[c].scenario.senders.size();
    EXPECT_LE(res.cells[c].delivered, 2u * offered);
  }
  EXPECT_EQ(res.rounds, rounds);
  EXPECT_EQ(res.delivered, delivered);
  // Cell 1 offers 3 packets per sender vs 2 elsewhere: strictly more
  // airtime per episode at the same SNR.
  EXPECT_GT(res.cells[1].rounds, res.cells[0].rounds);
}

TEST(ApFarm, RepeatedRunIsBitIdentical) {
  // run() restarts episode numbering at 0, so a second run() on the same
  // farm replays the same seeds through the engine — with warm arenas but
  // fresh decode caches. Both runs equal the run_cell reference.
  const auto cells = small_farm();
  FarmOptions opt;
  opt.seed = 41;
  opt.workers = 4;
  ApFarm farm(cells, opt);
  const FarmResult first = farm.run(4);
  const FarmResult second = farm.run(4);
  expect_farms_eq(second, first);
  expect_cache_counts_eq(second, first);
  EXPECT_EQ(second.episodes, cells.size() * 4u);

  for (std::size_t c = 0; c < cells.size(); ++c)
    expect_cells_eq(first.cells[c], run_cell(cells[c], c, opt.seed, 4));
}

TEST(ApFarm, RejectsInvalidFarms) {
  EXPECT_THROW(ApFarm({}, {}), std::invalid_argument);

  auto logged = make_cell(10.0, 2, CollectMode::Live);
  logged.scenario.mode = CollectMode::LoggedJoint;
  EXPECT_THROW(ApFarm({logged}, {}), std::invalid_argument);

  auto crowded = make_cell(10.0, 2, CollectMode::Live, kMaxCellSenders + 1);
  EXPECT_THROW(ApFarm({crowded}, {}), std::invalid_argument);

  auto stream80211 = make_cell(10.0, 2, CollectMode::Streaming);
  stream80211.scenario.receiver = ReceiverKind::Current80211;
  EXPECT_THROW(ApFarm({stream80211}, {}), std::invalid_argument);

  EXPECT_THROW(run_cell(logged, 0, 1, 1), std::invalid_argument);
}

// ------------------------------------------------------ EpisodeStream API

TEST(EpisodeStream, StepwiseRunMatchesRunScenario) {
  // The extraction contract: constructing an EpisodeStream and stepping it
  // to completion consumes the same RNG draws — and produces the same
  // stats — as the run_scenario loop it was carved out of.
  for (const auto mode : {CollectMode::Live, CollectMode::Streaming}) {
    auto sc = make_cell(11.0, 3, mode).scenario;
    Rng a(77), b(77);
    const auto direct = testbed::run_scenario(a, sc);

    testbed::EpisodeStream es(sc, b);
    std::size_t steps = 0;
    while (!es.done()) {
      es.step(b);
      ++steps;
    }
    const auto stepped = es.finish();
    EXPECT_GT(steps, 0u);
    EXPECT_GE(es.rounds(), steps);  // separated rounds count extra airtime

    EXPECT_EQ(stepped.airtime_rounds, direct.airtime_rounds);
    EXPECT_EQ(stepped.concurrent_rounds, direct.concurrent_rounds);
    EXPECT_EQ(stepped.stream_samples, direct.stream_samples);
    EXPECT_EQ(stepped.stream_deliveries, direct.stream_deliveries);
    ASSERT_EQ(stepped.flows.size(), direct.flows.size());
    for (std::size_t i = 0; i < stepped.flows.size(); ++i) {
      EXPECT_EQ(stepped.flows[i].delivered, direct.flows[i].delivered);
      EXPECT_DOUBLE_EQ(stepped.flows[i].throughput,
                       direct.flows[i].throughput);
    }
  }
}

TEST(EpisodeStream, RejectsNonEpisodicModes) {
  auto sc = make_cell(10.0, 2, CollectMode::Live).scenario;
  sc.mode = CollectMode::LoggedJoint;
  Rng rng(5);
  EXPECT_THROW(testbed::EpisodeStream(sc, rng), std::invalid_argument);
  sc.mode = CollectMode::SlottedAloha;
  EXPECT_THROW(testbed::EpisodeStream(sc, rng), std::invalid_argument);
}

}  // namespace
}  // namespace zz::farm
