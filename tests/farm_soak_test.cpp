// Soak gates for the AP-farm (zz/farm/farm.h): the endless-stream shape.
//
// Every farm episode runs the engine, so a farm soaking for hours must
// reach a steady state that (a) allocates no more per run than its warmup
// did and (b) retains a bounded working set no matter how many episodes —
// repeated or fresh — have played. These are the gates bench/ap_farm
// enforces in CI; here they are pinned as tests with the
// allocation-counting hook (zz/common/alloc_hook.h) as the measuring
// instrument.
#include <gtest/gtest.h>

#include "zz/common/alloc_hook.h"
#include "zz/farm/farm.h"
#include "zz/testbed/scenario.h"

namespace zz::farm {
namespace {

using testbed::CollectMode;
using testbed::ReceiverKind;

std::vector<CellSpec> soak_farm() {
  std::vector<CellSpec> cells;
  for (const double snr : {12.0, 10.5}) {
    CellSpec cell;
    cell.scenario =
        testbed::hidden_n_scenario(2, snr, ReceiverKind::ZigZag);
    cell.scenario.cfg.packets_per_sender = 2;
    cell.scenario.cfg.payload_bytes = 200;
    cells.push_back(cell);
  }
  return cells;
}

TEST(FarmSoak, SteadyStateAllocationsPlateau) {
  // The first run warms the per-worker arenas; every later run replays the
  // same seeds through the engine (scenario engines, waveforms and decoder
  // state still allocate) but must allocate no more than the warmup did —
  // measured per episode by the allocation hook on the worker threads.
  FarmOptions opt;
  opt.seed = 51;
  opt.workers = 2;
  ApFarm farm(soak_farm(), opt);

  const FarmResult warmup = farm.run(4);
  EXPECT_GT(warmup.episode_allocs, 0u);  // the engines really ran

  for (int round = 0; round < 3; ++round) {
    const FarmResult steady = farm.run(4);
    EXPECT_GT(steady.episode_allocs, 0u)
        << "steady-state run skipped the engine (round " << round << ")";
    EXPECT_LE(steady.episode_allocs, warmup.episode_allocs)
        << "steady-state run allocated more than the warmup (round "
        << round << ")";
    // Results stay bit-identical to the warmup's.
    ASSERT_EQ(steady.cells.size(), warmup.cells.size());
    for (std::size_t c = 0; c < steady.cells.size(); ++c) {
      EXPECT_EQ(steady.cells[c].delivered, warmup.cells[c].delivered);
      EXPECT_EQ(steady.cells[c].rounds, warmup.cells[c].rounds);
    }
  }
}

TEST(FarmSoak, RetainedHeapIsBoundedAcrossRuns) {
  // The farm's working set must plateau: after warmup, replaying the
  // same episodes may not grow the net live heap (the per-worker arenas
  // are the only retained state, and they are warm). Net growth is
  // measured with the hook's live-byte counter; a generous slack absorbs
  // allocator-internal noise.
  FarmOptions opt;
  opt.seed = 52;
  opt.workers = 2;
  ApFarm farm(soak_farm(), opt);
  (void)farm.run(4);   // warmup: grows the arenas
  (void)farm.run(4);   // first steady run settles transient capacity
  const std::int64_t plateau = live_heap_bytes();
  for (int round = 0; round < 3; ++round) (void)farm.run(4);
  const std::int64_t growth = live_heap_bytes() - plateau;
  EXPECT_LT(growth, 256 * 1024) << "steady-state runs keep retaining memory";
}

TEST(FarmSoak, RetainedHeapDoesNotGrowWithFreshEpisodes) {
  // An endless farm plays fresh seeds forever. run(4E) after run(E) plays
  // the same first E episodes per cell again plus 3E never-seen ones;
  // chunk fingerprints hash the samples, so nothing an earlier episode
  // left behind can serve a fresh one, and the fresh episodes may retain
  // nothing beyond the arenas' plateaued capacity.
  constexpr std::size_t kEpisodes = 2;
  FarmOptions opt;
  opt.seed = 54;
  opt.workers = 2;
  ApFarm farm(soak_farm(), opt);
  (void)farm.run(kEpisodes);
  const std::int64_t before = live_heap_bytes();
  (void)farm.run(4 * kEpisodes);
  const std::int64_t growth = live_heap_bytes() - before;
  EXPECT_LT(growth, 256 * 1024)
      << "fresh episodes left " << growth << " bytes retained";
}

}  // namespace
}  // namespace zz::farm
