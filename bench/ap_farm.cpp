// AP-farm throughput engine (zz/farm/farm.h): multi-cell scale-out at
// saturation. The headline bench for the farm module: N independent AP
// cells — each an endless stream of collision episodes — multiplexed over
// the work-stealing pool, reported as sustained packets/sec and
// collisions-resolved/sec at 1..4 workers with scaling efficiency.
//
// Output discipline: every table is deterministic (sharded RNG, worker-
// count independent — the farm_test pins it) and drift-gated verbatim by
// run_all --check. Timing lines carry a "perf:" prefix; the drift diff
// skips them (wall clock is machine-dependent), but --check still parses
// them for the throughput floor and the scaling-efficiency gate (the
// latter only on hardware with >= 4 cores — the perf summary reports the
// core count so the gate can tell).
//
// Four sections:
//  * farm grid: per-cell aggregates of the saturation run (drift-gated);
//  * determinism: the same farm at 2/4/8 workers vs 1, bit-identical
//    ("yes" rows, gated);
//  * soak: one 2-worker farm run three times over the same seeds; every
//    run decodes every episode, so the table (delivered, per-episode
//    decode-cache hits/misses) repeats the warmup's (drift-gated). The
//    per-run allocations and retained-heap growth are "perf:" lines
//    (allocation counts vary by a few with scheduling): a steady run may
//    allocate no more than the warmup and may grow the live heap by less
//    than 256 KiB (gated);
//  * perf: sustained episodes/s, packets/s, resolved/s per worker count
//    plus scaling efficiency (floor- and efficiency-gated, drift-skipped).
//    The grid's 1-worker run is the warm-up; each worker count reports
//    the median of kRepeats fresh farms.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "zz/common/alloc_hook.h"
#include "zz/common/table.h"
#include "zz/farm/farm.h"
#include "zz/testbed/scenario.h"

namespace {

using namespace zz;

farm::CellSpec make_cell(double snr_db, std::size_t packets,
                         testbed::CollectMode mode) {
  farm::CellSpec cell;
  cell.scenario =
      testbed::hidden_n_scenario(2, snr_db, testbed::ReceiverKind::ZigZag);
  cell.scenario.mode = mode;
  cell.scenario.cfg.packets_per_sender = packets;
  cell.scenario.cfg.payload_bytes = 160;
  return cell;
}

/// The bench farm: four heterogeneous cells (SNR, backlog, collection
/// route) so a merge bug cannot cancel out across cells.
std::vector<farm::CellSpec> bench_farm() {
  return {make_cell(12.0, 2, testbed::CollectMode::Live),
          make_cell(11.0, 3, testbed::CollectMode::Live),
          make_cell(10.0, 2, testbed::CollectMode::Streaming),
          make_cell(11.5, 2, testbed::CollectMode::Streaming)};
}

bool farms_equal(const farm::FarmResult& a, const farm::FarmResult& b) {
  if (a.cells.size() != b.cells.size() || a.episodes != b.episodes ||
      a.rounds != b.rounds || a.delivered != b.delivered ||
      a.collisions_resolved != b.collisions_resolved)
    return false;
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const auto& x = a.cells[c];
    const auto& y = b.cells[c];
    if (x.rounds != y.rounds || x.delivered != y.delivered ||
        x.collisions_resolved != y.collisions_resolved ||
        x.latency_sum != y.latency_sum ||
        x.per_flow_delivered != y.per_flow_delivered)
      return false;
  }
  return true;
}

/// Timed runs per worker count in the perf sweep; the median is reported.
constexpr int kRepeats = 3;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

const char* mode_name(testbed::CollectMode m) {
  return m == testbed::CollectMode::Streaming ? "streaming" : "live";
}

}  // namespace

int main() {
  const std::size_t episodes = bench::scaled(4);
  constexpr std::uint64_t kSeed = 7;

  // ---- Farm grid: the saturation run everything below reuses. It is also
  // the perf sweep's warm-up (lazy statics, first-touch pages), so it is
  // not timed.
  const auto cells = bench_farm();
  farm::FarmOptions opt;
  opt.seed = kSeed;
  opt.workers = 1;
  farm::ApFarm reference(cells, opt);
  const farm::FarmResult ref = reference.run(episodes);

  Table grid({"cell", "mode", "episodes", "rounds", "delivered", "resolved",
              "tput"});
  for (std::size_t c = 0; c < ref.cells.size(); ++c) {
    const auto& r = ref.cells[c];
    grid.add_row({std::to_string(c), mode_name(cells[c].scenario.mode),
                  std::to_string(r.episodes), std::to_string(r.rounds),
                  std::to_string(r.delivered),
                  std::to_string(r.collisions_resolved),
                  Table::num(r.throughput(), 4)});
  }
  grid.add_row({"all", "-", std::to_string(ref.episodes),
                std::to_string(ref.rounds), std::to_string(ref.delivered),
                std::to_string(ref.collisions_resolved),
                Table::num(ref.throughput(), 4)});
  grid.print("AP-farm grid: per-cell saturation aggregates");

  // ---- Determinism: worker count must be invisible in the result. The
  // 1/2/4-worker farms double as the perf sweep's kRepeats timed runs,
  // interleaved across worker counts so a burst of machine load hits every
  // count alike; the 8-worker farm runs once. Every run must match the
  // reference.
  const std::size_t counts[] = {1, 2, 4, 8};
  bool identical[4] = {true, true, true, true};
  std::vector<double> timed[4];
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t i = 0; i < (rep == 0 ? 4u : 3u); ++i) {
      farm::FarmOptions o = opt;
      o.workers = counts[i];
      farm::ApFarm f(cells, o);
      const auto w0 = std::chrono::steady_clock::now();
      const farm::FarmResult r = f.run(episodes);
      timed[i].push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - w0)
                             .count());
      identical[i] = identical[i] && farms_equal(r, ref);
    }
  }
  Table det({"workers", "identical"});
  for (std::size_t i = 1; i < 4; ++i)
    det.add_row({std::to_string(counts[i]), identical[i] ? "yes" : "NO"});
  std::vector<std::pair<std::size_t, double>> perf;
  for (std::size_t i = 0; i < 3; ++i)
    perf.push_back({counts[i], median(timed[i])});
  det.print("\ndeterminism: merged result at 2/4/8 workers vs 1 worker");

  // ---- Soak: the same farm run three times over the same seeds. Run 0
  // warms the per-worker arenas; the steady runs decode every episode
  // again, so the deterministic columns repeat, while allocations and the
  // live heap (the "perf:" lines below) must not climb.
  farm::FarmOptions soak = opt;
  soak.workers = 2;
  farm::ApFarm soak_farm(cells, soak);
  Table soak_tbl({"run", "episodes", "delivered", "cache hits",
                  "cache misses"});
  struct SoakPerf {
    std::string run;
    std::uint64_t allocs;
    std::int64_t live_heap;
  };
  std::vector<SoakPerf> soak_perf;
  for (int run = 0; run < 3; ++run) {
    const std::string name =
        run == 0 ? "warmup" : "steady-" + std::to_string(run);
    std::uint64_t allocs = 0;
    {  // scoped so the result is freed before the live heap is read
      const farm::FarmResult r = soak_farm.run(episodes);
      allocs = r.episode_allocs;
      soak_tbl.add_row({name, std::to_string(r.episodes),
                        std::to_string(r.delivered),
                        std::to_string(r.decode_cache_hits),
                        std::to_string(r.decode_cache_misses)});
    }
    soak_perf.push_back({name, allocs, live_heap_bytes()});
  }
  soak_tbl.print("\nsoak: the same seeds decoded again by one 2-worker farm");

  // ---- Perf: machine-dependent, "perf:"-prefixed so the drift diff skips
  // these lines while --check parses the floors. Efficiency is relative to
  // the 1-worker median of the SAME grid (same episodes, same seeds).
  std::printf("\n");
  const double ref_ms = perf.front().second;
  const double base_eps = ref_ms > 0.0
                              ? 1000.0 * static_cast<double>(ref.episodes) /
                                    ref_ms
                              : 0.0;
  for (const auto& [w, ms] : perf) {
    const double scale = ms > 0.0 ? 1000.0 / ms : 0.0;
    std::printf(
        "perf: workers=%zu wall_ms=%.0f episodes/s=%.2f pkts/s=%.1f "
        "resolved/s=%.1f eff=%.3f\n",
        w, ms, static_cast<double>(ref.episodes) * scale,
        static_cast<double>(ref.delivered) * scale,
        static_cast<double>(ref.collisions_resolved) * scale,
        ms > 0.0 && base_eps > 0.0
            ? (static_cast<double>(ref.episodes) * scale) /
                  (static_cast<double>(w) * base_eps)
            : 0.0);
  }
  std::printf("perf: hw_cores=%u\n", std::thread::hardware_concurrency());
  for (const auto& p : soak_perf)
    std::printf("perf: soak run=%s allocs=%llu heap_growth_kib=%.1f\n",
                p.run.c_str(), static_cast<unsigned long long>(p.allocs),
                static_cast<double>(p.live_heap -
                                    soak_perf.front().live_heap) /
                    1024.0);

  std::printf(
      "\nOne farm, any worker count, one result: the grid above is "
      "bit-identical from\n1 to 8 workers, and every soak run decodes "
      "each episode again without growing\nthe heap.\n");
  return 0;
}
