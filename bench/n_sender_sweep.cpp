// Fig 5-9 generalized — n hidden terminals, n = 2..6: CDF of per-sender
// throughput and Jain fairness under ZigZag joint decoding. Paper (§5.7):
// every sender gets a fair ~1/n share, as if each had its own time slot.
//
// Runs on the shared worker pool with sharded per-run RNG, so the printed
// numbers are bit-identical at any thread count — run_all --check diffs
// them against the committed baseline. The bench gates the fair share
// itself and exits 1 when an n misses it.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "zz/common/stats.h"
#include "zz/common/table.h"
#include "zz/common/thread_pool.h"
#include "zz/testbed/sweep.h"

int main() {
  using namespace zz;
  testbed::NSenderSweepConfig cfg;
  cfg.runs_per_n = bench::scaled(3);
  cfg.packets_per_sender = bench::scaled(4);

  const auto result = testbed::run_n_sender_sweep(cfg, ThreadPool::shared());

  Table cdf({"n", "p0", "p25", "p50", "p75", "p100"});
  for (const auto& pt : result.points) {
    Cdf c;
    c.add_all(pt.per_sender_throughput);
    cdf.add_row({std::to_string(pt.n), Table::num(c.percentile(0.0), 3),
                 Table::num(c.percentile(0.25), 3),
                 Table::num(c.percentile(0.5), 3),
                 Table::num(c.percentile(0.75), 3),
                 Table::num(c.percentile(1.0), 3)});
  }
  cdf.print("n-sender sweep: per-sender throughput CDF (ZigZag, 12 dB)");

  // Gate: every n holds its fair ~1/n share (mean per-sender throughput
  // against 1/n) with near-equal shares (Jain fairness).
  const bool quick = bench::run_scale() < 1.0;
  const double ratio_min = quick ? 0.85 : 0.90;
  const double fairness_min = quick ? 0.90 : 0.95;
  Table fair({"n", "mean tput", "fair share", "ratio", "fairness", "loss"});
  for (const auto& pt : result.points) {
    const double ratio = pt.mean_throughput / pt.fair_share;
    fair.add_row({std::to_string(pt.n), Table::num(pt.mean_throughput, 4),
                  Table::num(pt.fair_share, 4), Table::num(ratio, 3),
                  Table::num(pt.fairness, 4), Table::pct(pt.mean_loss, 1)});
    const std::string at = " at n=" + std::to_string(pt.n);
    bench::gate(ratio >= ratio_min, "n_sender_sweep fair-share ratio " +
                                        std::to_string(ratio) + " below " +
                                        std::to_string(ratio_min) + at);
    bench::gate(pt.fairness >= fairness_min,
                "n_sender_sweep Jain fairness " + std::to_string(pt.fairness) +
                    " below " + std::to_string(fairness_min) + at);
  }
  fair.print("\nn-sender sweep: fair-share ratio and Jain fairness");

  std::printf("\nEvery sender holds ~1/n of the airtime: the n-way greedy "
              "schedule (§4.5)\nresolves each round's collisions as if the "
              "senders were time-slotted.\n");
  return bench::exit_status();
}
