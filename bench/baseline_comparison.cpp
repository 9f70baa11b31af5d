// Head-to-head baseline receivers on the n-sender scenario engine,
// n = 2..6 hidden terminals at 12 dB:
//
//   zigzag        — the paper's receiver (§4), LoggedJoint joint decode.
//   algebraic-mp  — "Collision Helps" message-passing/Gaussian-elimination
//                   recovery (arXiv:1001.1948) on the SAME collision logs.
//   slotted-zz    — slotted ALOHA whose collided slots feed the zigzag
//                   decoder (arXiv:1501.00976), online matching across
//                   slots.
//   802.11        — stock receiver on the same logs (capture only).
//
// Every head runs the same sharded-RNG sweep, so the printed tables are
// bit-identical at any thread count; run_all --check diffs them verbatim
// against the committed baseline. The bench gates the expected ordering
// itself (zigzag >= 802.11 at every n; algebraic-mp within its documented
// band of zigzag — see bench/README.md) and exits 1 when it breaks.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "zz/common/stats.h"
#include "zz/common/table.h"
#include "zz/common/thread_pool.h"
#include "zz/testbed/sweep.h"

int main() {
  using namespace zz;

  struct Head {
    const char* name;
    testbed::ReceiverKind kind;
    testbed::CollectMode mode;
  };
  const Head heads[] = {
      {"zigzag", testbed::ReceiverKind::ZigZag,
       testbed::CollectMode::LoggedJoint},
      {"algebraic-mp", testbed::ReceiverKind::AlgebraicMP,
       testbed::CollectMode::LoggedJoint},
      {"slotted-zz", testbed::ReceiverKind::ZigZag,
       testbed::CollectMode::SlottedAloha},
      {"802.11", testbed::ReceiverKind::Current80211,
       testbed::CollectMode::LoggedJoint},
  };

  std::vector<testbed::NSenderSweepResult> results;
  for (const Head& h : heads) {
    testbed::NSenderSweepConfig cfg;
    cfg.runs_per_n = bench::scaled(2);
    cfg.packets_per_sender = bench::scaled(3);
    cfg.seed = 117;
    cfg.receiver = h.kind;
    cfg.mode = h.mode;
    results.push_back(testbed::run_n_sender_sweep(cfg, ThreadPool::shared()));
  }

  Table cdf({"n", "receiver", "p0", "p50", "p100", "mean tput", "mean loss"});
  for (std::size_t ni = 0; ni < results[0].points.size(); ++ni) {
    for (std::size_t h = 0; h < std::size(heads); ++h) {
      const auto& pt = results[h].points[ni];
      Cdf c;
      c.add_all(pt.per_sender_throughput);
      cdf.add_row({std::to_string(pt.n), heads[h].name,
                   Table::num(c.percentile(0.0), 3),
                   Table::num(c.percentile(0.5), 3),
                   Table::num(c.percentile(1.0), 3),
                   Table::num(pt.mean_throughput, 4),
                   Table::pct(pt.mean_loss, 1)});
    }
  }
  cdf.print("baseline comparison: per-sender throughput CDF and loss "
            "(n hidden senders, 12 dB)");

  // Gate, at every n: zigzag at least matches stock 802.11 (the paper's
  // core claim, generalized); algebraic-mp stays inside a two-sided band
  // of zigzag (working, but not beating the full §4.2.4 tracking
  // receiver); slotted-zz clears a floor despite idle slots and k>2
  // pileups.
  const bool quick = bench::run_scale() < 1.0;
  const double mp_lo = quick ? 0.45 : 0.60;
  const double mp_hi = quick ? 1.15 : 1.05;
  const double slotted_min = quick ? 0.03 : 0.04;
  Table ord({"n", "zz tput", "mp tput", "mp/zz", "slotted-zz", "802.11"});
  for (std::size_t ni = 0; ni < results[0].points.size(); ++ni) {
    const double zz = results[0].points[ni].mean_throughput;
    const double mp = results[1].points[ni].mean_throughput;
    const double slotted = results[2].points[ni].mean_throughput;
    const double dot11 = results[3].points[ni].mean_throughput;
    const double ratio = zz > 0.0 ? mp / zz : 0.0;
    ord.add_row({std::to_string(results[0].points[ni].n), Table::num(zz, 4),
                 Table::num(mp, 4), Table::num(ratio, 3),
                 Table::num(slotted, 4), Table::num(dot11, 4)});
    const std::string at = " at n=" + std::to_string(results[0].points[ni].n);
    bench::gate(zz > 0.0 && zz >= dot11,
                "zigzag throughput " + std::to_string(zz) +
                    " zero or below 802.11 " + std::to_string(dot11) + at);
    bench::gate(ratio >= mp_lo && ratio <= mp_hi,
                "algebraic-mp/zigzag ratio " + std::to_string(ratio) +
                    " outside [" + std::to_string(mp_lo) + ", " +
                    std::to_string(mp_hi) + "]" + at);
    bench::gate(slotted >= slotted_min,
                "slotted-zz throughput " + std::to_string(slotted) +
                    " below " + std::to_string(slotted_min) + at);
  }
  ord.print("baseline comparison: ordering summary (mean per-sender "
            "throughput)");

  std::printf(
      "\nzigzag holds ~1/n at every n; the algebraic-MP receiver pays for "
      "skipping the\n§4.2.4 tracking loop, slotted-ALOHA-zigzag pays idle "
      "slots and k>2 pileups, and\nstock 802.11 gets nothing out of "
      "equal-power collisions.\n");
  return bench::exit_status();
}
