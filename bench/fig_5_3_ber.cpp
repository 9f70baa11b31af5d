// Fig 5-3 — "Comparison of Bit Error Rate": ZigZag decodes collisions with
// BER close to interference-free transmission, and forward+backward
// decoding with MRC pushes it below (paper: 1.4x lower on average).
//
// Every (SNR, pair) cell runs from its own RNG shard on the worker pool;
// the reported numbers are identical for any thread count.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "zz/common/table.h"
#include "zz/common/thread_pool.h"

using namespace zz;

namespace {

struct CellResult {
  double ber_cf = 0, ber_fwd = 0, ber_full = 0;
  std::size_t n_cf = 0, n_fwd = 0, n_full = 0, undecoded = 0;

  void operator+=(const CellResult& o) {
    ber_cf += o.ber_cf;
    ber_fwd += o.ber_fwd;
    ber_full += o.ber_full;
    n_cf += o.n_cf;
    n_fwd += o.n_fwd;
    n_full += o.n_full;
    undecoded += o.undecoded;
  }
};

}  // namespace

int main() {
  const std::size_t pairs = bench::scaled(8);
  const std::size_t payload = 300;
  constexpr double kSnrLo = 5.0, kSnrHi = 12.0;
  const auto snr_points = static_cast<std::size_t>(kSnrHi - kSnrLo) + 1;

  // One task per (SNR, pair) cell; reduce deterministically afterwards.
  std::vector<CellResult> cells(snr_points * pairs);
  ThreadPool::shared().parallel_for(cells.size(), [&](std::size_t idx) {
    const double snr = kSnrLo + static_cast<double>(idx / pairs);
    Rng rng(shard_seed(53, idx));
    CellResult& cell = cells[idx];

    // The paper's BER metric is physical-layer: averaged over packets whose
    // framing decoded (header failures are counted separately, like sync
    // losses in the prototype).
    auto s = bench::make_pair_scenario(rng, payload, snr,
                                       100 + rng.uniform_int(0, 300),
                                       600 + rng.uniform_int(0, 600));
    const zigzag::CollisionInput inputs[2] = {s.in1, s.in2};

    zigzag::DecodeOptions fwd;
    fwd.backward_pass = false;
    fwd.refinement_passes = 0;
    const auto rf = zigzag::ZigZagDecoder(fwd).decode({inputs, 2}, s.profiles, 2);
    const auto rb = zigzag::ZigZagDecoder().decode({inputs, 2}, s.profiles, 2);

    auto tally = [&cell](const bench::Party& party,
                         const zigzag::PacketResult& r, double& acc,
                         std::size_t& n) {
      if (!r.header_ok) {
        ++cell.undecoded;
        return;
      }
      acc += bench::packet_ber(party.frame, r);
      ++n;
    };
    tally(s.alice, rf.packets[0], cell.ber_fwd, cell.n_fwd);
    tally(s.bob, rf.packets[1], cell.ber_fwd, cell.n_fwd);
    tally(s.alice, rb.packets[0], cell.ber_full, cell.n_full);
    tally(s.bob, rb.packets[1], cell.ber_full, cell.n_full);

    // Collision-free reference: the same two packets in separate slots.
    const phy::StandardReceiver std_rx;
    for (const auto* party : {&s.alice, &s.bob}) {
      const auto ch = chan::retransmission_channel(rng, party->channel, 0.0);
      const CVec rx = chan::clean_reception(rng, party->frame.symbols, ch);
      const auto d = std_rx.decode(rx, &party->profile);
      if (!d.header_ok) {
        ++cell.undecoded;
        continue;
      }
      cell.ber_cf += bit_error_rate(party->frame.air_bits(), d.air_bits);
      ++cell.n_cf;
    }
  });

  Table t({"SNR (dB)", "Collision-Free", "ZigZag fwd-only", "ZigZag fwd+bwd",
           "undecoded"});
  double sum_cf = 0, sum_full = 0;
  int rows = 0;
  // Gate: the fwd+bwd column falls monotonically (within single-bit noise)
  // and stays free of the high-SNR anomaly this repo once shipped.
  const bool quick = bench::run_scale() < 1.0;
  const double slack = quick ? 1e-3 : 5e-5;
  const double tail_max = quick ? 2e-3 : 5e-4;
  double prev = 0.0;
  for (std::size_t si = 0; si < snr_points; ++si) {
    CellResult row;
    for (std::size_t i = 0; i < pairs; ++i) row += cells[si * pairs + i];
    const double snr = kSnrLo + static_cast<double>(si);
    const double cf = row.n_cf ? row.ber_cf / static_cast<double>(row.n_cf) : 0.0;
    const double f1 = row.n_fwd ? row.ber_fwd / static_cast<double>(row.n_fwd) : 0.0;
    const double f2 = row.n_full ? row.ber_full / static_cast<double>(row.n_full) : 0.0;
    sum_cf += cf;
    sum_full += f2;
    const std::string ber = "Fig 5-3 fwd+bwd BER " + Table::num(f2, 3);
    const std::string at = " at " + Table::num(snr, 3) + " dB";
    bench::gate(si == 0 || f2 <= prev + slack,
                ber + " not monotone after " + Table::num(prev, 3) + at);
    bench::gate(snr < 10.0 || f2 <= tail_max,
                ber + " above the high-SNR gate" + at);
    prev = f2;
    ++rows;
    t.add_row({Table::num(snr, 3), Table::num(cf, 3), Table::num(f1, 3),
               Table::num(f2, 3),
               std::to_string(row.undecoded) + "/" + std::to_string(6 * pairs)});
  }
  t.print("Fig 5-3: BER vs SNR (mean packet BER over " +
          std::to_string(pairs) + " collision pairs per point)");
  std::printf("\nAvg collision-free BER %.2e vs fwd+bwd ZigZag %.2e "
              "(paper: fwd+bwd is ~1.4x LOWER than collision-free)\n",
              sum_cf / rows, sum_full / rows);
  return bench::exit_status();
}
