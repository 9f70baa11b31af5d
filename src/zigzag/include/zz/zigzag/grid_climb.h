// Hill-climb over the timing grid of the §4.2.4 data-aided link
// re-estimation.
//
// The decoder scores a complete packet's matched-filter response at the
// sampling offsets μ₀ + 0.15·i, i = -3..3, and keeps the best. Each score
// costs a full-packet image render, and over ±0.45 samples the response
// has a single peak, so the climb evaluates i = 0 and ±1, then walks
// towards the better neighbour while the score keeps improving. It
// compares points in the order of a full ascending scan: the larger score
// wins, equal scores go to the lower i, and a NaN score never wins. So on
// every profile that rises strictly to its peak (a plateau or an edge
// counts) and does not rise again after it, it returns the scan's index;
// on any other profile it returns a local maximum in that order. The full
// scan stays in tests/ as the golden.
#pragma once

#include <array>
#include <cmath>
#include <limits>

namespace zz::zigzag::detail {

/// The grid is i = -kGridHalf..kGridHalf.
inline constexpr int kGridHalf = 3;

/// The scan order: score a at index ia beats score b at index ib.
inline bool grid_beats(double a, int ia, double b, int ib) {
  if (std::isnan(a)) return false;
  if (std::isnan(b)) return true;
  return a > b || (a == b && ia < ib);
}

struct GridClimb {
  int best = 0;        ///< the winning index; 0 when `found` is false
  bool found = false;  ///< false when every score the climb saw was NaN
  /// scores[i + kGridHalf], NaN where not evaluated. When |best| <
  /// kGridHalf, both neighbours of `best` are evaluated.
  std::array<double, 2 * kGridHalf + 1> scores{};
};

/// Climb the grid, calling eval(i) at most once per index (3 to 5 calls).
/// Scores are ≥ 0 or NaN, as the matched-filter score is.
template <class Eval>
GridClimb climb_grid(Eval&& eval) {
  GridClimb r;
  r.scores.fill(std::numeric_limits<double>::quiet_NaN());
  const auto at = [&r](int i) -> double& { return r.scores[i + kGridHalf]; };
  for (const int i : {0, -1, 1}) at(i) = eval(i);
  int cur = grid_beats(at(-1), -1, at(0), 0) ? -1 : 0;
  if (grid_beats(at(1), 1, at(cur), cur)) cur = 1;
  if (cur != 0) {
    const int dir = cur;
    while (cur != dir * kGridHalf) {
      at(cur + dir) = eval(cur + dir);
      if (!grid_beats(at(cur + dir), cur + dir, at(cur), cur)) break;
      cur += dir;
    }
  }
  // A NaN at cur means all three first scores were NaN, and cur is 0.
  r.best = cur;
  r.found = !std::isnan(at(cur));
  return r;
}

}  // namespace zz::zigzag::detail
