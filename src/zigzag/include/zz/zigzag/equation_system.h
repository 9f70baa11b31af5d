// Collisions as a linear equation system over packet chunks — the
// "Collision Helps" view (arXiv:1001.1948) of the same geometry the §4.5
// greedy scheduler walks.
//
// Each logged collision is one linear equation over the packets it carries;
// packet starts and ends cut it into chunk equations, each relating the
// symbol chunks that overlap one segment of the collision timeline.
// Recovery is message passing on the bipartite chunk/equation graph:
//
//   * Peel: a degree-1 segment (one unknown chunk) is solved directly and
//     its value substituted — back-propagated — into every other equation.
//     ZigZag's chunk-by-chunk decode is exactly this peeling process.
//   * Eliminate: when peeling stalls, two equations whose unknown support
//     is the same packet pair at the SAME relative offset form a 2x2
//     linear system in the overlapped chunks; Gaussian elimination over the
//     (complex channel-gain) coefficients solves it. This is the step pure
//     zigzag lacks — Assertion 4.5.1 declares same-offset pairs
//     undecodable, while the algebraic receiver solves them whenever the
//     channel coefficients are linearly independent.
//
// Like zz/zigzag/scheduler.h this module is pure geometry: it plans, and
// AlgebraicMpDecoder (zz/zigzag/algebraic_mp.h) carries the plan out on
// real samples as the plan route of the zigzag decoder's engine. The plan comes from the same interval-based chunk planner as
// greedy_schedule — its peel rounds are the greedy rounds with equations
// visited best-conditioned-first (order_equations), plus an elimination
// whenever a round stalls.
#pragma once

#include <cstddef>
#include <vector>

#include "zz/zigzag/scheduler.h"

namespace zz::zigzag {

/// One solve action of the message-passing plan.
struct MpStep {
  enum class Kind {
    Peel,      ///< decode symbols [k0,k1) of `packet` from `collision`
    Eliminate  ///< 2x2-eliminate `other_packet` between `collision` and
               ///< `other_collision`, solving [k0,k1) of `packet`
  };
  Kind kind = Kind::Peel;
  std::size_t collision = 0;
  std::size_t other_collision = 0;  ///< Eliminate only
  std::size_t packet = 0;           ///< the packet this step solves
  std::size_t other_packet = 0;     ///< Eliminate only: the cancelled packet
  std::size_t k0 = 0, k1 = 0;       ///< solved symbol range of `packet`
};

struct MpPlan {
  bool complete = false;             ///< every symbol of every packet solved
  std::vector<MpStep> steps;
  std::vector<std::size_t> unresolved_packets;  ///< ids with missing symbols
  std::size_t peels = 0;
  std::size_t eliminations = 0;
  std::size_t rounds = 0;            ///< message-passing iterations
};

/// Plan the message-passing solve of `pattern`. Equations are visited in
/// order_equations (best-conditioned-first) order; `guard` is the symbol
/// separation a peelable symbol needs from unknown symbols of other packets
/// (pulse tails — same meaning as greedy_schedule's guard). Elimination
/// steps are emitted only when a peel round makes no progress. Throws
/// std::invalid_argument on an invalid pattern (see greedy_schedule).
MpPlan message_passing_plan(const Pattern& pattern, std::size_t guard = 0);

}  // namespace zz::zigzag
