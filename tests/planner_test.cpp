// Golden equivalence for the interval-based chunk planner behind
// greedy_schedule (§4.5) and message_passing_plan ("Collision Helps"): the
// symbol-by-symbol loops below are the reference implementations, and the
// planner must reproduce their step lists, round counts and unresolved sets
// exactly on seeded random patterns. Also pins the pattern validation both
// entry points share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "zz/common/rng.h"
#include "zz/zigzag/equation_system.h"
#include "zz/zigzag/scheduler.h"

namespace zz::zigzag {
namespace {

// ---------------------------------------------------------------------------
// Symbol-level reference implementations: the former production loops,
// verbatim except that the peel scan's `peelable` (a copy of
// `symbol_clean`) is folded into it.
// ---------------------------------------------------------------------------

using Known = std::vector<std::vector<std::uint8_t>>;

// Is symbol k of `pl` free of interference from unknown symbols of every
// other placement in the same collision?
bool symbol_clean(const Pattern& pattern, const Known& known,
                  const std::vector<Pattern::Placement>& coll,
                  std::size_t self, std::size_t k, std::ptrdiff_t guard) {
  const auto& pl = coll[self];
  const std::ptrdiff_t pos = pl.offset + static_cast<std::ptrdiff_t>(k);
  for (std::size_t oi = 0; oi < coll.size(); ++oi) {
    if (oi == self) continue;
    const auto& other = coll[oi];
    const auto olen = static_cast<std::ptrdiff_t>(pattern.lengths[other.packet]);
    const std::ptrdiff_t jlo =
        std::max<std::ptrdiff_t>(0, pos - guard - other.offset);
    const std::ptrdiff_t jhi =
        std::min<std::ptrdiff_t>(olen - 1, pos + guard - other.offset);
    for (std::ptrdiff_t j = jlo; j <= jhi; ++j)
      if (!known[other.packet][static_cast<std::size_t>(j)]) return false;
  }
  return true;
}

// Symbols of packets other than {a, b} unknown within ±guard of collision
// time `pos` would corrupt a 2x2 elimination.
bool pair_region_clean(const Pattern& pattern, const Known& known,
                       const std::vector<Pattern::Placement>& coll,
                       std::size_t a, std::size_t b, std::ptrdiff_t pos,
                       std::ptrdiff_t guard) {
  for (const auto& other : coll) {
    if (other.packet == a || other.packet == b) continue;
    const auto olen = static_cast<std::ptrdiff_t>(pattern.lengths[other.packet]);
    const std::ptrdiff_t jlo =
        std::max<std::ptrdiff_t>(0, pos - guard - other.offset);
    const std::ptrdiff_t jhi =
        std::min<std::ptrdiff_t>(olen - 1, pos + guard - other.offset);
    for (std::ptrdiff_t j = jlo; j <= jhi; ++j)
      if (!known[other.packet][static_cast<std::size_t>(j)]) return false;
  }
  return true;
}

Known all_unknown(const Pattern& pattern) {
  Known known(pattern.lengths.size());
  for (std::size_t p = 0; p < known.size(); ++p)
    known[p].assign(pattern.lengths[p], 0);
  return known;
}

std::vector<std::size_t> unsolved(const Known& known) {
  std::vector<std::size_t> ids;
  for (std::size_t p = 0; p < known.size(); ++p)
    if (!std::all_of(known[p].begin(), known[p].end(),
                     [](std::uint8_t v) { return v != 0; }))
      ids.push_back(p);
  return ids;
}

ScheduleResult ref_greedy_schedule(const Pattern& pattern, std::size_t guard) {
  Known known = all_unknown(pattern);
  ScheduleResult res;
  const auto g = static_cast<std::ptrdiff_t>(guard);

  bool progress = true;
  while (progress) {
    progress = false;
    ++res.rounds;
    for (std::size_t c = 0; c < pattern.collisions.size(); ++c) {
      const auto& coll = pattern.collisions[c];
      for (std::size_t self = 0; self < coll.size(); ++self) {
        const auto& pl = coll[self];
        const std::size_t len = pattern.lengths[pl.packet];
        std::size_t k = 0;
        while (k < len) {
          if (known[pl.packet][k] ||
              !symbol_clean(pattern, known, coll, self, k, g)) {
            ++k;
            continue;
          }
          // Extend a maximal decodable run.
          std::size_t k1 = k;
          while (k1 < len && !known[pl.packet][k1] &&
                 symbol_clean(pattern, known, coll, self, k1, g))
            ++k1;
          for (std::size_t j = k; j < k1; ++j) known[pl.packet][j] = 1;
          res.steps.push_back({c, pl.packet, k, k1});
          progress = true;
          k = k1;
        }
      }
    }
  }
  res.undecoded_packets = unsolved(known);
  res.complete = res.undecoded_packets.empty();
  return res;
}

MpPlan ref_message_passing_plan(const Pattern& pattern, std::size_t guard) {
  Known known = all_unknown(pattern);
  MpPlan plan;
  const auto g = static_cast<std::ptrdiff_t>(guard);
  const auto order = order_equations(pattern);

  const auto peel_sweep = [&] {
    bool progress = false;
    for (const std::size_t c : order) {
      const auto& coll = pattern.collisions[c];
      for (std::size_t self = 0; self < coll.size(); ++self) {
        const auto& pl = coll[self];
        const std::size_t len = pattern.lengths[pl.packet];
        std::size_t k = 0;
        while (k < len) {
          if (known[pl.packet][k] ||
              !symbol_clean(pattern, known, coll, self, k, g)) {
            ++k;
            continue;
          }
          std::size_t k1 = k;
          while (k1 < len && !known[pl.packet][k1] &&
                 symbol_clean(pattern, known, coll, self, k1, g))
            ++k1;
          for (std::size_t j = k; j < k1; ++j) known[pl.packet][j] = 1;
          plan.steps.push_back({MpStep::Kind::Peel, c, 0, pl.packet, 0, k, k1});
          ++plan.peels;
          progress = true;
          k = k1;
        }
      }
    }
    return progress;
  };

  const auto eliminate_once = [&] {
    for (std::size_t ci = 0; ci < order.size(); ++ci) {
      const std::size_t c1 = order[ci];
      for (std::size_t cj = ci + 1; cj < order.size(); ++cj) {
        const std::size_t c2 = order[cj];
        for (const auto& pa : pattern.collisions[c1]) {
          for (const auto& pb : pattern.collisions[c1]) {
            if (pb.packet <= pa.packet) continue;
            const Pattern::Placement* qa = nullptr;
            const Pattern::Placement* qb = nullptr;
            for (const auto& pl : pattern.collisions[c2]) {
              if (pl.packet == pa.packet) qa = &pl;
              if (pl.packet == pb.packet) qb = &pl;
            }
            if (!qa || !qb) continue;
            if (pa.offset - pb.offset != qa->offset - qb->offset) continue;

            const auto la = static_cast<std::ptrdiff_t>(
                pattern.lengths[pa.packet]);
            std::ptrdiff_t k = 0;
            while (k < la) {
              const auto ku = static_cast<std::size_t>(k);
              const bool usable =
                  !known[pa.packet][ku] &&
                  pair_region_clean(pattern, known, pattern.collisions[c1],
                                    pa.packet, pb.packet, pa.offset + k, g) &&
                  pair_region_clean(pattern, known, pattern.collisions[c2],
                                    pa.packet, pb.packet, qa->offset + k, g);
              if (!usable) {
                ++k;
                continue;
              }
              std::ptrdiff_t k1 = k;
              while (k1 < la) {
                const auto k1u = static_cast<std::size_t>(k1);
                if (known[pa.packet][k1u] ||
                    !pair_region_clean(pattern, known,
                                       pattern.collisions[c1], pa.packet,
                                       pb.packet, pa.offset + k1, g) ||
                    !pair_region_clean(pattern, known,
                                       pattern.collisions[c2], pa.packet,
                                       pb.packet, qa->offset + k1, g))
                  break;
                ++k1;
              }
              for (std::ptrdiff_t j = k; j < k1; ++j)
                known[pa.packet][static_cast<std::size_t>(j)] = 1;
              plan.steps.push_back({MpStep::Kind::Eliminate, c1, c2,
                                    pa.packet, pb.packet,
                                    static_cast<std::size_t>(k),
                                    static_cast<std::size_t>(k1)});
              ++plan.eliminations;
              return true;
            }
          }
        }
      }
    }
    return false;
  };

  for (;;) {
    ++plan.rounds;
    if (peel_sweep()) continue;
    if (eliminate_once()) continue;
    break;
  }
  plan.unresolved_packets = unsolved(known);
  plan.complete = plan.unresolved_packets.empty();
  return plan;
}

// ---------------------------------------------------------------------------
// Seeded random patterns.
// ---------------------------------------------------------------------------

// n = 1..9 packets of unequal (sometimes zero) length; each collision holds
// a random subset of the packets at offsets that may be negative. Some
// collisions repeat an earlier one's relative offsets under a common shift
// (possibly minus one packet) — the same-offset pairs that stall peeling
// and force eliminations. No packet appears twice in one collision.
Pattern random_pattern(Rng& rng) {
  Pattern p;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 9));
  for (std::size_t i = 0; i < n; ++i)
    p.lengths.push_back(
        rng.chance(0.1) ? 0 : static_cast<std::size_t>(rng.uniform_int(1, 48)));
  const auto ncoll = static_cast<std::size_t>(rng.uniform_int(1, n + 1));
  for (std::size_t c = 0; c < ncoll; ++c) {
    std::vector<Pattern::Placement> coll;
    if (c > 0 && rng.chance(0.3)) {
      const auto& prev = p.collisions[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c) - 1))];
      const auto shift = rng.uniform_int(-12, 12);
      for (const auto& pl : prev) coll.push_back({pl.packet, pl.offset + shift});
      if (coll.size() > 2 && rng.chance(0.5))
        coll.erase(coll.begin() + rng.uniform_int(
                                      0, static_cast<std::int64_t>(coll.size()) - 1));
    } else {
      for (std::size_t i = 0; i < n; ++i)
        if (rng.chance(0.8)) coll.push_back({i, rng.uniform_int(-20, 40)});
      std::shuffle(coll.begin(), coll.end(), rng.engine());
    }
    p.collisions.push_back(std::move(coll));
  }
  return p;
}

constexpr std::size_t kGuards[] = {0, 1, 4, 16};
constexpr int kPatterns = 10000;

using StepTuple = std::tuple<int, std::size_t, std::size_t, std::size_t,
                             std::size_t, std::size_t, std::size_t>;

std::vector<StepTuple> tuples(const std::vector<ScheduleStep>& steps) {
  std::vector<StepTuple> out;
  for (const auto& s : steps)
    out.emplace_back(0, s.collision, 0, s.packet, 0, s.k0, s.k1);
  return out;
}

std::vector<StepTuple> tuples(const std::vector<MpStep>& steps) {
  std::vector<StepTuple> out;
  for (const auto& s : steps)
    out.emplace_back(static_cast<int>(s.kind), s.collision, s.other_collision,
                     s.packet, s.other_packet, s.k0, s.k1);
  return out;
}

TEST(PlannerGolden, GreedyScheduleMatchesSymbolReference) {
  Rng rng(0x9e1d);
  std::size_t complete = 0, incomplete = 0;
  for (int t = 0; t < kPatterns && !HasFailure(); ++t) {
    const Pattern p = random_pattern(rng);
    const std::size_t guard = kGuards[t % 4];
    const auto want = ref_greedy_schedule(p, guard);
    const auto got = greedy_schedule(p, guard);
    EXPECT_EQ(tuples(got.steps), tuples(want.steps)) << "pattern " << t;
    EXPECT_EQ(got.rounds, want.rounds) << "pattern " << t;
    EXPECT_EQ(got.complete, want.complete) << "pattern " << t;
    EXPECT_EQ(got.undecoded_packets, want.undecoded_packets) << "pattern " << t;
    ++(want.complete ? complete : incomplete);
  }
  // Both outcomes are well represented.
  EXPECT_GT(complete, 1000u);
  EXPECT_GT(incomplete, 1000u);
}

TEST(PlannerGolden, MessagePassingPlanMatchesSymbolReference) {
  Rng rng(0x1001);
  std::size_t eliminations = 0, complete = 0, incomplete = 0;
  for (int t = 0; t < kPatterns && !HasFailure(); ++t) {
    const Pattern p = random_pattern(rng);
    const std::size_t guard = kGuards[t % 4];
    const auto want = ref_message_passing_plan(p, guard);
    const auto got = message_passing_plan(p, guard);
    EXPECT_EQ(tuples(got.steps), tuples(want.steps)) << "pattern " << t;
    EXPECT_EQ(got.rounds, want.rounds) << "pattern " << t;
    EXPECT_EQ(got.peels, want.peels) << "pattern " << t;
    EXPECT_EQ(got.eliminations, want.eliminations) << "pattern " << t;
    EXPECT_EQ(got.complete, want.complete) << "pattern " << t;
    EXPECT_EQ(got.unresolved_packets, want.unresolved_packets)
        << "pattern " << t;
    eliminations += want.eliminations;
    ++(want.complete ? complete : incomplete);
  }
  // The generator reaches the elimination path and both outcomes.
  EXPECT_GT(eliminations, 1000u);
  EXPECT_GT(complete, 1000u);
  EXPECT_GT(incomplete, 1000u);
}

// ---------------------------------------------------------------------------
// Pattern validation, shared by both entry points.
// ---------------------------------------------------------------------------

Pattern out_of_range_placement() {
  Pattern p;
  p.lengths = {10};
  p.collisions = {{{3, 0}}};
  return p;
}

// The same packet twice in one collision is physically meaningless, and the
// peel order would decide which copy's symbols get solved first.
Pattern duplicate_placement() {
  Pattern p;
  p.lengths = {100, 100};
  p.collisions = {{{0, 0}, {1, 30}, {0, 60}}, {{0, 0}, {1, 70}}};
  return p;
}

TEST(PlannerValidation, GreedyScheduleRejectsOutOfRangePlacement) {
  EXPECT_THROW((void)greedy_schedule(out_of_range_placement()),
               std::invalid_argument);
}

TEST(PlannerValidation, MessagePassingPlanRejectsOutOfRangePlacement) {
  EXPECT_THROW((void)message_passing_plan(out_of_range_placement()),
               std::invalid_argument);
}

TEST(PlannerValidation, GreedyScheduleRejectsDuplicatePlacement) {
  EXPECT_THROW((void)greedy_schedule(duplicate_placement()),
               std::invalid_argument);
}

TEST(PlannerValidation, MessagePassingPlanRejectsDuplicatePlacement) {
  EXPECT_THROW((void)message_passing_plan(duplicate_placement()),
               std::invalid_argument);
}

TEST(PlannerValidation, SamePacketInDifferentCollisionsIsFine) {
  // Distinctness is per collision: the duplicate pattern minus its repeat
  // is the classic decodable pair.
  Pattern p = duplicate_placement();
  p.collisions[0].pop_back();
  EXPECT_TRUE(greedy_schedule(p).complete);
  EXPECT_TRUE(message_passing_plan(p).complete);
}

}  // namespace
}  // namespace zz::zigzag
