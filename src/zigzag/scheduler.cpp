// One chunk planner behind both the §4.5 greedy schedule (scheduler.h) and
// the "Collision Helps" message-passing plan (equation_system.h). Chunks are
// bounded by packet starts and ends (§4.3), so every known/unknown set is a
// list of symbol intervals and a decodable run is interval arithmetic, not
// a walk over symbols.
#include "zz/zigzag/scheduler.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

#include "zz/common/check.h"
#include "zz/zigzag/equation_system.h"

namespace zz::zigzag {
namespace {

/// Half-open symbol interval [lo, hi).
struct Span {
  std::ptrdiff_t lo = 0, hi = 0;
};
/// Sorted, disjoint intervals.
using Spans = std::vector<Span>;

// out = a \ (b - shift). Both inputs sorted and disjoint.
void subtract(const Spans& a, const Spans& b, std::ptrdiff_t shift,
              Spans& out) {
  out.clear();
  std::size_t j = 0;
  for (const Span& s : a) {
    while (j < b.size() && b[j].hi - shift <= s.lo) ++j;
    std::ptrdiff_t lo = s.lo;
    for (std::size_t t = j; lo < s.hi; ++t) {
      if (t == b.size() || b[t].lo - shift >= s.hi) {
        out.push_back({lo, s.hi});
        break;
      }
      if (b[t].lo - shift > lo) out.push_back({lo, b[t].lo - shift});
      lo = std::max(lo, b[t].hi - shift);
    }
  }
}

class ChunkPlanner {
 public:
  /// Throws std::invalid_argument (prefixed by `who`) on a placement of a
  /// missing packet, or on a packet placed twice in one collision.
  ChunkPlanner(const Pattern& pattern, std::size_t guard, const char* who)
      : pattern_(pattern),
        guard_(static_cast<std::ptrdiff_t>(guard)),
        unknown_(pattern.lengths.size()) {
    for (const auto& coll : pattern.collisions)
      for (std::size_t i = 0; i < coll.size(); ++i) {
        if (coll[i].packet >= pattern.lengths.size())
          throw std::invalid_argument(std::string(who) +
                                      ": placement out of range");
        for (std::size_t j = 0; j < i; ++j)
          if (coll[j].packet == coll[i].packet)
            throw std::invalid_argument(
                std::string(who) + ": packet placed twice in one collision");
      }
    for (std::size_t p = 0; p < unknown_.size(); ++p)
      if (pattern.lengths[p] > 0)
        unknown_[p].push_back(
            {0, static_cast<std::ptrdiff_t>(pattern.lengths[p])});
  }

  const Spans& unknown(std::size_t p) const { return unknown_[p]; }

  /// Mark `solved` (a subset of packet p's unknown symbols) known.
  void solve(std::size_t p, const Spans& solved) {
    subtract(unknown_[p], solved, 0, scratch_);
    unknown_[p].swap(scratch_);
  }

  /// The planner's one primitive: drop from `runs` (symbols of a packet
  /// placed at `offset` in collision c) every symbol within ±guard of an
  /// unknown symbol of a packet outside {a, b} in that collision.
  void clear_of(std::size_t c, std::ptrdiff_t offset, std::size_t a,
                std::size_t b, Spans& runs) {
    blocked_.clear();
    for (const auto& pl : pattern_.collisions[c]) {
      if (pl.packet == a || pl.packet == b) continue;
      for (const Span& s : unknown_[pl.packet])
        blocked_.push_back(
            {pl.offset + s.lo - guard_, pl.offset + s.hi + guard_});
    }
    std::sort(blocked_.begin(), blocked_.end(),
              [](const Span& x, const Span& y) { return x.lo < y.lo; });
    std::size_t m = 0;
    for (const Span& s : blocked_) {
      if (m > 0 && s.lo <= blocked_[m - 1].hi)
        blocked_[m - 1].hi = std::max(blocked_[m - 1].hi, s.hi);
      else
        blocked_[m++] = s;
    }
    blocked_.resize(m);
    subtract(runs, blocked_, offset, scratch_);
    runs.swap(scratch_);
  }

  /// Peel rounds over the collisions in `order`: every maximal
  /// interference-free run of every placement is solved and reported as
  /// peeled(collision, packet, run). When a round solves nothing,
  /// `stalled()` may solve something else and ask for another round.
  /// Returns the number of rounds.
  template <class Peeled, class Stalled>
  std::size_t run(const std::vector<std::size_t>& order, Peeled&& peeled,
                  Stalled&& stalled) {
    std::size_t rounds = 0;
    for (;;) {
      ++rounds;
      bool progress = false;
      for (const std::size_t c : order)
        for (const auto& pl : pattern_.collisions[c]) {
          runs_ = unknown_[pl.packet];
          clear_of(c, pl.offset, pl.packet, pl.packet, runs_);
          for (const Span& r : runs_) peeled(c, pl.packet, r);
          if (runs_.empty()) continue;
          solve(pl.packet, runs_);
          progress = true;
        }
      if (!progress && !stalled()) return rounds;
    }
  }

  std::vector<std::size_t> unsolved() const {
    std::vector<std::size_t> ids;
    for (std::size_t p = 0; p < unknown_.size(); ++p)
      if (!unknown_[p].empty()) ids.push_back(p);
    return ids;
  }

 private:
  const Pattern& pattern_;
  std::ptrdiff_t guard_;
  std::vector<Spans> unknown_;  ///< per packet: symbols not yet solved
  Spans blocked_, scratch_, runs_;
};

std::size_t to_index(std::ptrdiff_t k) {
  ZZ_DCHECK_GE(k, 0);  // runs are subsets of [0, length)
  return static_cast<std::size_t>(k);
}

}  // namespace

ScheduleResult greedy_schedule(const Pattern& pattern, std::size_t guard) {
  ChunkPlanner planner(pattern, guard, "greedy_schedule");
  std::vector<std::size_t> order(pattern.collisions.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  ScheduleResult res;
  res.rounds = planner.run(
      order,
      [&](std::size_t c, std::size_t p, const Span& r) {
        res.steps.push_back({c, p, to_index(r.lo), to_index(r.hi)});
      },
      [] { return false; });
  res.undecoded_packets = planner.unsolved();
  res.complete = res.undecoded_packets.empty();
  return res;
}

MpPlan message_passing_plan(const Pattern& pattern, std::size_t guard) {
  ChunkPlanner planner(pattern, guard, "message_passing_plan");
  const auto order = order_equations(pattern);
  MpPlan plan;
  Spans runs;

  // One elimination: the first (in conditioning order) pair of collisions
  // whose unknown support over some region is the same packet pair at the
  // same relative offset. Solves the first run of the lower-numbered packet
  // of the pair; the other becomes peelable once it is substituted.
  const auto eliminate_once = [&] {
    for (std::size_t ci = 0; ci < order.size(); ++ci) {
      const std::size_t c1 = order[ci];
      for (std::size_t cj = ci + 1; cj < order.size(); ++cj) {
        const std::size_t c2 = order[cj];
        for (const auto& pa : pattern.collisions[c1]) {
          for (const auto& pb : pattern.collisions[c1]) {
            if (pb.packet <= pa.packet) continue;
            // Both packets in c2 at the same relative offset?
            const Pattern::Placement* qa = nullptr;
            const Pattern::Placement* qb = nullptr;
            for (const auto& pl : pattern.collisions[c2]) {
              if (pl.packet == pa.packet) qa = &pl;
              if (pl.packet == pb.packet) qb = &pl;
            }
            if (!qa || !qb) continue;
            if (pa.offset - pb.offset != qa->offset - qb->offset) continue;

            // The elimination's matched sampling cancels the WHOLE of
            // pb.packet's waveform (not individual symbols), so any unknown
            // symbol of pa.packet qualifies as long as no third packet's
            // unknown symbols interfere in either collision — pb's guard
            // tails cancel along with the rest of it. (Outside pb's span
            // the 2x2 solve degenerates gracefully: the pb unknown is just
            // zero there.)
            runs = planner.unknown(pa.packet);
            planner.clear_of(c1, pa.offset, pa.packet, pb.packet, runs);
            planner.clear_of(c2, qa->offset, pa.packet, pb.packet, runs);
            if (runs.empty()) continue;
            runs.resize(1);
            planner.solve(pa.packet, runs);
            plan.steps.push_back({MpStep::Kind::Eliminate, c1, c2, pa.packet,
                                  pb.packet, to_index(runs[0].lo),
                                  to_index(runs[0].hi)});
            ++plan.eliminations;
            return true;
          }
        }
      }
    }
    return false;
  };

  plan.rounds = planner.run(
      order,
      [&](std::size_t c, std::size_t p, const Span& r) {
        plan.steps.push_back({MpStep::Kind::Peel, c, 0, p, 0, to_index(r.lo),
                              to_index(r.hi)});
        ++plan.peels;
      },
      eliminate_once);
  plan.unresolved_packets = planner.unsolved();
  plan.complete = plan.unresolved_packets.empty();
  return plan;
}

std::size_t equation_conditioning(const Pattern& pattern,
                                  std::size_t collision) {
  if (collision >= pattern.collisions.size())
    throw std::invalid_argument("equation_conditioning: collision out of range");
  const auto& coll = pattern.collisions[collision];
  std::size_t best = static_cast<std::size_t>(-1);
  for (std::size_t a = 0; a < coll.size(); ++a)
    for (std::size_t b = a + 1; b < coll.size(); ++b) {
      const auto d = coll[a].offset - coll[b].offset;
      best = std::min(best, static_cast<std::size_t>(d < 0 ? -d : d));
    }
  return best;
}

std::vector<std::size_t> order_equations(const Pattern& pattern) {
  std::vector<std::size_t> order(pattern.collisions.size());
  for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
  std::vector<std::size_t> cond(order.size());
  for (std::size_t c = 0; c < order.size(); ++c)
    cond[c] = equation_conditioning(pattern, c);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cond[a] > cond[b]; });
  return order;
}

bool pairwise_condition_holds(const Pattern& pattern) {
  const std::size_t npk = pattern.lengths.size();
  // For every unordered pair: the set of relative offsets across collisions
  // where both appear, and whether either ever appears without the other.
  for (std::size_t a = 0; a < npk; ++a) {
    for (std::size_t b = a + 1; b < npk; ++b) {
      std::set<std::ptrdiff_t> rel;
      bool ever_together = false;
      bool ever_apart = false;
      for (const auto& coll : pattern.collisions) {
        std::ptrdiff_t oa = 0, ob = 0;
        bool ha = false, hb = false;
        for (const auto& pl : coll) {
          if (pl.packet == a) {
            ha = true;
            oa = pl.offset;
          }
          if (pl.packet == b) {
            hb = true;
            ob = pl.offset;
          }
        }
        if (ha && hb) {
          ever_together = true;
          rel.insert(oa - ob);
        } else if (ha != hb) {
          ever_apart = true;
        }
      }
      if (ever_together && rel.size() < 2 && !ever_apart) return false;
    }
  }
  return true;
}

}  // namespace zz::zigzag
