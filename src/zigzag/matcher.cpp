#include "zz/zigzag/matcher.h"

#include <algorithm>
#include <cmath>
#include <complex>

namespace zz::zigzag {

PacketMatcher::PacketMatcher(MatchConfig cfg) : cfg_(cfg) {}

bool PacketMatcher::prepare(const CVec& rx2, std::ptrdiff_t start2) {
  window_.clear();  // a rejected window must not leave the last one behind
  const std::ptrdiff_t s2 = start2 + static_cast<std::ptrdiff_t>(cfg_.skip);
  if (s2 < 0 || static_cast<std::size_t>(s2) >= rx2.size()) return false;
  const std::size_t n2 =
      std::min(cfg_.span, rx2.size() - static_cast<std::size_t>(s2));
  if (n2 < 64) return false;  // not enough overlap to judge
  window_.assign(rx2.begin() + s2,
                 rx2.begin() + s2 + static_cast<std::ptrdiff_t>(n2));
  return true;
}

MatchScore PacketMatcher::score(const CVec& rx1, std::ptrdiff_t start1) const {
  MatchScore out;
  const std::ptrdiff_t s1 = start1 + static_cast<std::ptrdiff_t>(cfg_.skip);
  if (s1 < 0 || static_cast<std::size_t>(s1) >= rx1.size()) return out;
  const std::size_t len =
      std::min(window_.size(), rx1.size() - static_cast<std::size_t>(s1));
  if (len < 64) return out;  // also rejects an empty (unprepared) window

  cplx acc{0.0, 0.0};
  double e1 = 0.0, e2 = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const cplx a = rx1[static_cast<std::size_t>(s1) + i];
    const cplx b = window_[i];
    acc += a * std::conj(b);
    e1 += std::norm(a);
    e2 += std::norm(b);
  }
  if (e1 < 1e-12 || e2 < 1e-12) return out;
  const double s = std::abs(acc) / std::sqrt(e1 * e2);
  if (!std::isfinite(s)) return out;  // NaN/Inf samples: a defined reject
  out.score = s;
  out.matched = s >= cfg_.threshold;
  return out;
}

}  // namespace zz::zigzag
