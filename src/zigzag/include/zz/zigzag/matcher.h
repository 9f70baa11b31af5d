// "Did the AP Receive Two Matching Collisions?" — §4.2.2.
//
// The AP keeps recent unmatched collisions (raw samples). When a new
// collision arrives it aligns candidate packet starts across the two
// receptions and correlates: two copies of the same packet are identical up
// to channel phase, noise and the retransmission flag, so the normalized
// correlation is large; unrelated (scrambled) packets decorrelate.
//
// The score is one normalized correlation at the detected alignment,
// |Σ a·conj(b)| / √(E1·E2) over up to `span` samples past the skip. The
// new reception's window is copied once by prepare(); every stored
// candidate then costs one O(span) pass in score().
#pragma once

#include <cstddef>

#include "zz/common/types.h"

namespace zz::zigzag {

struct MatchConfig {
  std::size_t skip = 192;    ///< samples to skip past preamble+header
  std::size_t span = 512;    ///< samples to correlate
  double threshold = 0.30;   ///< normalized score required for a match
};

struct MatchScore {
  double score = 0.0;  ///< |<s1, s2>| / sqrt(E1·E2) over the compared span
  bool matched = false;
};

/// §4.2.2 matcher. Typical n-way use: prepare(rx2, start2) once for a new
/// detection, then score() every stored packet against it. Not
/// thread-safe; one per thread.
class PacketMatcher {
 public:
  explicit PacketMatcher(MatchConfig cfg = {});

  const MatchConfig& config() const { return cfg_; }

  /// Copy the comparison window of `rx2` (up to span samples past
  /// start2 + skip). Returns false when fewer than 64 samples are
  /// available; score() then reports no match until the next successful
  /// prepare().
  bool prepare(const CVec& rx2, std::ptrdiff_t start2);

  /// Score the packet starting at `start1` in `rx1` against the prepared
  /// window. The compared length is the shorter of the two windows and
  /// must be at least 64 samples; a silent or non-finite window scores 0.
  MatchScore score(const CVec& rx1, std::ptrdiff_t start1) const;

 private:
  MatchConfig cfg_;
  CVec window_;  ///< prepared comparison window; empty when none
};

}  // namespace zz::zigzag
