// Reusable scratch buffers for per-call workspaces.
//
// The zigzag chunk loop and the collision detector render, correlate and
// project through temporary sample buffers thousands of times per decode;
// allocating them per call dominated the profile. A ScratchArena owns a
// small set of slot-addressed buffers that keep their capacity across
// calls, so steady-state operation performs no allocation at all.
//
// Discipline: slots are owner-scoped. Each object that embeds an arena
// assigns fixed slot numbers to its own call sites (an enum works well);
// two call sites may share a slot only when their lifetimes never overlap.
//
// Thread contract (docs/ANALYSIS.md §3): arenas are NOT thread-safe — give
// each thread (or each engine object) its own. Serial hand-off between
// threads is fine (the pool runs one task at a time per engine); what is
// forbidden is two threads inside an arena at once. Sanitizer builds
// (ZZ_DEBUG_THREAD_CHECKS, set by the ZZ_SANITIZE configs) compile in a
// concurrent-entry detector that aborts with a diagnostic on violation —
// the machine check backing the contract, since there is no lock for
// clang's thread-safety analysis to see.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#ifdef ZZ_DEBUG_THREAD_CHECKS
#include <cstdio>
#include <cstdlib>

#include "zz/common/reentry.h"
#endif

#include "zz/common/check.h"
#include "zz/common/types.h"

namespace zz::sig {

class ScratchArena {
 public:
  /// Slots are small dense owner-assigned enum values. `slot` and `n` share
  /// a type, so swapping the arguments compiles; a slot this large is a
  /// buffer length standing where the slot index should be.
  static constexpr std::size_t kMaxSlots = 256;

  /// Complex buffer for `slot`, resized to n. Contents are stale — callers
  /// that need zeros should use czero(). A slot's capacity grows to exactly
  /// the largest n asked of it, not by the vector's doubling, so a slot
  /// asked for varying sizes holds no more than its largest.
  CVec& cvec(std::size_t slot, std::size_t n) {
    ZZ_DCHECK_LT(slot, kMaxSlots);
    [[maybe_unused]] const ConfinementGuard guard(*this);
    while (c_.size() <= slot) c_.emplace_back();
    c_[slot].reserve(n);
    c_[slot].resize(n);
    return c_[slot];
  }

  /// Complex buffer for `slot`, resized to n and zero-filled.
  CVec& czero(std::size_t slot, std::size_t n) {
    ZZ_DCHECK_LT(slot, kMaxSlots);
    [[maybe_unused]] const ConfinementGuard guard(*this);
    while (c_.size() <= slot) c_.emplace_back();
    c_[slot].assign(n, cplx{0.0, 0.0});
    return c_[slot];
  }

  /// Real buffer for `slot`, resized to n (contents stale; capacity as
  /// for cvec).
  std::vector<double>& dvec(std::size_t slot, std::size_t n) {
    ZZ_DCHECK_LT(slot, kMaxSlots);
    [[maybe_unused]] const ConfinementGuard guard(*this);
    while (d_.size() <= slot) d_.emplace_back();
    d_[slot].reserve(n);
    d_[slot].resize(n);
    return d_[slot];
  }

  /// Release all held capacity.
  void release() {
    [[maybe_unused]] const ConfinementGuard guard(*this);
    c_.clear();
    d_.clear();
  }

 private:
#ifdef ZZ_DEBUG_THREAD_CHECKS
  /// Aborts when two threads are inside the arena at once. Entry/exit are
  /// acq_rel RMWs on the occupancy counter (zz::EntryCounter) — NOT relaxed: the documented
  /// contract allows serial cross-thread hand-off, and with a relaxed
  /// counter the detector both stayed silent AND provided no
  /// happens-before edge between the two users' buffer writes, so the
  /// hand-off the contract promises was itself a data race. The acq_rel
  /// counter chain is that edge (B's enter that observes A's exit sees all
  /// of A's writes); Scratch.SerialHandOffThroughConfinementCounter pins
  /// the hand-off under TSan (docs/ANALYSIS.md §10).
  struct ConfinementGuard {
    explicit ConfinementGuard(ScratchArena& a) : a_(a) {
      if (a_.active_.enter() != 0) {
        std::fprintf(stderr,
                     "ScratchArena: concurrent access from two threads — "
                     "arenas are thread-confined (see zz/signal/scratch.h)\n");
        std::abort();
      }
    }
    ~ConfinementGuard() { a_.active_.exit(); }
    ScratchArena& a_;
  };
  EntryCounter active_;
#else
  struct ConfinementGuard {
    explicit ConfinementGuard(ScratchArena&) {}
  };
#endif

  // Deques so a reference handed out for one slot survives another slot
  // being materialized while it is still in use.
  std::deque<CVec> c_;
  std::deque<std::vector<double>> d_;
};

}  // namespace zz::sig
