// Model-check explorations of the four production lock-free protocols
// (zz/common/model/protocols.h). Each protocol struct follows the
// explore<T> shape: fresh instance per schedule, thread(tid) bodies on
// virtual threads, invariants in ZZ_MODEL_ASSERT (inline) and finish()
// (end-state). Members touched by more than one body are zz::Atomic (and
// so scheduled + weak-memory modeled); per-thread observation slots are
// plain members — the baton serializes real accesses, and finish() reads
// them after every body has returned.
#include "zz/common/model/protocols.h"

#include <cstddef>
#include <cstdint>

#include "zz/common/atomic.h"
#include "zz/common/steal_range.h"

namespace zz::model {
namespace {

// ----------------------------------------------------- work-stealing deque

/// parallel_for_sharded's per-worker range cells driven through the
/// extracted kernels (range_pop_front / range_steal_back). Contract:
/// across owner pops, back-half steals, single-claims and re-installs,
/// every index in [0, n) is claimed exactly once.
struct DequeSteal {
  static constexpr int kThreads = 2;
  static constexpr std::size_t kN = 4;

  Atomic<std::uint64_t> q[kThreads];
  int claims[kThreads][kN] = {};

  DequeSteal() {
    for (std::size_t k = 0; k < kThreads; ++k)
      q[k].store(RangeCell::pack(k * kN / kThreads, (k + 1) * kN / kThreads),
                 std::memory_order_relaxed);
  }

  void thread(int t) {
    const auto k = static_cast<std::size_t>(t);
    for (;;) {
      for (;;) {  // drain own cell front-to-back
        std::size_t i;
        const PopOutcome pop = range_pop_front(q[k], &i);
        if (pop == PopOutcome::kEmpty) break;
        if (pop == PopOutcome::kRaced) continue;
        claim(t, i);
      }
      std::size_t victim = kThreads;
      std::uint64_t best = 0;
      for (std::size_t v = 0; v < kThreads; ++v) {
        if (v == k) continue;
        const std::uint64_t cur = q[v].load(std::memory_order_acquire);
        const std::uint64_t rem = RangeCell::hi(cur) - RangeCell::lo(cur);
        if (!RangeCell::empty(cur) && rem > best) {
          best = rem;
          victim = v;
        }
      }
      if (victim == kThreads) return;
      std::size_t i;
      switch (range_steal_back(q[victim], q[k], &i)) {
        case StealOutcome::kStoleSingle:
          claim(t, i);
          break;
        case StealOutcome::kEmpty:
        case StealOutcome::kRaced:
        case StealOutcome::kInstalled:
          break;
      }
    }
  }

  void claim(int t, std::size_t i) {
    ZZ_MODEL_ASSERT(i < kN, "claimed index outside the batch");
    ++claims[t][i];
  }

  void finish() {
    for (std::size_t i = 0; i < kN; ++i) {
      int total = 0;
      for (int t = 0; t < kThreads; ++t) total += claims[t][i];
      ZZ_MODEL_ASSERT(total == 1,
                      "an index was dropped or double-claimed across "
                      "pop/steal races");
    }
  }
};

// ------------------------------------------------------------ batch ticket

/// parallel_for's generation ticket via ticket_claim. Thread 0 drains
/// generation 1; thread 1 claims one gen-1 index, bumps the ticket to
/// generation 2 (the real pool does this under its mutex when a new batch
/// starts) and drains generation 2. Contract: within a generation every
/// claimed index is claimed exactly once and claims form a prefix of
/// [0, n); the full-word CAS means a stale gen-1 claimer can never take a
/// gen-2 index.
struct TicketGeneration {
  static constexpr int kThreads = 2;
  static constexpr std::size_t kN1 = 3, kN2 = 2;

  Atomic<std::uint64_t> ticket{std::uint64_t{1} << 32};
  int g1[kThreads][kN1] = {};
  int g2[kThreads][kN2] = {};

  template <std::size_t N>
  void drain(Atomic<std::uint64_t>& tk, std::uint32_t gen, int (&arr)[N]) {
    for (;;) {
      std::size_t i;
      const TicketOutcome c = ticket_claim(tk, gen, N, &i);
      if (c == TicketOutcome::kSuperseded || c == TicketOutcome::kExhausted)
        return;
      if (c == TicketOutcome::kRaced) continue;
      ++arr[i];
    }
  }

  void thread(int t) {
    if (t == 0) {
      drain(ticket, 1, g1[0]);
      return;
    }
    // One competing gen-1 claim (no retry on a lost race), then the bump.
    std::size_t i;
    if (ticket_claim(ticket, 1, kN1, &i) == TicketOutcome::kClaimed)
      ++g1[1][i];
    ticket.store(std::uint64_t{2} << 32, std::memory_order_release);
    drain(ticket, 2, g2[1]);
  }

  void finish() {
    bool gap = false;
    for (std::size_t i = 0; i < kN1; ++i) {
      const int total = g1[0][i] + g1[1][i];
      ZZ_MODEL_ASSERT(total <= 1, "gen-1 index claimed twice");
      if (total == 0) gap = true;
      ZZ_MODEL_ASSERT(!(total == 1 && gap),
                      "gen-1 claims are not a prefix of the batch");
    }
    for (std::size_t i = 0; i < kN2; ++i) {
      ZZ_MODEL_ASSERT(g2[0][i] == 0,
                      "a stale gen-1 worker claimed a gen-2 index");
      ZZ_MODEL_ASSERT(g2[1][i] == 1, "gen-2 batch not fully drained");
    }
  }
};

// --------------------------------------------------- DecodeCache publish

/// The DecodeCache cached_decode shape (src/zigzag/decoder.cpp): check
/// under the lock, decode OUTSIDE the lock, re-lock and first-writer-wins
/// publish; racers adopt the published entry. model::Mutex supplies the
/// acquire/release pairing, so the entry fields themselves are relaxed —
/// exactly the production contract (entries immutable once published).
struct CachePublish {
  static constexpr int kThreads = 3;
  static constexpr std::uint64_t kValue = 7;

  Mutex mu;
  Atomic<int> present{0};
  Atomic<std::uint64_t> value{0};
  int writes = 0;  // mutated under mu only
  std::uint64_t seen[kThreads] = {};

  void thread(int t) {
    mu.lock();
    const bool hit = present.load(std::memory_order_relaxed) != 0;
    const std::uint64_t cached =
        hit ? value.load(std::memory_order_relaxed) : 0;
    mu.unlock();
    if (hit) {
      seen[t] = cached;
      return;
    }
    const std::uint64_t computed = kValue;  // the decode, outside the lock
    mu.lock();
    if (present.load(std::memory_order_relaxed) != 0) {
      seen[t] = value.load(std::memory_order_relaxed);  // raced: adopt
    } else {
      value.store(computed, std::memory_order_relaxed);
      present.store(1, std::memory_order_relaxed);
      ++writes;
      seen[t] = computed;
    }
    mu.unlock();
  }

  void finish() {
    ZZ_MODEL_ASSERT(writes == 1,
                    "entry written more than once (publish is "
                    "first-writer-wins, entries are immutable)");
    for (int t = 0; t < kThreads; ++t)
      ZZ_MODEL_ASSERT(seen[t] == kValue,
                      "a cache reader observed a torn/stale entry");
  }
};

// ------------------------------------------------------------- peak gauge

/// alloc_hook's live/peak gauges: relaxed fetch_add on live, fetch_max on
/// peak. Contract: the peak never loses a concurrent maximum — it ends
/// exactly at the largest post-add level any thread observed — and the
/// live gauge nets out (RMW atomicity). Thread 1 also frees, proving the
/// peak latches.
struct PeakGauge {
  static constexpr int kThreads = 3;
  static constexpr std::int64_t kAmount[kThreads] = {5, 9, 7};

  Atomic<std::int64_t> live{0};
  Atomic<std::int64_t> peak{0};
  std::int64_t observed[kThreads] = {};

  void thread(int t) {
    const std::int64_t after =
        live.fetch_add(kAmount[t], std::memory_order_relaxed) + kAmount[t];
    observed[t] = after;
    fetch_max(peak, after, std::memory_order_relaxed);
    if (t == 1)
      live.fetch_sub(kAmount[t], std::memory_order_relaxed);  // the free
  }

  void finish() {
    std::int64_t max_seen = 0, sum = 0;
    for (int t = 0; t < kThreads; ++t) {
      if (observed[t] > max_seen) max_seen = observed[t];
      sum += kAmount[t];
    }
    const std::int64_t final_live = live.load(std::memory_order_relaxed);
    const std::int64_t final_peak = peak.load(std::memory_order_relaxed);
    ZZ_MODEL_ASSERT(final_live == sum - kAmount[1],
                    "live gauge lost an update");
    ZZ_MODEL_ASSERT(final_peak == max_seen,
                    "peak gauge lost a concurrent maximum");
  }
};

// ---------------------------------------------------------- reentry flag

/// ReentryFlag/AtomicFlagGuard: a try-lock region. Contract: acquirers
/// are mutually exclusive, and because enter is an acquire exchange and
/// leave a release store, a later acquirer sees every write of the
/// previous holder — the relaxed counter inside the region stays exact.
struct ReentryFlagGuard {
  static constexpr int kThreads = 3;

  AtomicFlag flag;
  Atomic<int> data{0};
  bool acquired[kThreads] = {};

  void thread(int t) {
    AtomicFlagGuard guard(flag);
    if (!guard.acquired()) return;
    acquired[t] = true;
    const int v = data.load(std::memory_order_relaxed);
    data.store(v + 1, std::memory_order_relaxed);
  }

  void finish() {
    int holders = 0;
    for (int t = 0; t < kThreads; ++t)
      if (acquired[t]) ++holders;
    ZZ_MODEL_ASSERT(holders >= 1, "try-lock failed for every thread");
    ZZ_MODEL_ASSERT(data.load(std::memory_order_relaxed) == holders,
                    "writes inside the flag-guarded region were lost");
    ZZ_MODEL_ASSERT(!flag.held(std::memory_order_relaxed),
                    "flag still held after every guard released");
  }
};

// ------------------------------------------------- confinement hand-off

/// ScratchArena::ConfinementGuard via zz::EntryCounter (the PR's bugfix):
/// both threads increment-check-decrement. When neither detects overlap
/// (both enter() calls returned 0) the accesses were serialized, and the
/// acq_rel counter chain makes the hand-off a happens-before edge — the
/// second user must see the first user's buffer write.
struct ConfinementHandOff {
  static constexpr int kThreads = 3;

  EntryCounter guard;
  Atomic<std::uint64_t> buf{0};
  int prior[kThreads] = {-1, -1, -1};

  void thread(int t) {
    prior[t] = guard.enter();
    if (prior[t] == 0) {
      const std::uint64_t v = buf.load(std::memory_order_relaxed);
      buf.store(v + 1, std::memory_order_relaxed);
    }
    guard.exit();
  }

  void finish() {
    // Silent detector (every enter saw 0) ⟹ the RMW chain serialized the
    // users ⟹ the acq_rel edges make each increment visible to the next.
    bool all_sole = true;
    for (int t = 0; t < kThreads; ++t)
      if (prior[t] != 0) all_sole = false;
    if (all_sole)
      ZZ_MODEL_ASSERT(buf.load(std::memory_order_relaxed) == kThreads,
                      "serial hand-off lost an update although the "
                      "detector stayed silent");
  }
};

/// The pre-fix ConfinementGuard: relaxed fetch_add/fetch_sub. The
/// explorer must find the regression — the detector stays silent (both
/// enters see 0) yet the second user reads a stale buffer and an update
/// is lost.
struct ConfinementBrokenRelaxed {
  static constexpr int kThreads = 2;

  Atomic<int> active{0};
  Atomic<std::uint64_t> buf{0};
  int prior[kThreads] = {-1, -1};

  void thread(int t) {
    prior[t] = active.fetch_add(1, std::memory_order_relaxed);
    if (prior[t] == 0) {
      const std::uint64_t v = buf.load(std::memory_order_relaxed);
      buf.store(v + 1, std::memory_order_relaxed);
    }
    active.fetch_sub(1, std::memory_order_relaxed);
  }

  void finish() {
    if (prior[0] == 0 && prior[1] == 0)
      ZZ_MODEL_ASSERT(buf.load(std::memory_order_relaxed) == 2,
                      "relaxed confinement counter: silent detector with "
                      "a lost hand-off update");
  }
};

Options tuned(int threads, int preemptions) {
  Options opt;
  opt.threads = threads;
  opt.max_preemptions = preemptions;
  return opt;
}

}  // namespace

Result run_deque_steal() {
  return explore<DequeSteal>(tuned(2, 3));
}
Result run_ticket_generation() {
  return explore<TicketGeneration>(tuned(2, -1));  // small: exhaustive
}
Result run_cache_publish() {
  return explore<CachePublish>(tuned(3, 2));
}
Result run_peak_gauge() {
  return explore<PeakGauge>(tuned(3, 2));
}
Result run_reentry_flag() {
  return explore<ReentryFlagGuard>(tuned(3, -1));  // tiny: exhaustive
}
Result run_confinement_handoff() {
  return explore<ConfinementHandOff>(tuned(3, -1));  // tiny: exhaustive
}
Result run_confinement_broken_relaxed() {
  return explore<ConfinementBrokenRelaxed>(tuned(2, -1));
}

std::vector<ProtocolRun> run_protocol_suite() {
  std::vector<ProtocolRun> runs;
  runs.push_back({"deque-steal",
                  "every index claimed exactly once across pop/steal races",
                  false, run_deque_steal()});
  runs.push_back({"ticket-generation",
                  "per-generation claim-once; no cross-batch claims",
                  false, run_ticket_generation()});
  runs.push_back({"cache-publish",
                  "first-writer-wins entry, written once, racers adopt it",
                  false, run_cache_publish()});
  runs.push_back({"peak-gauge",
                  "peak is monotone and never loses a concurrent maximum",
                  false, run_peak_gauge()});
  runs.push_back({"reentry-flag",
                  "guard region is exclusive and hands its writes onward",
                  false, run_reentry_flag()});
  runs.push_back({"confinement-handoff",
                  "acq_rel entry counter orders the serial arena hand-off",
                  false, run_confinement_handoff()});
  runs.push_back({"confinement-broken-relaxed",
                  "relaxed entry counter MUST be caught by the explorer",
                  true, run_confinement_broken_relaxed()});
  return runs;
}

}  // namespace zz::model
