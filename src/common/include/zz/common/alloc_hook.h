// Allocation-counting test hook (AP-farm soak gates).
//
// The farm's long-haul soak run must prove that steady-state episodes
// allocate no more than the first ones and retain nothing — the
// per-worker arenas have to reach a fixed point after warmup, or a
// thousand-cell farm grows without bound. There is no portable way to
// observe that from the outside, so this hook replaces the global
// operator new/delete with counting wrappers (alloc_hook.cpp) and exposes
// the counters:
//
//  * thread_alloc_counts() — per-thread totals, so a worker can tally the
//    allocations of exactly the episode it just ran (AllocTally);
//  * live_heap_bytes()/peak_heap_bytes() — process-wide net heap, the
//    bounded-retention side of the soak gate (a leak or an unbounded
//    cache shows up as monotone growth across episodes).
//
// The replacement is linked into any binary whose object files reference
// these functions (the farm module does); it forwards to malloc/free and
// adds a handful of thread-local increments per call — cheap enough to
// stay enabled in the Release benches the drift gate times. Binaries that
// never reference the hook keep the toolchain's stock operator new.
//
// Thread contract: counters for a thread are written only by that thread;
// the process-wide net/peak counters are relaxed atomics (they order
// nothing — they are gauges, read at quiescent points).
#pragma once

#include <cstdint>

namespace zz {

/// Per-thread allocation totals since thread start.
struct AllocCounts {
  std::uint64_t allocs = 0;       ///< operator new calls served
  std::uint64_t frees = 0;        ///< operator delete calls (non-null)
  std::uint64_t alloc_bytes = 0;  ///< usable bytes handed out
};

/// The calling thread's totals.
AllocCounts thread_alloc_counts();

/// Process-wide net heap (usable bytes allocated minus freed) and the
/// highest value it has reached. Counts only memory that flowed through
/// the replaced operator new — i.e. C++ allocations of this binary.
std::int64_t live_heap_bytes();
std::int64_t peak_heap_bytes();

/// Scoped tally: allocation activity on the calling thread since
/// construction. The farm wraps each episode in one; the soak gates
/// compare the steady-state sums against the warmup's.
class AllocTally {
 public:
  AllocTally() : start_(thread_alloc_counts()) {}

  std::uint64_t allocs() const {
    return thread_alloc_counts().allocs - start_.allocs;
  }
  std::uint64_t frees() const {
    return thread_alloc_counts().frees - start_.frees;
  }
  std::uint64_t alloc_bytes() const {
    return thread_alloc_counts().alloc_bytes - start_.alloc_bytes;
  }

 private:
  AllocCounts start_;
};

}  // namespace zz
