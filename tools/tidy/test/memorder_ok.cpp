// Negative fixture for zz-memory-order: every call site names its ordering
// from the convention table (docs/ANALYSIS.md §10, Atomics) — the shapes
// of ReentryFlag, the ScratchArena confinement counter and the peak gauge.
#include <atomic>

std::atomic<bool> g_held{false};
std::atomic<int> g_active{0};
std::atomic<long> g_peak{0};

bool try_enter() { return !g_held.exchange(true, std::memory_order_acquire); }
void leave() { g_held.store(false, std::memory_order_release); }

bool enter_alone() {
  return g_active.fetch_add(1, std::memory_order_acq_rel) == 0;
}
void exit_arena() { g_active.fetch_sub(1, std::memory_order_acq_rel); }

void raise_peak(long live) {
  long peak = g_peak.load(std::memory_order_relaxed);
  while (peak < live &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}
