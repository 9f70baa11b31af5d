// Re-entry guards — runtime enforcement of "not reentrant; give each
// thread its own instance" contracts that used to live in comments (e.g.
// the persistent-correlator state of phy::StandardReceiver::decode).
//
//   class Receiver {
//     mutable ReentryFlag busy_;
//     void decode(...) const {
//       ReentryScope guard(busy_, "StandardReceiver::decode");
//       ...
//     }
//   };
//
// The scope is ZZ_DCHECK-backed: with ZZ_ENABLE_DCHECKS defined (Debug and
// sanitizer builds) a second entry — recursive from the same thread or
// concurrent from another — aborts with the offending site named; in plain
// Release the guard compiles to nothing, so it can sit on hot decode paths
// without perturbing the drift-gated benches. The flag itself is always
// functional, so callers that want an always-on guard (or a test of the
// mechanism) can use try_enter()/leave() directly.
#pragma once

#include <atomic>

#include "zz/common/check.h"

namespace zz {

/// One bit of "a caller is inside" state. Enter is an acquire exchange and
/// leave a release store, so the holder's writes are visible to the next
/// caller that enters. Atomic so a concurrent second entry is detected
/// (not just recursion); cheap enough to be free on the fast path.
class ReentryFlag {
 public:
  /// True when the flag was clear and is now held by this caller.
  bool try_enter() noexcept {
    return !held_.exchange(true, std::memory_order_acquire);
  }
  void leave() noexcept { held_.store(false, std::memory_order_release); }
  bool busy() const noexcept { return held_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> held_{false};
};

/// Occupancy count for a single-owner region (ScratchArena confinement).
/// enter() and exit() return the count before the call, so a nonzero
/// prior on enter means another caller is inside. Both are acq_rel RMWs:
/// besides detecting overlap, the counter chain is the happens-before edge
/// of a serial cross-thread hand-off (B's enter that reads A's exit sees
/// all of A's writes).
class EntryCounter {
 public:
  /// The count before entering (0 = sole owner).
  int enter() noexcept { return n_.fetch_add(1, std::memory_order_acq_rel); }
  /// The count before exiting (1 = the caller was sole owner).
  int exit() noexcept { return n_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  std::atomic<int> n_{0};
};

/// RAII contract scope: entering while another scope holds `flag` is a
/// fatal contract violation when DCHECKs are compiled in, a no-op
/// otherwise.
class ReentryScope {
 public:
  ReentryScope(ReentryFlag& flag, const char* what) noexcept : flag_(flag) {
#ifdef ZZ_ENABLE_DCHECKS
    ZZ_CHECK(flag_.try_enter())
        << " — " << what
        << " re-entered while a prior call is still active; the persistent "
           "scratch state is single-caller (give each thread its own "
           "instance)";
#else
    (void)what;
#endif
  }
  ~ReentryScope() {
#ifdef ZZ_ENABLE_DCHECKS
    flag_.leave();
#endif
  }
  ReentryScope(const ReentryScope&) = delete;
  ReentryScope& operator=(const ReentryScope&) = delete;

 private:
  [[maybe_unused]] ReentryFlag& flag_;
};

}  // namespace zz
