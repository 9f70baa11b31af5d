#include "zz/common/thread_pool.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "zz/common/mutex.h"
#include "zz/common/thread_annotations.h"

namespace zz {

std::uint64_t shard_seed(std::uint64_t base, std::uint64_t index) {
  // SplitMix64 finalizer over the combined state: uncorrelated streams for
  // neighbouring indices, stable across platforms.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct ThreadPool::Impl {
  Mutex mu;
  std::condition_variable work_cv;   ///< workers wait here for a batch
  std::condition_variable done_cv;   ///< parallel_for waits here for drain
  const std::function<void(std::size_t)>* fn ZZ_GUARDED_BY(mu) = nullptr;
  std::size_t batch_n ZZ_GUARDED_BY(mu) = 0;
  std::size_t next ZZ_GUARDED_BY(mu) = 0;       ///< next unclaimed index
  std::size_t in_flight ZZ_GUARDED_BY(mu) = 0;  ///< claimed, not finished
  std::uint32_t generation ZZ_GUARDED_BY(mu) = 0;
  bool stop ZZ_GUARDED_BY(mu) = false;
  std::exception_ptr error ZZ_GUARDED_BY(mu);
  /// Written by the constructor before any worker runs and joined by the
  /// destructor after all have exited — confined to the owning thread, so
  /// deliberately not guarded by mu.
  std::vector<std::thread> workers;

  /// Claims the next index of batch `gen`. The generation check keeps a
  /// worker lingering from a drained batch from claiming (and silently
  /// consuming) an index of the NEXT batch: it sees the bumped generation
  /// and exits.
  bool claim(std::uint32_t gen, std::size_t* i) ZZ_REQUIRES(mu) {
    if (generation != gen || next >= batch_n) return false;
    *i = next++;
    return true;
  }

  void run_tasks(const std::function<void(std::size_t)>& f,
                 std::uint32_t gen) ZZ_EXCLUDES(mu) {
    std::size_t i = 0;
    {
      MutexLock lock(mu);
      if (!claim(gen, &i)) return;
    }
    for (;;) {
      std::exception_ptr err;
      try {
        f(i);
      } catch (...) {
        err = std::current_exception();
      }
      // One lock per task: retire this index and claim the next.
      MutexLock lock(mu);
      if (err && !error) error = err;
      if (--in_flight == 0) done_cv.notify_all();
      if (!claim(gen, &i)) return;
    }
  }

  void worker() ZZ_EXCLUDES(mu) {
    std::uint32_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* f;
      std::uint32_t gen;
      {
        MutexLock lock(mu);
        // Explicit wait loop (not the predicate overload): the predicate
        // lambda would be a separate function the thread-safety analysis
        // cannot see holding mu. wait() re-acquires before returning, so
        // the guarded reads below stay under the capability.
        while (!stop && generation == seen) work_cv.wait(lock.native());
        if (stop) return;
        seen = generation;
        gen = generation;
        f = fn;
      }
      if (f) run_tasks(*f, gen);
    }
  }
};

namespace {

/// parallel_for_sharded's schedule: one contiguous [lo, hi) block per
/// worker, drained front to back by its owner. A worker whose block is
/// empty takes the back half of the largest remaining block (or its last
/// index) into its own, so the victim keeps its cache-warm front. One
/// mutex guards every block; a claim is one short critical section, next
/// to tasks that each decode a whole episode.
class Blocks {
 public:
  Blocks(std::size_t n, std::size_t q) {
    range_.reserve(q);
    for (std::size_t k = 0; k < q; ++k)
      range_.emplace_back(k * n / q, (k + 1) * n / q);
  }

  /// Claims worker k's next index; false once every block is drained.
  bool claim(std::size_t k, std::size_t* i) ZZ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto& own = range_[k];
    if (own.first == own.second) {
      std::size_t victim = k, best = 0;
      for (std::size_t v = 0; v < range_.size(); ++v) {
        const std::size_t rem = range_[v].second - range_[v].first;
        if (rem > best) {
          best = rem;
          victim = v;
        }
      }
      if (best == 0) return false;
      auto& loot = range_[victim];
      const std::size_t mid =
          best == 1 ? loot.first : loot.first + (best + 1) / 2;
      own = {mid, loot.second};
      loot.second = mid;
    }
    *i = own.first++;
    return true;
  }

 private:
  Mutex mu_;
  std::vector<std::pair<std::size_t, std::size_t>> range_ ZZ_GUARDED_BY(mu_);
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  if (threads == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = hc ? hc : 1;
  }
  size_ = threads;
  for (std::size_t t = 0; t + 1 < threads; ++t)
    impl_->workers.emplace_back([this] { impl_->worker(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (impl_->workers.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::uint32_t gen;
  {
    MutexLock lock(impl_->mu);
    impl_->fn = &fn;
    impl_->batch_n = n;
    impl_->next = 0;
    impl_->in_flight = n;
    impl_->error = nullptr;
    gen = ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  impl_->run_tasks(fn, gen);  // the caller helps drain the batch
  {
    MutexLock lock(impl_->mu);
    while (impl_->in_flight != 0) impl_->done_cv.wait(lock.native());
    impl_->fn = nullptr;
    if (impl_->error) std::rethrow_exception(impl_->error);
  }
}

void ThreadPool::parallel_for_sharded(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (impl_->workers.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }

  const std::size_t q = std::min(size_, n);
  Blocks blocks(n, q);
  parallel_for(q, [&](std::size_t k) {
    std::size_t i = 0;
    while (blocks.claim(k, &i)) fn(i, k);
  });
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace zz
