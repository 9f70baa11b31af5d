// Worker pool for the embarrassingly-parallel experiment sweeps.
//
// The testbed benches decode thousands of independent collision pairs; each
// pair is seeded from its own deterministic RNG shard (shard_seed), so the
// results are bit-identical no matter how many workers run or in which
// order tasks complete. Decoders, detectors and arenas are NOT shared
// across tasks — each task builds its own (they are cheap; the scratch
// buffers inside them amortize within a task).
//
// Scheduling is plain mutex work: every claim of a task index takes a
// lock. A task here is a whole decode or episode (milliseconds), so a
// short critical section per task costs nothing measurable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace zz {

/// Independent 64-bit seed for task `index` of a run seeded with `base`
/// (SplitMix64 over the pair) — the RNG sharding used by every parallel
/// sweep so a task's stream never depends on scheduling.
std::uint64_t shard_seed(std::uint64_t base, std::uint64_t index);

class ThreadPool {
 public:
  /// 0 = one worker per hardware thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// Run fn(i) for every i in [0, n), distributed over the workers; blocks
  /// until all complete. Workers claim the next index under the pool
  /// mutex, tagged with the batch generation, so a worker still leaving a
  /// drained batch never claims an index of the next one. The calling
  /// thread participates, so a pool of size 1 (or n == 1) degenerates to a
  /// plain loop. The first exception thrown by any task is rethrown here
  /// after the batch drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Work-stealing variant for heterogeneous task costs (the AP-farm
  /// episode queue): the index space is pre-partitioned into one
  /// contiguous block per worker; each worker drains its own block
  /// front-to-back and, when out of work, steals the back half of the
  /// largest remaining block (or the lone remaining index). All blocks sit
  /// under one mutex. fn(i, worker) runs every i in [0, n) exactly once;
  /// `worker` is a stable queue id in [0, min(size(), n)) that is never
  /// inside fn on two threads at once, so callers key per-worker state
  /// (e.g. scratch arenas) by it.
  /// Scheduling — and therefore which worker id an index lands on — is
  /// nondeterministic; bit-identical results at any pool size remain the
  /// caller's contract (per-index RNG shards, worker state that cannot
  /// change results). Blocks until all indices complete; the first
  /// exception is rethrown after the batch drains.
  void parallel_for_sharded(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool, created on first use.
  static ThreadPool& shared();

 private:
  struct Impl;
  Impl* impl_;
  std::size_t size_;
};

}  // namespace zz
