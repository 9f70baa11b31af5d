// Unit tests for zz::common — RNG, CRC-32, math helpers, statistics, the
// worker pool's work-stealing episode queue and the allocation-counting
// hook the AP-farm soak gates are built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "zz/common/alloc_hook.h"
#include "zz/common/crc32.h"
#include "zz/common/mathutil.h"
#include "zz/common/rng.h"
#include "zz/common/stats.h"
#include "zz/common/table.h"
#include "zz/common/thread_pool.h"

namespace zz {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianComplexVariance) {
  Rng r(11);
  const double target = 2.5;
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += std::norm(r.gaussian_c(target));
  EXPECT_NEAR(acc / n, target, 0.1);
}

TEST(Rng, UnitPhasorMagnitude) {
  Rng r(3);
  for (int i = 0; i < 50; ++i) EXPECT_NEAR(std::abs(r.unit_phasor()), 1.0, 1e-12);
}

TEST(Rng, BitsAreBalanced) {
  Rng r(5);
  const Bits b = r.bits(10000);
  double ones = 0;
  for (auto v : b) ones += v;
  EXPECT_NEAR(ones / 10000.0, 0.5, 0.03);
}

TEST(Rng, ForkIndependence) {
  Rng parent(9);
  Rng child = parent.fork();
  // Child stream should not mirror parent stream.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (parent.uniform() == child.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Crc32, KnownVector) {
  // Standard check value for "123456789".
  const Bytes data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyBuffer) { EXPECT_EQ(crc32({}), 0x00000000u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng r(13);
  const Bytes data = r.bytes(257);
  Crc32 inc;
  for (auto b : data) inc.update(b);
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Rng r(17);
  Bytes data = r.bytes(64);
  const auto before = crc32(data);
  data[20] ^= 0x10;
  EXPECT_NE(before, crc32(data));
}

TEST(MathUtil, DbRoundtrip) {
  EXPECT_NEAR(db_to_lin(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_lin(3.0), 1.9953, 1e-3);
  EXPECT_NEAR(lin_to_db(db_to_lin(7.3)), 7.3, 1e-10);
}

TEST(MathUtil, Sinc) {
  EXPECT_DOUBLE_EQ(sinc(0.0), 1.0);
  EXPECT_NEAR(sinc(1.0), 0.0, 1e-12);
  EXPECT_NEAR(sinc(2.0), 0.0, 1e-12);
  EXPECT_NEAR(sinc(0.5), 2.0 / kPi, 1e-12);
}

TEST(MathUtil, WrapPhase) {
  EXPECT_NEAR(wrap_phase(3.0 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_phase(-3.0 * kPi), kPi, 1e-9);
  EXPECT_NEAR(wrap_phase(0.3), 0.3, 1e-12);
}

TEST(MathUtil, HammingAndBer) {
  const Bits a{0, 1, 1, 0, 1};
  const Bits b{0, 1, 0, 0, 1};
  EXPECT_EQ(hamming_distance(a, b), 1u);
  EXPECT_NEAR(bit_error_rate(a, b), 0.2, 1e-12);
  // Length mismatch counts the tail as errors.
  const Bits c{0, 1, 1, 0, 1, 1, 1};
  EXPECT_EQ(hamming_distance(a, c), 2u);
}

TEST(MathUtil, MeanPowerAndEnergy) {
  const CVec x{{3.0, 4.0}, {0.0, 0.0}};
  EXPECT_NEAR(energy(x), 25.0, 1e-12);
  EXPECT_NEAR(mean_power(x), 12.5, 1e-12);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Cdf, PercentilesAndFractions) {
  Cdf c;
  for (int i = 1; i <= 100; ++i) c.add(i);
  EXPECT_NEAR(c.percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(c.percentile(1.0), 100.0, 1e-12);
  EXPECT_NEAR(c.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(c.fraction_below(50.0), 0.5, 1e-12);
  EXPECT_NEAR(c.mean(), 50.5, 1e-12);
}

TEST(Cdf, CurveIsMonotone) {
  Rng r(23);
  Cdf c;
  for (int i = 0; i < 500; ++i) c.add(r.gaussian());
  const auto pts = c.curve(11);
  ASSERT_EQ(pts.size(), 11u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].first, pts[i - 1].first);
    EXPECT_GE(pts[i].second, pts[i - 1].second);
  }
}

TEST(Table, Formatting) {
  EXPECT_EQ(Table::pct(0.823, 1), "82.3%");
  EXPECT_EQ(Table::num(1.5, 3), "1.5");
  Table t({"a", "b"});
  t.add_row({"1"});  // short row padded
  t.print("smoke");  // must not crash
}

// ------------------------------------------- work-stealing episode queue

TEST(ThreadPoolSharded, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 500;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for_sharded(kN, [&](std::size_t i, std::size_t) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1)
          << "index " << i << " at " << threads << " threads";
  }
}

TEST(ThreadPoolSharded, WorkerIdsNameExclusiveState) {
  // Per-worker state keyed by the queue id must never be entered by two
  // threads at once — the contract the farm's per-worker arenas rely
  // on. Unsynchronized per-worker counters surface any violation as
  // a lost update (and as a TSan report on the sanitizer legs).
  ThreadPool pool(4);
  constexpr std::size_t kN = 2000;
  std::vector<std::size_t> per_worker(pool.size(), 0);
  pool.parallel_for_sharded(kN, [&](std::size_t, std::size_t w) {
    ASSERT_LT(w, pool.size());
    ++per_worker[w];
  });
  std::size_t total = 0;
  for (const std::size_t c : per_worker) total += c;
  EXPECT_EQ(total, kN);
}

TEST(ThreadPoolSharded, StealsAcrossSkewedBlocks) {
  // Front-loaded costs: the first block's indices are slow, the rest
  // instant. With stealing, fast workers must end up executing some of
  // the slow block's indices (the back half of its range).
  ThreadPool pool(4);
  if (pool.size() < 2) GTEST_SKIP() << "needs a real pool";
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_sharded(kN, [&](std::size_t i, std::size_t w) {
    if (i < kN / 4 && w == 0)  // only the owner is slow on its own block
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1);
}

TEST(ThreadPoolSharded, DegenerateSizes) {
  ThreadPool pool(3);
  std::size_t ran = 0;
  pool.parallel_for_sharded(0, [&](std::size_t, std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0u);
  std::atomic<std::size_t> ran1{0};
  pool.parallel_for_sharded(1, [&](std::size_t i, std::size_t w) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(w, 0u);
    ran1.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran1.load(std::memory_order_relaxed), 1u);
  // Fewer indices than workers: queue ids stay within [0, n).
  std::atomic<std::size_t> ran2{0};
  pool.parallel_for_sharded(2, [&](std::size_t, std::size_t w) {
    EXPECT_LT(w, 2u);
    ran2.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran2.load(std::memory_order_relaxed), 2u);
}

TEST(ThreadPoolSharded, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_sharded(
          8,
          [&](std::size_t i, std::size_t) {
            if (i == 3) throw std::runtime_error("boom");
          }),
      std::runtime_error);
}

TEST(ThreadPool, BackToBackBatchesRunEveryIndexOnce) {
  // Batches of varying size, each queued the moment the previous drains:
  // a worker still leaving batch b must never claim an index of batch
  // b + 1 (it would run b's task on it, leaving b + 1's index unrun). The
  // per-index counts are plain ints, so a double claim is also a data
  // race on the TSan leg.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    for (std::size_t b = 0; b < 1000; ++b) {
      const std::size_t n = 2 + (b * 7) % 37;
      std::vector<int> hits(n, 0);
      pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "batch " << b << " index " << i << " at "
                              << threads << " threads";
    }
  }
}

// ------------------------------------------------ allocation-count hook

// Opaque escape barrier: GCC at -O2 may elide a paired new/delete outright
// (allocation elision treats operator new as a removable builtin — which is
// fine for the soak gate, an elided allocation is not allocator churn), but
// these tests need the call to actually reach the hook.
template <typename T>
void keep_alloc(T const& p) {
  asm volatile("" : : "g"(p) : "memory");
}

TEST(AllocHook, TallyCountsScopedAllocations) {
  std::uint64_t in_scope, in_scope_bytes, empty_scope;
  {
    AllocTally tally;
    auto* v = new std::vector<double>(4096);
    keep_alloc(v);
    delete v;
    in_scope = tally.allocs();
    in_scope_bytes = tally.alloc_bytes();
  }
  {
    AllocTally tally;
    empty_scope = tally.allocs();
  }
  EXPECT_GE(in_scope, 1u);  // at least the 32 KiB buffer
  EXPECT_GE(in_scope_bytes, 4096u * sizeof(double));
  EXPECT_EQ(empty_scope, 0u);
}

TEST(AllocHook, CountersAreThreadLocal) {
  const AllocCounts before = thread_alloc_counts();
  std::uint64_t other_thread = 0;
  std::thread t([&] {
    AllocTally tally;
    auto* p = new int[256];
    keep_alloc(p);
    delete[] p;
    other_thread = tally.allocs();
  });
  t.join();
  // The worker's allocations land on its own counter, not ours. (join()
  // and thread teardown may allocate on this thread; only assert the
  // worker saw its own traffic.)
  EXPECT_GE(other_thread, 1u);
  EXPECT_GE(thread_alloc_counts().allocs, before.allocs);
}

TEST(AllocHook, LiveBytesTrackNetHeap) {
  const std::int64_t before = live_heap_bytes();
  constexpr std::size_t kBytes = 1 << 20;
  auto* p = new char[kBytes];
  keep_alloc(p);
  const std::int64_t during = live_heap_bytes();
  const std::int64_t peak = peak_heap_bytes();
  delete[] p;
  const std::int64_t after = live_heap_bytes();
  // A smaller allocation must not lower the peak gauge.
  auto* q = new char[64];
  keep_alloc(q);
  const std::int64_t peak_after = peak_heap_bytes();
  delete[] q;
  EXPECT_GE(during - before, static_cast<std::int64_t>(kBytes));
  EXPECT_GE(peak, during);
  EXPECT_LT(after, during);
  EXPECT_GE(peak_after, peak);
}

TEST(FetchMax, RaisesAndReturnsPrior) {
  // Single-threaded, so nothing else moves the gauges between reads. An
  // allocation that lifts live bytes past the peak raises the peak to
  // exactly that value; the peak read before it is the prior maximum it
  // replaced. A later, smaller value leaves the peak unchanged.
  const std::int64_t prior = peak_heap_bytes();
  const std::size_t block =
      static_cast<std::size_t>(prior - live_heap_bytes()) + 4096;
  auto* p = new char[block];
  keep_alloc(p);
  const std::int64_t live = live_heap_bytes();
  const std::int64_t raised = peak_heap_bytes();
  delete[] p;
  EXPECT_GT(live, prior);
  EXPECT_EQ(raised, live);
  auto* q = new char[64];
  keep_alloc(q);
  EXPECT_LT(live_heap_bytes(), raised);
  EXPECT_EQ(peak_heap_bytes(), raised);  // no lowering
  delete[] q;
}

TEST(FetchMax, NeverLosesAConcurrentMaximum) {
  // The peak gauge is a CAS-loop maximum over the live-bytes counter.
  // Every value the counter reaches by an allocation is offered to it, so
  // no live_heap_bytes() read can exceed the final peak — unless a
  // concurrent raise was lost. Each block alone lifts live bytes past the
  // peak so far, so the threads race to set new maxima.
  const std::size_t block =
      static_cast<std::size_t>(peak_heap_bytes() - live_heap_bytes()) + 4096;
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::vector<std::int64_t> seen(kThreads, 0);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&seen, block, t] {
      for (int r = 0; r < kRounds; ++r) {
        auto* p = new char[block + 64 * static_cast<std::size_t>(r % 16)];
        keep_alloc(p);
        seen[t] = std::max(seen[t], live_heap_bytes());
        delete[] p;
      }
    });
  for (auto& th : ts) th.join();
  const std::int64_t peak = peak_heap_bytes();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_LE(seen[t], peak) << "thread " << t;
}

TEST(AllocHook, CountsEveryReplacementOperatorVariant) {
  // Direct operator calls (never elidable — elision is a new-expression
  // privilege) through every replacement the hook installs: plain, array,
  // nothrow, over-aligned, and their delete counterparts. Each variant
  // must tick the same thread-local counter.
  AllocTally tally;
  constexpr std::align_val_t kAlign{64};

  void* a = ::operator new(32);
  keep_alloc(a);
  ::operator delete(a, std::size_t{32});
  void* b = ::operator new[](32);
  keep_alloc(b);
  ::operator delete[](b, std::size_t{32});

  void* c = ::operator new(32, std::nothrow);
  keep_alloc(c);
  ASSERT_NE(c, nullptr);
  ::operator delete(c, std::nothrow);
  void* d = ::operator new[](32, std::nothrow);
  keep_alloc(d);
  ASSERT_NE(d, nullptr);
  ::operator delete[](d, std::nothrow);

  void* e = ::operator new(32, kAlign);
  keep_alloc(e);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(e) % 64, 0u);
  ::operator delete(e, std::size_t{32}, kAlign);
  void* f = ::operator new[](32, kAlign);
  keep_alloc(f);
  ::operator delete[](f, kAlign);

  void* g = ::operator new(32, kAlign, std::nothrow);
  keep_alloc(g);
  ASSERT_NE(g, nullptr);
  ::operator delete(g, kAlign, std::nothrow);
  void* h = ::operator new[](32, kAlign, std::nothrow);
  keep_alloc(h);
  ASSERT_NE(h, nullptr);
  ::operator delete[](h, kAlign, std::nothrow);

  // Zero-size requests are legal and must return distinct pointers.
  void* z = ::operator new(0);
  keep_alloc(z);
  ASSERT_NE(z, nullptr);
  ::operator delete(z);
  // Deleting nullptr is a no-op, not a count.
  ::operator delete(static_cast<void*>(nullptr));
  ::operator delete[](static_cast<void*>(nullptr));

  EXPECT_EQ(tally.allocs(), 9u);
  EXPECT_GE(tally.frees(), 9u);
}

// Sanitizer allocators treat absurd requests as a hard error (and abort
// with halt_on_error) before the hook's failure path can run — exercise
// the bad_alloc/nothrow-null routes only in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ZZ_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ZZ_TEST_UNDER_SANITIZER 1
#endif
#endif
#ifndef ZZ_TEST_UNDER_SANITIZER
TEST(AllocHook, FailedAllocationsThrowOrReturnNull) {
  // Far beyond any address space, but not so large the aligned padding
  // arithmetic overflows.
  constexpr std::size_t kHuge = std::size_t{1} << 60;
  constexpr std::align_val_t kAlign{64};
  EXPECT_THROW(static_cast<void>(::operator new(kHuge)), std::bad_alloc);
  EXPECT_THROW(static_cast<void>(::operator new(kHuge, kAlign)),
               std::bad_alloc);
  EXPECT_EQ(::operator new(kHuge, std::nothrow), nullptr);
  EXPECT_EQ(::operator new[](kHuge, std::nothrow), nullptr);
  EXPECT_EQ(::operator new(kHuge, kAlign, std::nothrow), nullptr);
  EXPECT_EQ(::operator new[](kHuge, kAlign, std::nothrow), nullptr);
}
#endif

}  // namespace
}  // namespace zz
