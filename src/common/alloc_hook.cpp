// Global operator new/delete replacement backing zz/common/alloc_hook.h.
//
// Linked (and therefore active) only in binaries that reference the hook's
// accessors — the static-library member rule: the linker pulls this TU in
// to resolve thread_alloc_counts(), and the replacement operators come
// with it, overriding the toolchain's. All variants forward to
// malloc/free, so sanitizer allocators keep interposing underneath.
#include "zz/common/alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_usable_size
#endif

namespace zz {
namespace {

// Plain PODs: zero-initialized before any allocation can happen on the
// thread, no destructor ordering hazards at thread exit.
thread_local AllocCounts tls_counts;

// constinit: the compiler guarantees constant initialization, so
// allocations from other TUs' dynamic initializers are counted correctly —
// no init-order hazard.
constinit std::atomic<std::int64_t> g_live{0};
constinit std::atomic<std::int64_t> g_peak{0};

std::size_t usable(void* p, std::size_t requested) {
#if defined(__GLIBC__)
  (void)requested;
  return malloc_usable_size(p);
#else
  (void)p;
  return requested;
#endif
}

void note_alloc(void* p, std::size_t requested) {
  const std::size_t n = usable(p, requested);
  ++tls_counts.allocs;
  tls_counts.alloc_bytes += n;
  const std::int64_t live =
      g_live.fetch_add(static_cast<std::int64_t>(n),
                       std::memory_order_relaxed) +
      static_cast<std::int64_t>(n);
  // Lock-free maximum. Relaxed is enough for a gauge: the CAS loop never
  // loses a larger concurrent maximum (FetchMax.NeverLosesAConcurrentMaximum).
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (peak < live &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (!p) return;
  ++tls_counts.frees;
  g_live.fetch_sub(static_cast<std::int64_t>(usable(p, 0)),
                   std::memory_order_relaxed);
}

void* checked_alloc(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  note_alloc(p, size);
  return p;
}

void* checked_alloc_aligned(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded);
  if (!p) throw std::bad_alloc();
  note_alloc(p, padded);
  return p;
}

}  // namespace

AllocCounts thread_alloc_counts() { return tls_counts; }

std::int64_t live_heap_bytes() { return g_live.load(std::memory_order_relaxed); }
std::int64_t peak_heap_bytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace zz

// ------------------------------------------------ replacement operators

void* operator new(std::size_t size) { return zz::checked_alloc(size); }
void* operator new[](std::size_t size) { return zz::checked_alloc(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return zz::checked_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return zz::checked_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align) {
  return zz::checked_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return zz::checked_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return zz::checked_alloc_aligned(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return zz::checked_alloc_aligned(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  zz::note_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  zz::note_free(p);
  std::free(p);
}
