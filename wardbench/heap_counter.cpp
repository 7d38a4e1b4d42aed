// Counting global operator new/delete for heap_bytes_per_user.
//
// Live bytes are the allocator's usable size of every block still held,
// so a delete subtracts exactly what its new added. The peak is a
// relaxed high-water mark; the benchmark resets it at the start of the
// steady part and reads it at the end.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "ward.hpp"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) noexcept {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace wardbench {

std::int64_t heap_live_bytes() noexcept {
  return g_live.load(std::memory_order_relaxed);
}
std::int64_t heap_peak_bytes() noexcept {
  return g_peak.load(std::memory_order_relaxed);
}
void heap_reset_peak() noexcept {
  g_peak.store(g_live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

}  // namespace wardbench
