#include "hooks.h"

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_tracking{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void note_alloc(void* p) {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (p == nullptr || !g_tracking.load(std::memory_order_relaxed)) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0)
    throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) noexcept {
  note_free(p);
  std::free(p);
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

void set_alloc_tracking(bool on) {
  g_tracking.store(on, std::memory_order_relaxed);
}
std::uint64_t alloc_count() { return g_allocs.load(); }
std::int64_t heap_live_bytes() { return g_live.load(); }
std::int64_t heap_peak_bytes() { return g_peak.load(); }
void reset_heap_peak() { g_peak.store(g_live.load()); }

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

Usage sample_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall_s = now_s();
  u.user_s = seconds(ru.ru_utime);
  u.sys_s = seconds(ru.ru_stime);
  u.vol_ctx_switches = ru.ru_nvcsw;
  return u;
}

Usage operator-(const Usage& later, const Usage& earlier) {
  Usage d;
  d.wall_s = later.wall_s - earlier.wall_s;
  d.user_s = later.user_s - earlier.user_s;
  d.sys_s = later.sys_s - earlier.sys_s;
  d.vol_ctx_switches = later.vol_ctx_switches - earlier.vol_ctx_switches;
  return d;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench

// Global replacements: every C++ allocation in the process (simulator
// libraries included) passes through the counters above.
void* operator new(std::size_t n) { return perfbench::allocate(n); }
void* operator new[](std::size_t n) { return perfbench::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::allocate_aligned(n, a);
}
void operator delete(void* p) noexcept { perfbench::release(p); }
void operator delete[](void* p) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::release(p);
}
