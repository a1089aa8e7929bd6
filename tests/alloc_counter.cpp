#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

std::uint64_t alloc_counter::calls() {
  return g_new_calls.load(std::memory_order_relaxed);
}

// Defined out of line in their own translation unit, so no test inlines a
// malloc-backed new into a free-backed delete (GCC's
// -Wmismatched-new-delete flags exactly that pairing).
void* operator new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
