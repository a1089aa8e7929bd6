#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_new_calls{0};

// Over-aligned types (alignof > __STDCPP_DEFAULT_NEW_ALIGNMENT__, such as
// the 64-byte-aligned net::Packet) allocate through the align_val_t
// overloads; they count the same as plain new.
void* aligned_new(std::size_t n, std::align_val_t al) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((n ? n : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
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

void* operator new(std::size_t n, std::align_val_t al) {
  return aligned_new(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return aligned_new(n, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
