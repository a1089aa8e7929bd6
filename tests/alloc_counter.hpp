// Counting global allocator for the suites that guard allocation-free hot
// paths. Linking alloc_counter.cpp into a test binary replaces the global
// operator new/delete for the whole binary: every operator-new flavor
// funnels through one counter, so a test can diff alloc_counter::calls()
// across a steady-state window. Frees are deliberately not counted — the
// invariant is "no allocations", and frees of earlier memory are harmless.
#pragma once

#include <cstdint>

namespace alloc_counter {

/// Global operator-new calls so far, from any thread.
std::uint64_t calls();

}  // namespace alloc_counter
