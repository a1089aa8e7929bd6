// Slab pool of net::Packet objects — the allocator the hot paths use
// instead of the heap (docs/PERFORMANCE.md has the lifecycle diagram).
//
// Kernel-bypass stacks (DPDK mempools, and the openNetVM/NFOS designs this
// mirrors) pre-allocate every packet buffer at startup and move fixed-size
// slabs between free list and pipeline for the life of the process. This
// pool does the same for both engines in this repo:
//
//  - the rt engine (rt/engine.hpp) acquires a slab per generated packet and
//    recycles it at copy-to-user (the consumer) or at any drop point, so
//    steady-state processing performs ZERO heap allocations — enforced by
//    the allocation-counting guard in tests/test_pool.cpp;
//  - the DES workload senders (workload/sender.hpp) rebuild TCP segments /
//    UDP datagrams into recycled slabs, closing the sender → stack →
//    copy-to-user → sender loop without touching the allocator.
//
// Ownership is RAII: acquire() returns an ordinary net::PacketPtr whose
// deleter points back at this pool, so a pooled packet recycles itself no
// matter where it dies. Misuse fails loudly: releasing a slab twice aborts
// (in every build type), and a leaked slab is a visible leak under ASan at
// pool destruction via in_use().
//
// Thread safety: acquire() and recycle() are lock-free (a tagged Treiber
// stack over pre-allocated nodes — no ABA, nothing is ever freed) and may
// be called from any thread concurrently; the rt engine releases from its
// consumer and worker threads while the generator acquires.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace mflow::rt {

struct PoolConfig {
  /// Number of packet slabs pre-allocated at construction.
  std::size_t slabs = 4096;
  /// Backing bytes reserved per slab buffer (headroom included). 256 covers
  /// the deepest header stack in the repo (64B headroom + inner Eth/IPv4/
  /// TCP + 50B VXLAN outer) with slack; an append beyond this still works
  /// but reallocates, breaking the zero-allocation invariant.
  std::size_t buffer_bytes = 256;
  /// Headroom restored on every recycle (matches PacketBuffer's default).
  std::size_t headroom = 64;
};

class PacketPool final : public net::PacketRecycler {
 public:
  explicit PacketPool(PoolConfig cfg = {});
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Pop a slab from the free list, reset to pristine state. Returns null
  /// when the pool is exhausted — callers backpressure (rt engine) or fall
  /// back to the heap (DES senders); the pool NEVER allocates on demand.
  net::PacketPtr acquire();

  /// Return a slab (called by PacketDeleter when a pooled PacketPtr dies).
  /// Releasing a slab that is already free, or a packet this pool does not
  /// own, aborts — ownership bugs must not silently corrupt the free list.
  void recycle(net::Packet* pkt) noexcept override;

  const PoolConfig& config() const { return cfg_; }
  std::size_t capacity() const { return slots_.size(); }
  /// Slabs currently handed out (acquired - recycled). Exact only when no
  /// other thread is mid-acquire/recycle.
  std::size_t in_use() const;

  // Monotonic counters (relaxed; for stats surfaces and benches).
  std::uint64_t acquired() const {
    return acquired_.load(std::memory_order_relaxed);
  }
  std::uint64_t recycled() const {
    return recycled_.load(std::memory_order_relaxed);
  }
  /// acquire() calls that found the free list empty.
  std::uint64_t exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

 private:
  // Free list: Treiber stack of slot indices. `head_` packs a 32-bit slot
  // index with a 32-bit version tag so a concurrent pop/push/pop of the
  // same slot cannot ABA the list.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static std::uint64_t pack(std::uint32_t index, std::uint32_t tag) {
    return (static_cast<std::uint64_t>(tag) << 32) | index;
  }
  static std::uint32_t index_of(std::uint64_t packed) {
    return static_cast<std::uint32_t>(packed);
  }
  static std::uint32_t tag_of(std::uint64_t packed) {
    return static_cast<std::uint32_t>(packed >> 32);
  }

  struct Slot {
    // Empty until the constructor gives it its buffer: a zero-headroom
    // buffer allocates nothing.
    net::Packet pkt{.buf = net::PacketBuffer(0)};
    std::atomic<std::uint32_t> next{kNil};  // free-list link (slot index)
    std::atomic<bool> live{false};          // handed out right now?
  };

  PoolConfig cfg_;
  std::vector<Slot> slots_;
  alignas(64) std::atomic<std::uint64_t> head_;
  alignas(64) std::atomic<std::uint64_t> acquired_{0};
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::uint64_t> exhausted_{0};
};

}  // namespace mflow::rt
