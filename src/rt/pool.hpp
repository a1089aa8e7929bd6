// Slab pool of net::Packet objects — the allocator the hot paths use
// instead of the heap (docs/PERFORMANCE.md has the lifecycle diagram).
//
// Kernel-bypass stacks (DPDK mempools, and the openNetVM/NFOS designs this
// mirrors) pre-allocate every packet buffer at startup and move fixed-size
// slabs between free list and pipeline for the life of the process. This
// pool does the same for both engines in this repo:
//
//  - the rt engine (rt/engine.hpp) acquires a slab per generated packet and
//    sends it home to the generator over an SPSC return ring at
//    copy-to-user (the consumer) or at any drop point, so steady-state
//    processing performs ZERO heap allocations — enforced by the
//    allocation-counting guard in tests/test_pool.cpp;
//  - the DES workload senders (workload/sender.hpp) rebuild TCP segments /
//    UDP datagrams into recycled slabs, closing the sender → stack →
//    copy-to-user → sender loop without touching the allocator.
//
// Ownership is RAII: acquire() returns an ordinary net::PacketPtr whose
// deleter points back at this pool, so a pooled packet recycles itself no
// matter where it dies. Misuse fails loudly in every build type: releasing
// a slab twice, releasing a packet the pool does not own, destroying the
// pool with slabs still out, and calling acquire() or recycle() from any
// thread but the owner each abort.
//
// Thread model: single owner. The pool belongs to the thread that
// constructed it (the generator in the rt engine, the run_scenario caller
// in the DES); its free list is a plain LIFO stack of slot indices with no
// atomics. Other threads hand slabs back to the owner, never to the pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/packet.hpp"

namespace mflow::rt {

struct PoolConfig {
  /// Number of packet slabs pre-allocated at construction. Each is one
  /// 256-byte net::Packet with its header bytes inline.
  std::size_t slabs = 4096;
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
  std::size_t capacity() const { return cfg_.slabs; }
  /// Slabs currently handed out (acquired - recycled).
  std::size_t in_use() const {
    return static_cast<std::size_t>(acquired_ - recycled_);
  }

  // Monotonic counters, for stats surfaces and benches.
  std::uint64_t acquired() const { return acquired_; }
  std::uint64_t recycled() const { return recycled_; }
  /// acquire() calls that found the free list empty.
  std::uint64_t exhausted() const { return exhausted_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kAlign = alignof(net::Packet);

  /// Abort unless the calling thread constructed the pool.
  void check_owner(const char* op) const noexcept;

  PoolConfig cfg_;
  // Every slab, back to back at a 256-byte stride in one line-aligned
  // arena: one plain byte allocation, aligned by hand, its header bytes
  // left uninitialized. The free-list links and live flags sit in side
  // arrays, so no pool bookkeeping shares a line with a slab.
  std::unique_ptr<std::byte[]> arena_;
  net::Packet* slabs_ = nullptr;
  std::vector<std::uint32_t> next_;  // free-list link (slab index)
  std::vector<std::uint8_t> live_;   // handed out right now?
  std::thread::id owner_ = std::this_thread::get_id();
  std::uint32_t head_ = kNil;  // top of the free list
  std::uint64_t acquired_ = 0;
  std::uint64_t recycled_ = 0;
  std::uint64_t exhausted_ = 0;
};

}  // namespace mflow::rt
