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

#include <cstdint>
#include <thread>
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

  struct Slot {
    // Empty until the constructor gives it its buffer: a zero-headroom
    // buffer allocates nothing.
    net::Packet pkt{.buf = net::PacketBuffer(0)};
    std::uint32_t next = kNil;  // free-list link (slot index)
    bool live = false;          // handed out right now?
  };

  /// Abort unless the calling thread constructed the pool.
  void check_owner(const char* op) const noexcept;

  PoolConfig cfg_;
  std::vector<Slot> slots_;
  std::thread::id owner_ = std::this_thread::get_id();
  std::uint32_t head_ = kNil;  // top of the free list
  std::uint64_t acquired_ = 0;
  std::uint64_t recycled_ = 0;
  std::uint64_t exhausted_ = 0;
};

}  // namespace mflow::rt
