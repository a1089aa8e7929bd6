#include "rt/pool.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>
#include <type_traits>

namespace mflow::rt {

// Slabs are never destroyed one by one: the arena's release is their end.
static_assert(std::is_trivially_destructible_v<net::Packet>);

PacketPool::PacketPool(PoolConfig cfg)
    : cfg_(cfg),
      arena_(new std::byte[cfg.slabs * sizeof(net::Packet) + kAlign - 1]),
      next_(cfg.slabs),
      live_(cfg.slabs, 0) {
  // Three allocations, whatever the slab count: the arena and the two side
  // arrays. This is the only place pooled packets ever touch the allocator.
  // A plain byte array (not aligned new, not mmap) keeps peak RSS and setup
  // time lowest (docs/PERFORMANCE.md, "Line-aligned slabs").
  const auto base = reinterpret_cast<std::uintptr_t>(arena_.get());
  slabs_ = reinterpret_cast<net::Packet*>((base + kAlign - 1) & ~(kAlign - 1));
  for (std::size_t i = 0; i < cfg.slabs; ++i) {
    // Default-initialized: the inline header bytes stay untouched.
    new (slabs_ + i) net::Packet;
    next_[i] = i + 1 < cfg.slabs ? static_cast<std::uint32_t>(i + 1) : kNil;
  }
  if (cfg.slabs != 0) head_ = 0;
}

PacketPool::~PacketPool() {
  // Slabs still live here mean some PacketPtr outlived the pool; its later
  // destruction would recycle into freed memory. Fail fast instead.
  if (in_use() != 0) {
    std::fprintf(stderr,
                 "PacketPool: destroyed with %zu slab(s) still in use\n",
                 in_use());
    std::abort();
  }
}

void PacketPool::check_owner(const char* op) const noexcept {
  if (std::this_thread::get_id() != owner_) {
    std::fprintf(stderr,
                 "PacketPool: %s from a thread that does not own the pool\n",
                 op);
    std::abort();
  }
}

net::PacketPtr PacketPool::acquire() {
  check_owner("acquire");
  if (head_ == kNil) {
    ++exhausted_;
    return nullptr;
  }
  const std::uint32_t idx = head_;
  head_ = next_[idx];
  live_[idx] = 1;
  ++acquired_;
  net::Packet& pkt = slabs_[idx];
  pkt.reset();
  return net::PacketPtr(&pkt, net::PacketDeleter{this});
}

void PacketPool::recycle(net::Packet* pkt) noexcept {
  check_owner("recycle");
  // Recover the slab index from the packet's address; the slabs sit in one
  // contiguous arena, so anything that doesn't land exactly on a slab is
  // foreign.
  const auto addr = reinterpret_cast<std::uintptr_t>(pkt);
  const auto base = reinterpret_cast<std::uintptr_t>(slabs_);
  const std::size_t idx = (addr - base) / sizeof(net::Packet);
  if (addr < base || idx >= cfg_.slabs || slabs_ + idx != pkt) {
    std::fprintf(stderr, "PacketPool: recycle of foreign packet %p\n",
                 static_cast<const void*>(pkt));
    std::abort();
  }
  if (live_[idx] == 0) {
    std::fprintf(stderr, "PacketPool: double release of slab %zu\n", idx);
    std::abort();
  }
  live_[idx] = 0;
  next_[idx] = head_;
  head_ = static_cast<std::uint32_t>(idx);
  ++recycled_;
}

}  // namespace mflow::rt
