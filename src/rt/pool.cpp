#include "rt/pool.hpp"

#include <cstdio>
#include <cstdlib>

namespace mflow::rt {

PacketPool::PacketPool(PoolConfig cfg) : cfg_(cfg), slots_(cfg.slabs) {
  // Build every slab's backing buffer once, up front, at its full capacity:
  // one allocation per slab. This is the only place pooled packets ever
  // touch the allocator.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].pkt.buf = net::PacketBuffer(cfg_.headroom, cfg_.buffer_bytes);
    slots_[i].next.store(
        i + 1 < slots_.size() ? static_cast<std::uint32_t>(i + 1) : kNil,
        std::memory_order_relaxed);
  }
  head_.store(pack(slots_.empty() ? kNil : 0, 0), std::memory_order_relaxed);
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

net::PacketPtr PacketPool::acquire() {
  std::uint64_t head = head_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t idx = index_of(head);
    if (idx == kNil) {
      exhausted_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    Slot& slot = slots_[idx];
    const std::uint32_t next = slot.next.load(std::memory_order_relaxed);
    if (head_.compare_exchange_weak(head, pack(next, tag_of(head) + 1),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      slot.live.store(true, std::memory_order_relaxed);
      acquired_.fetch_add(1, std::memory_order_relaxed);
      slot.pkt.reset();
      return net::PacketPtr(&slot.pkt, net::PacketDeleter{this});
    }
  }
}

void PacketPool::recycle(net::Packet* pkt) noexcept {
  // Recover the slot index from the packet's address; the slots live in one
  // contiguous vector, so anything that doesn't land exactly on a slot's
  // pkt member is foreign.
  const auto addr = reinterpret_cast<const char*>(pkt);
  const auto base = reinterpret_cast<const char*>(slots_.data());
  const std::ptrdiff_t diff = addr - base;
  const std::size_t idx = static_cast<std::size_t>(diff) / sizeof(Slot);
  if (diff < 0 || idx >= slots_.size() || &slots_[idx].pkt != pkt) {
    std::fprintf(stderr, "PacketPool: recycle of foreign packet %p\n",
                 static_cast<const void*>(pkt));
    std::abort();
  }
  Slot& slot = slots_[idx];
  if (!slot.live.exchange(false, std::memory_order_relaxed)) {
    std::fprintf(stderr, "PacketPool: double release of slab %zu\n", idx);
    std::abort();
  }

  std::uint64_t head = head_.load(std::memory_order_relaxed);
  for (;;) {
    slot.next.store(index_of(head), std::memory_order_relaxed);
    if (head_.compare_exchange_weak(
            head, pack(static_cast<std::uint32_t>(idx), tag_of(head) + 1),
            std::memory_order_release, std::memory_order_relaxed)) {
      break;
    }
  }
  recycled_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t PacketPool::in_use() const {
  return static_cast<std::size_t>(acquired() - recycled());
}

}  // namespace mflow::rt
