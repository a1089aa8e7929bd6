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
    slots_[i].next =
        i + 1 < slots_.size() ? static_cast<std::uint32_t>(i + 1) : kNil;
  }
  if (!slots_.empty()) head_ = 0;
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
  Slot& slot = slots_[head_];
  head_ = slot.next;
  slot.live = true;
  ++acquired_;
  slot.pkt.reset();
  return net::PacketPtr(&slot.pkt, net::PacketDeleter{this});
}

void PacketPool::recycle(net::Packet* pkt) noexcept {
  check_owner("recycle");
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
  if (!slot.live) {
    std::fprintf(stderr, "PacketPool: double release of slab %zu\n", idx);
    std::abort();
  }
  slot.live = false;
  slot.next = head_;
  head_ = static_cast<std::uint32_t>(idx);
  ++recycled_;
}

}  // namespace mflow::rt
