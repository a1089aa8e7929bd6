// Fixed-capacity RX descriptor ring.
//
// Plays two roles, mirroring the mlx5 driver structures the paper hooks:
//  - the NIC's per-queue DMA ring (raw packets awaiting the driver poll),
//  - MFLOW's per-core "request ring buffers" created by the IRQ-splitting
//    function (packet requests dispatched to splitting cores before any skb
//    exists).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace mflow::net {

class RxRing {
 public:
  explicit RxRing(std::size_t capacity);

  /// Enqueue; returns false (and drops the packet) when full.
  bool push(PacketPtr pkt) {
    if (full()) {
      ++drops_;
      return false;  // pkt destroyed: tail drop, like a DMA ring overrun
    }
    slots_[tail_] = std::move(pkt);
    if (++tail_ == slots_.size()) tail_ = 0;
    ++count_;
    ++enqueued_;
    return true;
  }

  /// Dequeue; returns nullptr when empty.
  PacketPtr pop() {
    if (empty()) return nullptr;
    PacketPtr pkt = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    --count_;
    return pkt;
  }

  /// The packet `i` places behind the head (0 = the next pop), left in
  /// place; requires i < size().
  const Packet& peek(std::size_t i) const {
    std::size_t at = head_ + i;
    if (at >= slots_.size()) at -= slots_.size();
    return *slots_[at];
  }

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_.size(); }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == slots_.size(); }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t total_enqueued() const { return enqueued_; }

 private:
  std::vector<PacketPtr> slots_;
  std::size_t head_ = 0;  // next pop
  std::size_t tail_ = 0;  // next push
  std::size_t count_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t enqueued_ = 0;
};

}  // namespace mflow::net
