#include "net/ring.hpp"

namespace mflow::net {

RxRing::RxRing(std::size_t capacity) : slots_(capacity) {}

bool RxRing::push(PacketPtr pkt) {
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

PacketPtr RxRing::pop() {
  if (empty()) return nullptr;
  PacketPtr pkt = std::move(slots_[head_]);
  if (++head_ == slots_.size()) head_ = 0;
  --count_;
  return pkt;
}

}  // namespace mflow::net
