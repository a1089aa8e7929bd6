// Physical NIC model: multi-queue RX rings with RSS, IRQ signalling.
//
// Stand-in for the Mellanox ConnectX-5 of the paper's testbed: packets
// arriving from the wire are hashed (RSS) to one of the RX queues and signal
// that queue's IRQ line, whose owner (stack::Machine) charges the interrupt
// unless the driver is already polling that queue (NAPI interrupt
// suppression). A delivery into a queue known to be polling skips the
// signal altogether (receive()).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/flow.hpp"
#include "net/ring.hpp"

namespace mflow::net {

struct NicParams {
  int num_queues = 1;
  std::size_t ring_capacity = 4096;
  std::uint32_t rss_seed = 0x6d5a6d5a;  // Toeplitz-key stand-in
};

/// Where a NIC signals its RX interrupts.
class IrqLine {
 public:
  /// A packet landed on `queue`'s ring. The owner decides whether to charge
  /// an IRQ and wake the driver (NAPI may already be polling).
  virtual void irq(int queue) = 0;

 protected:
  ~IrqLine() = default;
};

class Nic {
 public:
  explicit Nic(NicParams params);

  /// Signal RX interrupts to `line` (non-owning; null: none).
  void set_irq_line(IrqLine* line) { irq_ = line; }

  /// Wire delivery: receive(), then signal the queue's IRQ line.
  void deliver(PacketPtr pkt, sim::Time now) {
    const int q = receive(std::move(pkt), now);
    if (q >= 0 && irq_ != nullptr) irq_->irq(q);
  }

  /// Wire delivery without the IRQ signal, for a queue whose consumer is
  /// already scheduled (its interrupt is masked): stamps the arrival time
  /// and the per-flow arrival index (ground truth for ordering checks),
  /// selects the RX queue via RSS and enqueues. Returns that queue, or -1
  /// if its ring was full and dropped the packet.
  int receive(PacketPtr pkt, sim::Time now);

  int num_queues() const { return static_cast<int>(rings_.size()); }
  RxRing& queue(int i) { return rings_[static_cast<std::size_t>(i)]; }
  const RxRing& queue(int i) const {
    return rings_[static_cast<std::size_t>(i)];
  }

  /// RSS queue selection for a flow (exposed for tests and steering logic).
  int rss_queue(const FlowKey& flow) const;

  std::uint64_t total_drops() const;
  std::uint64_t total_delivered() const { return delivered_; }

 private:
  NicParams params_;
  std::vector<RxRing> rings_;
  IrqLine* irq_ = nullptr;
  std::unordered_map<FlowId, std::uint64_t> flow_seq_;
  // The last flow delivered, its counter in flow_seq_ (map nodes do not
  // move) and its RSS queue: a train of one flow's packets costs no hash
  // lookup and no flow hash. Keyed on the tuple as well as the id, since a
  // reused FlowId may carry another tuple.
  FlowId last_flow_ = 0;
  FlowKey last_key_{};
  std::uint64_t* last_seq_ = nullptr;
  int last_queue_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace mflow::net
