// Physical NIC model: multi-queue RX rings with RSS, IRQ signalling.
//
// Stand-in for the Mellanox ConnectX-5 of the paper's testbed: packets
// arriving from the wire are hashed (RSS) to one of the RX queues; an IRQ
// callback fires unless the driver is already polling that queue (NAPI
// interrupt suppression).
#pragma once

#include <cstdint>
#include <functional>
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

class Nic {
 public:
  explicit Nic(NicParams params);

  /// Called for every wire arrival; the handler decides whether to charge an
  /// IRQ and wake the driver (NAPI may already be polling).
  using IrqHandler = std::function<void(int queue)>;
  void set_irq_handler(IrqHandler handler) { irq_ = std::move(handler); }

  /// Wire delivery: stamps the per-flow arrival index (ground truth for
  /// ordering checks), selects the RX queue via RSS, enqueues, signals.
  void deliver(PacketPtr pkt, sim::Time now);

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
  IrqHandler irq_;
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
