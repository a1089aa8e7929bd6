// IRQ-splitting function (paper §III-A "Splitting mechanism for the first
// stage" and §IV).
//
// Splits packet processing *before any skb exists*: the physical NIC's
// softirq is divided into two halves. The first half runs on the IRQ core —
// it only locates raw packet requests in the driver's request queue,
// dispatches them (as lightweight requests, not skbs) onto per-core request
// ring buffers, and raises softirqs on the splitting cores via IPI. The
// second half runs on each splitting core and performs the heavyweight part
// — skb allocation — in parallel, updating the driver's ring only every
// `release_batch` requests to avoid contention.
//
// Like the paper's implementation, this depends on the driver only through
// (a) its request queue and (b) how to pop requests — here net::RxRing.
#pragma once

#include <memory>
#include <vector>

#include "core/splitter.hpp"
#include "net/ring.hpp"
#include "stack/machine.hpp"

namespace mflow::core {

class IrqSplitter {
 public:
  IrqSplitter(stack::Machine& machine, const MflowConfig& config,
              net::RxRing& driver_ring, int irq_core,
              FlowSplitter::ReassemblerLookup lookup);
  ~IrqSplitter();

  /// Replace the default driver pollable of `queue` with the first half.
  void install(int queue);

  std::uint64_t requests_dispatched() const { return dispatched_; }
  std::uint64_t request_ring_drops() const;
  const BatchAssigner& assigner() const { return assigner_; }
  BatchAssigner& assigner() { return assigner_; }

 private:
  class FirstHalf;
  class SecondHalf;

  /// Index of `core_id` within the configured splitting cores.
  std::size_t core_slot(int core_id) const;

  stack::Machine& machine_;
  const MflowConfig& config_;
  net::RxRing& driver_ring_;
  int irq_core_;
  BatchAssigner assigner_;
  FlowSplitter::ReassemblerLookup lookup_;

  // Per-splitting-core request ring buffers (created at initialization,
  // attached where the splitting core's softirq can reach them — the
  // paper hangs them off softnet_data).
  std::vector<std::unique_ptr<net::RxRing>> request_rings_;
  std::vector<int> slot_of_core_;  // core id -> slot, -1 if not splitting
  std::unique_ptr<FirstHalf> first_half_;
  std::vector<std::unique_ptr<SecondHalf>> second_halves_;
  std::uint64_t dispatched_ = 0;
};

}  // namespace mflow::core
