#include "core/irq_split.hpp"

#include "trace/trace.hpp"

namespace mflow::core {

/// Second half: skb allocation on a splitting core, feeding the path.
class IrqSplitter::SecondHalf final : public sim::Pollable {
 public:
  SecondHalf(IrqSplitter& owner, net::RxRing& ring, int core_id)
      : owner_(owner), ring_(ring), core_id_(core_id) {}

  bool poll(sim::Core& core, int budget) override {
    stack::Machine& m = owner_.machine_;
    const stack::CostModel& costs = m.costs();
    trace::Tracer* tr = trace::active();
    int n = 0;
    while (n < budget) {
      net::PacketPtr pkt = ring_.pop();
      if (!pkt) break;
      if (tr != nullptr)
        tr->packet(trace::EventKind::kRingDequeue, core.vnow(), core.id(),
                   pkt->flow_id, pkt->wire_seq, pkt->microflow_id);
      core.charge(sim::Tag::kSkbAlloc, costs.skb_alloc);
      pkt->skb_allocated = true;
      if (tr != nullptr)
        tr->packet(trace::EventKind::kSkbAlloc, core.vnow(), core.id(),
                   pkt->flow_id, pkt->wire_seq, pkt->microflow_id, 0,
                   costs.skb_alloc);
      // Tell the driver its request slot is reusable — batched to limit
      // cross-core contention on the driver ring (paper: every ~128).
      if (++since_release_ >= costs.release_batch) {
        since_release_ = 0;
        core.charge(sim::Tag::kDriver, costs.driver_release_update);
      }
      m.inject_into_path(0, core_id_, std::move(pkt));
      ++n;
    }
    return !ring_.empty();
  }

  std::string_view poll_name() const override { return "irq-split-2nd"; }

 private:
  IrqSplitter& owner_;
  net::RxRing& ring_;
  int core_id_;
  int since_release_ = 0;
};

/// First half: request location + dispatch on the IRQ core.
class IrqSplitter::FirstHalf final : public sim::Pollable {
 public:
  explicit FirstHalf(IrqSplitter& owner) : owner_(owner) {}

  bool poll(sim::Core& core, int budget) override {
    IrqSplitter& o = owner_;
    stack::Machine& m = o.machine_;
    const stack::CostModel& costs = m.costs();
    trace::Tracer* tr = trace::active();
    m.pull_arrivals(m.simulator().running());
    int n = 0;
    while (n < budget) {
      net::PacketPtr pkt = o.driver_ring_.pop();
      if (!pkt) break;
      ++n;
      if (tr != nullptr)
        tr->packet(trace::EventKind::kRingDequeue, core.vnow(), core.id(),
                   pkt->flow_id, pkt->wire_seq, pkt->microflow_id);
      core.charge(sim::Tag::kDriver, costs.driver_poll_per_pkt);
      const auto a = o.assigner_.assign(pkt->flow_id, 1, pkt->payload_len);
      if (a.microflow_id == 0) {
        // Mouse flow: do the whole stage 1 here, as the stock driver would.
        if (a.unsplit) {
          // Demotion boundary: park this flow's default-path packets at the
          // merge point until its in-flight batches drain.
          if (Reassembler* ra = o.lookup_(*pkt))
            ra->note_flow_unsplit(pkt->flow_id);
        }
        if (tr != nullptr)
          tr->packet(trace::EventKind::kSplitDecision, core.vnow(), core.id(),
                     pkt->flow_id, pkt->wire_seq, 0);
        core.charge(sim::Tag::kSkbAlloc, costs.skb_alloc);
        pkt->skb_allocated = true;
        if (tr != nullptr)
          tr->packet(trace::EventKind::kSkbAlloc, core.vnow(), core.id(),
                     pkt->flow_id, pkt->wire_seq, 0, 0,
                     costs.driver_poll_per_pkt + costs.skb_alloc);
        m.inject_into_path(0, o.irq_core_, std::move(pkt));
        continue;
      }
      pkt->microflow_id = a.microflow_id;
      Reassembler* ra = o.lookup_(*pkt);
      if (a.first_split && ra != nullptr)
        ra->note_flow_split(pkt->flow_id, a.prior_segs, a.microflow_id);
      if (a.new_batch) {
        core.charge(sim::Tag::kSteer, costs.mflow_dispatch_per_batch);
        if (ra != nullptr) ra->note_batch_open(pkt->flow_id, a.microflow_id);
      }
      if (ra != nullptr) ra->note_dispatch(pkt->flow_id, a.microflow_id, 1);
      core.charge(sim::Tag::kSteer, costs.mflow_split_per_pkt);
      if (tr != nullptr) {
        tr->registry().add("split.dispatched");
        tr->packet(trace::EventKind::kSplitDecision, core.vnow(), core.id(),
                   pkt->flow_id, pkt->wire_seq, a.microflow_id,
                   a.microflow_id);
        tr->packet(trace::EventKind::kSplitDeposit, core.vnow(), core.id(),
                   pkt->flow_id, pkt->wire_seq, a.microflow_id,
                   static_cast<std::uint64_t>(a.target_core));
      }

      const std::size_t slot = o.core_slot(a.target_core);
      net::RxRing& ring = *o.request_rings_[slot];
      const std::uint64_t flow = pkt->flow_id;
      const std::uint64_t batch = a.microflow_id;

      if (net::FaultInjector* faults = m.fault_injector()) {
        const auto action = faults->decide(net::FaultPoint::kSplitQueue);
        if (tr != nullptr && action != net::FaultAction::kNone) {
          tr->registry().add("fault.split_queue_verdicts");
          tr->packet(trace::EventKind::kFaultVerdict, core.vnow(), core.id(),
                     flow, pkt->wire_seq, batch,
                     static_cast<std::uint64_t>(action));
        }
        if (action == net::FaultAction::kDrop) {
          // Request lost on the per-core ring: retract the dispatch.
          faults->note_dropped_segs(1);
          if (tr != nullptr)
            tr->packet(trace::EventKind::kDrop, core.vnow(), core.id(), flow,
                       pkt->wire_seq, batch);
          if (ra != nullptr) ra->note_drop(flow, batch, 1);
          continue;
        }
        if (action == net::FaultAction::kCorrupt) {
          faults->corrupt(*pkt);
        } else if (action == net::FaultAction::kDuplicate) {
          auto dup = net::clone_packet(*pkt);
          if (ring.push(std::move(dup)))
            m.core(a.target_core).raise(*o.second_halves_[slot],
                                        /*remote=*/true);
        } else if (action == net::FaultAction::kDelay) {
          IrqSplitter* op = &o;
          const int target = a.target_core;
          m.simulator().after(
              faults->delay_ns(net::FaultPoint::kSplitQueue),
              [op, slot, target, late = std::move(pkt), flow,
               batch]() mutable {
                core::Reassembler* lra = op->lookup_(*late);
                if (op->request_rings_[slot]->push(std::move(late))) {
                  op->machine_.core(target).raise(*op->second_halves_[slot],
                                                  /*remote=*/true);
                } else if (lra != nullptr) {
                  lra->note_drop(flow, batch, 1);
                }
              });
          continue;
        }
      }

      const std::uint64_t wseq = pkt->wire_seq;
      if (ring.push(std::move(pkt))) {
        ++o.dispatched_;
        m.core(a.target_core).raise(*o.second_halves_[slot], /*remote=*/true);
      } else {
        // Request-ring overrun: retract the dispatch so merging never waits
        // for a packet that will not arrive.
        if (tr != nullptr) {
          tr->registry().add("split.request_ring_drops");
          tr->packet(trace::EventKind::kDrop, core.vnow(), core.id(), flow,
                     wseq, batch);
        }
        if (ra != nullptr) ra->note_drop(flow, batch, 1);
      }
    }
    if (!o.driver_ring_.empty()) return true;
    m.wake_rx_sources();
    return false;
  }

  std::string_view poll_name() const override { return "irq-split-1st"; }

 private:
  IrqSplitter& owner_;
};

IrqSplitter::IrqSplitter(stack::Machine& machine, const MflowConfig& config,
                         net::RxRing& driver_ring, int irq_core,
                         FlowSplitter::ReassemblerLookup lookup)
    : machine_(machine),
      config_(config),
      driver_ring_(driver_ring),
      irq_core_(irq_core),
      assigner_(config),
      lookup_(std::move(lookup)) {
  for (int core_id : config_.splitting_cores) {
    // A core listed twice keeps its first slot.
    const auto c = static_cast<std::size_t>(core_id);
    if (core_id >= 0 && slot_of_core_.size() <= c)
      slot_of_core_.resize(c + 1, -1);
    if (core_id >= 0 && slot_of_core_[c] < 0)
      slot_of_core_[c] = static_cast<int>(request_rings_.size());
    request_rings_.push_back(std::make_unique<net::RxRing>(8192));
    second_halves_.push_back(std::make_unique<SecondHalf>(
        *this, *request_rings_.back(), core_id));
  }
  first_half_ = std::make_unique<FirstHalf>(*this);
}

IrqSplitter::~IrqSplitter() = default;

std::size_t IrqSplitter::core_slot(int core_id) const {
  const auto c = static_cast<std::size_t>(core_id);
  if (core_id < 0 || c >= slot_of_core_.size() || slot_of_core_[c] < 0)
    throw std::out_of_range("not a splitting core");
  return static_cast<std::size_t>(slot_of_core_[c]);
}

void IrqSplitter::install(int queue) {
  machine_.override_driver(queue, first_half_.get(), irq_core_);
}

std::uint64_t IrqSplitter::request_ring_drops() const {
  std::uint64_t total = 0;
  for (const auto& r : request_rings_) total += r->drops();
  return total;
}

}  // namespace mflow::core
