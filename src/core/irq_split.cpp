#include "core/irq_split.hpp"

#include <algorithm>
#include <cassert>

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
    stack::TransitionMemo into_path;
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
      m.inject_into_path(0, core_id_, std::move(pkt), into_path);
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

/// First half: request location + dispatch on the IRQ core. It works run by
/// run: a run is the packets of one flow at the head of the driver ring, and
/// the flow's split state and reassembler are visited once per run, and its
/// splitting core's second half is raised once, after the run's first
/// request lands on its ring; only the pop, the charges, the trace records,
/// the fault verdict and the request-ring push stay per packet.
class IrqSplitter::FirstHalf final : public sim::Pollable {
 public:
  explicit FirstHalf(IrqSplitter& owner) : owner_(owner) {}

  bool poll(sim::Core& core, int budget) override {
    IrqSplitter& o = owner_;
    stack::Machine& m = o.machine_;
    const stack::CostModel& costs = m.costs();
    trace::Tracer* tr = trace::active();
    net::RxRing& rx = o.driver_ring_;
    m.pull_arrivals(m.simulator().running());
    stack::TransitionMemo into_path;  // the mouse path's stage-1 handoff
    int n = 0;
    while (n < budget && !rx.empty()) {
      // The run shares the flow id (the assigner's key) and the destination
      // port (the reassembler lookup's key): a reused FlowId may carry
      // another tuple.
      const net::Packet& head = rx.peek(0);
      const net::FlowId flow = head.flow_id;
      const std::uint16_t port = head.flow.dst_port;
      const std::size_t limit =
          std::min(rx.size(), static_cast<std::size_t>(budget - n));
      std::uint32_t len = 1;
      while (len < limit && rx.peek(len).flow_id == flow &&
             rx.peek(len).flow.dst_port == port)
        ++len;
      const BatchAssigner::Run run =
          o.assigner_.assign_run(flow, len, 1, [&rx](std::uint32_t i) {
            return rx.peek(i).payload_len;
          });
      const BatchAssigner::Assignment& a = run.first;
      const bool split = a.microflow_id != 0;

      // The run's reassembler bookkeeping, ahead of its pushes.
      Reassembler* ra = split || a.unsplit ? o.lookup_(head) : nullptr;
      const std::size_t slot = split ? o.core_slot(a.target_core) : 0;
      if (ra != nullptr) {
        // A demotion parks this flow's default-path packets at the merge
        // point until its in-flight batches drain.
        if (a.unsplit) ra->note_flow_unsplit(flow);
        if (a.first_split)
          ra->note_flow_split(flow, a.prior_segs, a.microflow_id);
        if (a.new_batch) ra->note_batch_open(flow, a.microflow_id);
        if (split) ra->note_dispatch(flow, a.microflow_id, run.taken);
      }

      bool raised = false;  // the run's second half is raised
      for (std::uint32_t i = 0; i < run.taken; ++i) {
        net::PacketPtr pkt = rx.pop();
        if (tr != nullptr)
          tr->packet(trace::EventKind::kRingDequeue, core.vnow(), core.id(),
                     pkt->flow_id, pkt->wire_seq, pkt->microflow_id);
        core.charge(sim::Tag::kDriver, costs.driver_poll_per_pkt);
        if (!split) {
          stage_one_here(core, std::move(pkt), into_path);
          continue;
        }
        if (i == 0 && a.new_batch)
          core.charge(sim::Tag::kSteer, costs.mflow_dispatch_per_batch);
        dispatch(core, std::move(pkt), a, slot, ra, run.taken - 1 - i,
                 raised);
      }
      n += static_cast<int>(run.taken);
    }
    if (!rx.empty()) return true;
    m.wake_rx_sources();
    return false;
  }

  std::string_view poll_name() const override { return "irq-split-1st"; }

 private:
  /// Mouse flow: do the whole stage 1 here, as the stock driver would.
  void stage_one_here(sim::Core& core, net::PacketPtr pkt,
                      stack::TransitionMemo& into_path) {
    IrqSplitter& o = owner_;
    const stack::CostModel& costs = o.machine_.costs();
    trace::Tracer* tr = trace::active();
    if (tr != nullptr)
      tr->packet(trace::EventKind::kSplitDecision, core.vnow(), core.id(),
                 pkt->flow_id, pkt->wire_seq, 0);
    core.charge(sim::Tag::kSkbAlloc, costs.skb_alloc);
    pkt->skb_allocated = true;
    if (tr != nullptr)
      tr->packet(trace::EventKind::kSkbAlloc, core.vnow(), core.id(),
                 pkt->flow_id, pkt->wire_seq, 0, 0,
                 costs.driver_poll_per_pkt + costs.skb_alloc);
    o.machine_.inject_into_path(0, o.irq_core_, std::move(pkt), into_path);
  }

  /// Raise the second half of `slot` on `target` unless this run already
  /// did: it then stays scheduled until this poll's event ends.
  void raise_once(std::size_t slot, int target, bool& raised) {
    IrqSplitter& o = owner_;
    sim::Pollable& second = *o.second_halves_[slot];
    if (raised) {
      assert(second.scheduled());
      return;
    }
    raised = true;
    o.machine_.core(target).raise(second, /*remote=*/true);
  }

  /// Deposit one request of micro-flow `a` on the request ring `slot` of
  /// its splitting core. Its dispatch is already noted, along with `ahead`
  /// segments of the packets behind it in the run; a lost request retracts
  /// only itself. `raised` is the run's: a request that lands raises the
  /// second half if no earlier one of the run did.
  void dispatch(sim::Core& core, net::PacketPtr pkt,
                const BatchAssigner::Assignment& a, std::size_t slot,
                Reassembler* ra, std::uint32_t ahead, bool& raised) {
    IrqSplitter& o = owner_;
    stack::Machine& m = o.machine_;
    trace::Tracer* tr = trace::active();
    pkt->microflow_id = a.microflow_id;
    core.charge(sim::Tag::kSteer, m.costs().mflow_split_per_pkt);
    if (tr != nullptr) {
      tr->registry().add("split.dispatched");
      tr->packet(trace::EventKind::kSplitDecision, core.vnow(), core.id(),
                 pkt->flow_id, pkt->wire_seq, a.microflow_id, a.microflow_id);
      tr->packet(trace::EventKind::kSplitDeposit, core.vnow(), core.id(),
                 pkt->flow_id, pkt->wire_seq, a.microflow_id,
                 static_cast<std::uint64_t>(a.target_core));
    }

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
        if (ra != nullptr) ra->note_drop(flow, batch, 1, ahead);
        return;
      }
      if (action == net::FaultAction::kCorrupt) {
        faults->corrupt(*pkt);
      } else if (action == net::FaultAction::kDuplicate) {
        auto dup = net::clone_packet(*pkt);
        if (ring.push(std::move(dup))) raise_once(slot, a.target_core, raised);
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
        return;
      }
    }

    const std::uint64_t wseq = pkt->wire_seq;
    if (ring.push(std::move(pkt))) {
      ++o.dispatched_;
      raise_once(slot, a.target_core, raised);
    } else {
      // Request-ring overrun: retract the dispatch so merging never waits
      // for a packet that will not arrive.
      if (tr != nullptr) {
        tr->registry().add("split.request_ring_drops");
        tr->packet(trace::EventKind::kDrop, core.vnow(), core.id(), flow,
                   wseq, batch);
      }
      if (ra != nullptr) ra->note_drop(flow, batch, 1, ahead);
    }
  }

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
