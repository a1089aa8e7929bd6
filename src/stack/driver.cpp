#include "stack/driver.hpp"

#include "stack/machine.hpp"
#include "trace/trace.hpp"

namespace mflow::stack {

bool DriverPollable::poll(sim::Core& core, int budget) {
  const CostModel& costs = machine_.costs();
  trace::Tracer* tr = trace::active();
  machine_.pull_arrivals(machine_.simulator().running());
  TransitionMemo into_path;
  int n = 0;
  while (n < budget) {
    net::PacketPtr pkt = ring_.pop();
    if (!pkt) break;
    if (tr != nullptr)
      tr->packet(trace::EventKind::kRingDequeue, core.vnow(), core.id(),
                 pkt->flow_id, pkt->wire_seq, pkt->microflow_id);
    core.charge(sim::Tag::kDriver, costs.driver_poll_per_pkt);
    core.charge(sim::Tag::kSkbAlloc, costs.skb_alloc);
    pkt->skb_allocated = true;
    if (tr != nullptr)
      tr->packet(trace::EventKind::kSkbAlloc, core.vnow(), core.id(),
                 pkt->flow_id, pkt->wire_seq, pkt->microflow_id, 0,
                 costs.driver_poll_per_pkt + costs.skb_alloc);
    machine_.inject_into_path(0, core_id_, std::move(pkt), into_path);
    ++n;
  }
  if (!ring_.empty()) return true;
  machine_.wake_rx_sources();
  return false;
}

}  // namespace mflow::stack
