#include "stack/stage.hpp"

#include "stack/machine.hpp"
#include "trace/trace.hpp"

namespace mflow::stack {

std::string_view stage_name(StageId id) {
  switch (id) {
    case StageId::kDriver: return "driver";
    case StageId::kGro: return "gro";
    case StageId::kIpOuter: return "ip_outer";
    case StageId::kVxlan: return "vxlan";
    case StageId::kBridge: return "bridge";
    case StageId::kVeth: return "veth";
    case StageId::kIp: return "ip";
    case StageId::kTcp: return "tcp";
    case StageId::kUdp: return "udp";
    case StageId::kSocket: return "socket";
    case StageId::kNf: return "nf";
  }
  return "?";
}

void StageContext::forward(net::PacketPtr pkt) {
  machine.inject_into_path(stage_index + 1, core.id(), std::move(pkt), memo);
}

bool StageQueue::poll(sim::Core& core, int budget) {
  StageContext ctx{machine_, core, stage_index_};
  int n = 0;
  while (n < budget && !fifo_.empty()) {
    net::PacketPtr pkt = std::move(fifo_.front());
    fifo_.pop_front();
    const sim::Time cost = stage_.cost(*pkt);
    if (trace::Tracer* tr = trace::active()) {
      const auto stage_id = static_cast<std::uint64_t>(stage_.id());
      tr->packet(trace::EventKind::kStageEnter, core.vnow(), core.id(),
                 pkt->flow_id, pkt->wire_seq, pkt->microflow_id, stage_id);
      core.charge(stage_.tag(), cost);
      // Exit is stamped before process() runs so downstream enqueue events
      // sort after the service span; intra-process charges (steer, GRO
      // flush) land in the queueing gap into the next stage.
      tr->packet(trace::EventKind::kStageExit, core.vnow(), core.id(),
                 pkt->flow_id, pkt->wire_seq, pkt->microflow_id, stage_id,
                 cost);
    } else {
      core.charge(stage_.tag(), cost);
    }
    stage_.process(std::move(pkt), ctx);
    ++n;
  }
  stage_.end_batch(ctx);
  return !fifo_.empty();
}

}  // namespace mflow::stack
