#include "stack/vxlan.hpp"

#include "stack/machine.hpp"

namespace mflow::stack {

void VxlanStage::process(net::PacketPtr pkt, StageContext& ctx) {
  if (cache_ != nullptr && cache_->lookup(*pkt) != nullptr) {
    // Fast path: the flow's forwarding decision is cached and sealed.
    // Splice off the outer stack in one step (VNI re-checked against the
    // bytes; checksum/port validation was done by the slow pass that
    // committed the entry) and jump straight to the inner IP stage — the
    // bridge and veth decisions are baked into the entry.
    if (net::vxlan_splice_decap(*pkt, expected_vni_)) {
      ++decapsulated_;
      ++spliced_;
      cache_->note_hit_segs(*pkt, pkt->gro_segs);
      ctx.machine.inject_into_path(ctx.machine.stage_index(StageId::kIp),
                                   ctx.core.id(), std::move(pkt), ctx.memo);
      return;
    }
    // Bytes disagree with the committed entry (tunnel changed under the
    // flow): drop the stale decision and take the slow path below.
    cache_->invalidate_flow(pkt->flow_id);
  }
  const net::DecapResult res = net::vxlan_decap(*pkt);
  if (!res.ok || res.vni != expected_vni_) {
    ++failures_;
    ctx.machine.note_lost_in_flight(*pkt);
    return;  // malformed or foreign-VNI packet: dropped, skb freed
  }
  ++decapsulated_;
  if (cache_ != nullptr) cache_->record_vni(*pkt, res.vni);
  ctx.forward(std::move(pkt));
}

}  // namespace mflow::stack
