#include "net/gro.hpp"

#include <algorithm>
#include <utility>

namespace mflow::net {

bool GroEngine::can_merge(const Packet& held, const Packet& pkt) const {
  if (pkt.flow.protocol != Ipv4Header::kProtoTcp) return false;
  if (held.flow_id != pkt.flow_id) return false;
  if (held.microflow_id != pkt.microflow_id) return false;  // don't merge
  // across MFLOW batch boundaries: batches may diverge to different cores
  if (held.tcp_seq + held.payload_len != pkt.tcp_seq) return false;  // gap
  // Application senders set PSH on the last segment of a message, which
  // terminates GRO aggregation; equivalently, never merge across message
  // boundaries (this also keeps per-message accounting exact).
  if (held.message_id != pkt.message_id) return false;
  if (held.gro_segs + pkt.gro_segs > params_.max_segs) return false;
  if (held.payload_len + pkt.payload_len > params_.max_bytes) return false;
  return true;
}

void GroEngine::add(PacketPtr pkt, const Sink& sink) {
  if (!params_.enabled || pkt->flow.protocol != Ipv4Header::kProtoTcp) {
    ++emitted_;
    sink(std::move(pkt));
    return;
  }
  const FlowId id = pkt->flow_id;
  auto it = std::lower_bound(
      held_.begin(), held_.end(), id,
      [](const auto& entry, FlowId key) { return entry.first < key; });
  if (it == held_.end() || it->first != id) {
    held_.emplace(it, id, std::move(pkt));
    return;
  }
  Packet& held = *it->second;
  if (can_merge(held, *pkt)) {
    held.payload_len += pkt->payload_len;
    held.gro_segs += pkt->gro_segs;
    ++merged_;
    return;  // segment absorbed; its buffer is released
  }
  // Not mergeable: the new segment takes the held one's place, and the held
  // super-skb is emitted first to keep flow order.
  PacketPtr out = std::exchange(it->second, std::move(pkt));
  ++emitted_;
  sink(std::move(out));
}

void GroEngine::flush(const Sink& sink) {
  for (auto& [_, pkt] : held_) {
    ++emitted_;
    sink(std::move(pkt));
  }
  held_.clear();
}

}  // namespace mflow::net
