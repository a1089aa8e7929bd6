#include "net/gro.hpp"

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

}  // namespace mflow::net
