#include "net/nic.hpp"

#include "trace/trace.hpp"

namespace mflow::net {

Nic::Nic(NicParams params) : params_(params) {
  for (int i = 0; i < params_.num_queues; ++i)
    rings_.emplace_back(params_.ring_capacity);
}

int Nic::rss_queue(const FlowKey& flow) const {
  // The VXLAN outer UDP source port is derived from the inner flow hash
  // (see vxlan_encap), so hashing the inner tuple here matches what hardware
  // RSS computes on the outer tuple: one flow -> one queue, always.
  return static_cast<int>(flow_hash(flow, params_.rss_seed) %
                          static_cast<std::uint32_t>(rings_.size()));
}

int Nic::receive(PacketPtr pkt, sim::Time now) {
  pkt->t_wire = now;
  if (last_seq_ == nullptr || pkt->flow_id != last_flow_ ||
      pkt->flow != last_key_) {
    last_flow_ = pkt->flow_id;
    last_key_ = pkt->flow;
    last_seq_ = &flow_seq_[last_flow_];
    last_queue_ = rss_queue(last_key_);
  }
  pkt->wire_seq = (*last_seq_)++;
  const int q = last_queue_;
  trace::Tracer* tr = trace::active();
  if (tr != nullptr) {
    tr->registry().add("nic.wire_packets");
    tr->packet(trace::EventKind::kWireArrival, now, /*core=*/-1,
               pkt->flow_id, pkt->wire_seq, pkt->microflow_id,
               static_cast<std::uint64_t>(q));
  }
  const std::uint64_t flow = pkt->flow_id;
  const std::uint64_t seq = pkt->wire_seq;
  if (rings_[static_cast<std::size_t>(q)].push(std::move(pkt))) {
    ++delivered_;
    if (tr != nullptr)
      tr->packet(trace::EventKind::kRingEnqueue, now, /*core=*/-1, flow, seq,
                 0, static_cast<std::uint64_t>(q));
    return q;
  }
  if (tr != nullptr) {
    tr->registry().add("nic.ring_drops");
    tr->packet(trace::EventKind::kRingDrop, now, /*core=*/-1, flow, seq, 0,
               static_cast<std::uint64_t>(q));
  }
  return -1;
}

std::uint64_t Nic::total_drops() const {
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r.drops();
  return total;
}

}  // namespace mflow::net
