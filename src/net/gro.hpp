// Generic Receive Offload.
//
// Coalesces consecutive in-order TCP segments of one flow into a single
// super-skb within a NAPI poll batch, so every later stage pays per-skb cost
// once for many wire packets. The paper leans on two GRO facts we model:
//  - GRO is effective for TCP but not UDP (paper footnote 2);
//  - GRO itself is a heavyweight *function* that FALCON-fun moves to its own
//    core and that MFLOW can split (it runs wherever the stage runs).
// Aggregation is bounded by max_segs/max_bytes; for VXLAN-encapsulated
// traffic the effective aggregation is much lower (inner-header parsing
// limits it), which we expose as a per-path cap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace mflow::net {

struct GroParams {
  std::uint32_t max_segs = 44;      // ~64KB / MSS
  std::uint32_t max_bytes = 65536;  // kernel GRO size cap
  bool enabled = true;
};

class GroEngine {
 public:
  explicit GroEngine(GroParams params) : params_(params) {}

  /// Offer a packet. Mergeable TCP segments are held; anything else (UDP,
  /// out-of-order, full super-skb) goes to `sink(PacketPtr)` — possibly
  /// after the held skb, to preserve per-flow ordering. The sink is a
  /// template parameter so the per-packet call inlines.
  template <class Sink>
  void add(PacketPtr pkt, Sink&& sink);

  /// End-of-batch flush (NAPI calls napi_gro_flush when the poll ends).
  template <class Sink>
  void flush(Sink&& sink);

  std::uint64_t merged_segments() const { return merged_; }
  std::uint64_t emitted_skbs() const { return emitted_; }

 private:
  bool can_merge(const Packet& held, const Packet& pkt) const;

  GroParams params_;
  // One held super-skb per flow, sorted by flow id. A NAPI batch holds a
  // handful of flows, so a flat vector costs no allocation per held skb,
  // and flush emits in ascending-id order without sorting.
  std::vector<std::pair<FlowId, PacketPtr>> held_;
  // Index in held_ of the flow the last add() touched: a run of one flow's
  // segments finds its entry without a search. Every insert is an add(),
  // which moves it to the new entry, so it never points at a shifted one.
  std::size_t last_ = 0;
  std::uint64_t merged_ = 0;
  std::uint64_t emitted_ = 0;
};

inline bool GroEngine::can_merge(const Packet& held, const Packet& pkt) const {
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

template <class Sink>
void GroEngine::add(PacketPtr pkt, Sink&& sink) {
  if (!params_.enabled || pkt->flow.protocol != Ipv4Header::kProtoTcp) {
    ++emitted_;
    sink(std::move(pkt));
    return;
  }
  const FlowId id = pkt->flow_id;
  if (last_ >= held_.size() || held_[last_].first != id) {
    const auto it = std::lower_bound(
        held_.begin(), held_.end(), id,
        [](const auto& entry, FlowId key) { return entry.first < key; });
    last_ = static_cast<std::size_t>(it - held_.begin());
    if (it == held_.end() || it->first != id) {
      held_.emplace(it, id, std::move(pkt));
      return;
    }
  }
  PacketPtr& slot = held_[last_].second;
  Packet& held = *slot;
  if (can_merge(held, *pkt)) {
    held.payload_len += pkt->payload_len;
    held.gro_segs += pkt->gro_segs;
    ++merged_;
    return;  // segment absorbed; its buffer is released
  }
  // Not mergeable: the new segment takes the held one's place, and the held
  // super-skb is emitted first to keep flow order.
  PacketPtr out = std::exchange(slot, std::move(pkt));
  ++emitted_;
  sink(std::move(out));
}

template <class Sink>
void GroEngine::flush(Sink&& sink) {
  for (auto& [_, pkt] : held_) {
    ++emitted_;
    sink(std::move(pkt));
  }
  held_.clear();
  last_ = 0;
}

}  // namespace mflow::net
