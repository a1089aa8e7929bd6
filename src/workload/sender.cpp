#include "workload/sender.hpp"

#include <algorithm>

namespace mflow::workload {

void WireLink::transmit(net::PacketPtr pkt) {
  in_flight_.push_back(std::move(pkt));
  ++packets_;
  sim_.after(latency_, [this] {
    net::PacketPtr p = std::move(in_flight_.front());
    in_flight_.pop_front();
    deliver(std::move(p));
  });
}

void WireLink::deliver(net::PacketPtr pkt) {
  if (faults_ != nullptr) {
    switch (faults_->decide(net::FaultPoint::kNicRing)) {
      case net::FaultAction::kDrop:
        faults_->note_dropped_segs(pkt->gro_segs);
        return;  // ring overrun: the frame never existed as far as
                 // software is concerned
      case net::FaultAction::kCorrupt:
        faults_->corrupt(*pkt);
        break;
      case net::FaultAction::kDuplicate:
        dst_.nic().deliver(net::clone_packet(*pkt), sim_.now());
        break;
      case net::FaultAction::kDelay: {
        sim_.after(faults_->delay_ns(net::FaultPoint::kNicRing),
                   [this, held = std::move(pkt)]() mutable {
                     dst_.nic().deliver(std::move(held), sim_.now());
                   });
        return;
      }
      case net::FaultAction::kNone:
        break;
    }
  }
  dst_.nic().deliver(std::move(pkt), sim_.now());
}

ClientHost::ClientHost(sim::Simulator& sim, int num_cores,
                       const stack::CostModel& costs)
    : sim_(sim), costs_(costs) {
  for (int i = 0; i < num_cores; ++i)
    cores_.push_back(std::make_unique<sim::Core>(sim_, i));
}

// --- TCP ----------------------------------------------------------------------

TcpSender::TcpSender(ClientHost& host, int core_id, SenderParams params,
                     WireLink& wire)
    : host_(host), core_id_(core_id), params_(params), wire_(wire) {}

void TcpSender::start() { host_.core(core_id_).raise(*this); }

void TcpSender::on_ack(std::uint64_t cumulative_bytes) {
  acked_ = std::max(acked_, cumulative_bytes);
  // ACK processing cost on the client core, then window re-arm.
  host_.core(core_id_).inject(sim::Tag::kSender,
                              host_.costs().client_ack_process);
  host_.core(core_id_).raise(*this, /*remote=*/false);
}

void TcpSender::set_pace(sim::Time pace_per_message) {
  params_.pace_per_message = pace_per_message;
  if (pace_per_message == 0 && paced_waiting_) {
    // A pacing timer is pending; it would clear the flag and raise us
    // anyway, but resuming now keeps the transition sharp. The stale
    // timer's duplicate raise is harmless.
    paced_waiting_ = false;
    host_.core(core_id_).raise(*this);
  }
}

void TcpSender::arm_rto() {
  if (rto_armed_ || params_.rto <= 0) return;
  rto_armed_ = true;
  const std::uint64_t snapshot = acked_;
  host_.simulator().after(params_.rto, [this, snapshot] {
    rto_armed_ = false;
    if (acked_ == snapshot && next_off_ > acked_) {
      // No progress for a full RTO with data outstanding: a segment was
      // lost (NIC ring overrun). Go-back-N from the last cumulative ACK;
      // the receiver discards duplicates.
      ++retransmits_;
      next_off_ = acked_;
      host_.core(core_id_).raise(*this);
    } else if (next_off_ > acked_) {
      arm_rto();
    }
  });
}

bool TcpSender::poll(sim::Core& core, int budget) {
  const stack::CostModel& costs = host_.costs();
  for (int n = 0; n < budget; ++n) {
    if (next_off_ - acked_ >= params_.window_bytes) {
      arm_rto();
      return false;
    }
    if (paced_waiting_) return false;

    const std::uint64_t msg_off = next_off_ % params_.message_size;
    if (msg_off == 0) core.charge(sim::Tag::kSender, costs.client_per_msg);
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        params_.mss, params_.message_size - msg_off));
    core.charge(sim::Tag::kSender, params_.overlay
                                       ? costs.client_tcp_per_seg_overlay
                                       : costs.client_tcp_per_seg_native);

    // Build into a recycled slab when a pool is attached (acquire() may
    // return null on exhaustion — make_tcp_segment then heap-allocates).
    auto pkt = net::make_tcp_segment(
        params_.pool ? params_.pool->acquire() : net::PacketPtr{},
        params_.flow, next_off_, len);
    pkt->flow_id = params_.flow_id;
    pkt->message_id = next_off_ / params_.message_size;
    pkt->message_bytes = params_.message_size;
    if (params_.overlay)
      net::vxlan_encap(*pkt, params_.outer_src, params_.outer_dst,
                       params_.vni);
    wire_.transmit(std::move(pkt));
    next_off_ += len;
    ++segments_;

    if (params_.pace_per_message != 0 &&
        next_off_ % params_.message_size == 0) {
      paced_waiting_ = true;
      host_.simulator().after(params_.pace_per_message, [this] {
        paced_waiting_ = false;
        host_.core(core_id_).raise(*this);
      });
      return false;
    }
  }
  return next_off_ - acked_ < params_.window_bytes && !paced_waiting_;
}

// --- UDP ----------------------------------------------------------------------

UdpSender::UdpSender(ClientHost& host, int core_id, SenderParams params,
                     WireLink& wire)
    : host_(host),
      core_id_(core_id),
      params_(params),
      wire_(wire),
      next_message_id_(params.message_id_start) {}

void UdpSender::start() { host_.core(core_id_).raise(*this); }

void UdpSender::set_pace(sim::Time pace_per_message) {
  params_.pace_per_message = pace_per_message;
  // Going unpaced: resume immediately (a pending pacing timer's extra
  // raise is idempotent). Slowing down applies from the next message.
  if (pace_per_message == 0) host_.core(core_id_).raise(*this);
}

void UdpSender::send_fragment(sim::Core& core) {
  const stack::CostModel& costs = host_.costs();
  if (frag_off_ == 0) core.charge(sim::Tag::kSender, costs.client_per_msg);

  const std::uint32_t len =
      std::min<std::uint32_t>(params_.mss, params_.message_size - frag_off_);
  core.charge(sim::Tag::kSender,
              costs.client_udp_per_pkt +
                  (params_.overlay ? costs.client_overlay_tx_per_pkt : 0));

  auto pkt = net::make_udp_datagram(
      params_.pool ? params_.pool->acquire() : net::PacketPtr{},
      params_.flow, len);
  pkt->flow_id = params_.flow_id;
  pkt->message_id = next_message_id_;
  pkt->message_bytes = params_.message_size;
  if (params_.overlay)
    net::vxlan_encap(*pkt, params_.outer_src, params_.outer_dst, params_.vni);
  wire_.transmit(std::move(pkt));
  ++packets_;
  bytes_ += len;

  frag_off_ += len;
  if (frag_off_ >= params_.message_size) {
    frag_off_ = 0;
    next_message_id_ += params_.message_id_stride;
  }
}

bool UdpSender::poll(sim::Core& core, int budget) {
  for (int n = 0; n < budget; ++n) {
    send_fragment(core);
    if (params_.pace_per_message != 0 && frag_off_ == 0) {
      // Message finished: wait out the pacing interval.
      host_.simulator().after(params_.pace_per_message, [this] {
        host_.core(core_id_).raise(*this);
      });
      return false;
    }
  }
  return true;  // unpaced: the client core stays saturated
}

}  // namespace mflow::workload
