#include "workload/sender.hpp"

#include <algorithm>
#include <cassert>

namespace mflow::workload {

WireLink::WireLink(sim::Simulator& sim, stack::Machine& dst,
                   sim::Time latency)
    : sim_(sim), dst_(dst), latency_(latency) {
  dst_.add_rx_source(this);
}

WireLink::~WireLink() { dst_.remove_rx_source(this); }

void WireLink::transmit(net::PacketPtr pkt) {
  const bool idle = in_flight_.empty();
  InFlight& slot = in_flight_.emplace_back();
  slot.pkt = std::move(pkt);
  slot.due = sim_.reserve_after(latency_);
  ++packets_;
  if (idle && eager()) arm_head();
}

void WireLink::arm_head() {
  armed_ = true;
  sim_.at(in_flight_.front().due, [this] { arrive(); });
}

void WireLink::arrive() {
  // Packets other wires hold that arrive before this one go first.
  dst_.pull_arrivals(sim_.running());
  armed_ = false;
  net::PacketPtr pkt = std::move(in_flight_.front().pkt);
  in_flight_.pop_front();
  deliver(std::move(pkt), sim_.now());
  // Decided after the delivery, which may have woken a consumer.
  if (!in_flight_.empty() && eager()) arm_head();
}

bool WireLink::lazy_head(sim::Ticket& due) const {
  if (armed_ || in_flight_.empty()) return false;
  due = in_flight_.front().due;
  return true;
}

void WireLink::pull(sim::Ticket limit) {
  // Only a wire without faults holds packets (eager()), and it held them
  // while every RX consumer was scheduled: they skip the IRQ path.
  assert(faults_ == nullptr);
  while (!armed_ && !in_flight_.empty() && in_flight_.front().due < limit) {
    InFlight& head = in_flight_.front();
    dst_.receive_polled(std::move(head.pkt), head.due.when);
    in_flight_.pop_front();
  }
}

void WireLink::wake() {
  if (!armed_ && !in_flight_.empty()) arm_head();
}

void WireLink::deliver(net::PacketPtr pkt, sim::Time at) {
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
        dst_.nic().deliver(net::clone_packet(*pkt), at);
        break;
      case net::FaultAction::kDelay: {
        sim_.after(faults_->delay_ns(net::FaultPoint::kNicRing),
                   [this, held = std::move(pkt)]() mutable {
                     dst_.pull_arrivals(sim_.running());
                     dst_.nic().deliver(std::move(held), sim_.now());
                   });
        return;
      }
      case net::FaultAction::kNone:
        break;
    }
  }
  dst_.nic().deliver(std::move(pkt), at);
}

ClientHost::ClientHost(sim::Simulator& sim, int num_cores,
                       const stack::CostModel& costs)
    : sim_(sim), costs_(costs) {
  for (int i = 0; i < num_cores; ++i)
    cores_.push_back(std::make_unique<sim::Core>(sim_, i));
}

// --- header images ------------------------------------------------------------

const HeaderImages::Image& HeaderImages::image(std::uint32_t len) {
  Image& img = len == params_.mss ? full_ : other_;
  if (img.pkt && img.len == len) return img;
  // (Re)build with the ordinary constructors, reusing the image's buffer.
  net::PacketPtr pkt =
      params_.flow.protocol == net::Ipv4Header::kProtoTcp
          ? net::make_tcp_segment(std::move(img.pkt), params_.flow, 0, len)
          : net::make_udp_datagram(std::move(img.pkt), params_.flow, len);
  pkt->flow_id = params_.flow_id;
  if (params_.overlay)
    net::vxlan_encap(*pkt, params_.outer_src, params_.outer_dst, params_.vni);
  // A TCP header is the last in the buffer; its sequence field is its
  // bytes 4-7.
  img.seq_at = pkt->buf.size() - (net::TcpHeader::kSize - 4);
  img.pkt = std::move(pkt);
  img.len = len;
  return img;
}

net::PacketPtr HeaderImages::stamp(std::uint32_t len, std::uint64_t tcp_seq,
                                   std::uint64_t message_id,
                                   std::uint32_t message_bytes) {
  const Image& img = image(len);
  net::PacketPtr pkt = params_.pool ? params_.pool->acquire() : nullptr;
  if (pkt)
    *pkt = *img.pkt;  // header bytes are inline: a flat copy, no allocation
  else
    pkt = net::clone_packet(*img.pkt);
  pkt->message_id = message_id;
  pkt->message_bytes = message_bytes;
  if (params_.flow.protocol == net::Ipv4Header::kProtoTcp) {
    pkt->tcp_seq = tcp_seq;
    const auto wire_seq = static_cast<std::uint32_t>(tcp_seq);
    std::uint8_t* at = pkt->buf.data().data() + img.seq_at;
    at[0] = static_cast<std::uint8_t>(wire_seq >> 24);
    at[1] = static_cast<std::uint8_t>(wire_seq >> 16);
    at[2] = static_cast<std::uint8_t>(wire_seq >> 8);
    at[3] = static_cast<std::uint8_t>(wire_seq);
  }
  return pkt;
}

// --- TCP ----------------------------------------------------------------------

TcpSender::TcpSender(ClientHost& host, int core_id, SenderParams params,
                     WireLink& wire)
    : host_(host),
      core_id_(core_id),
      params_(params),
      wire_(wire),
      images_(params) {}

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

    wire_.transmit(images_.stamp(len, next_off_,
                                 next_off_ / params_.message_size,
                                 params_.message_size));
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
      images_(params),
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

  wire_.transmit(
      images_.stamp(len, 0, next_message_id_, params_.message_size));
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
