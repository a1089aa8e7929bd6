// Client-side traffic generation (the sockperf/iperf3 side of the testbed).
//
// Clients are modeled with their own cores because several of the paper's
// results are *client*-limited: TCP with 16 B messages, and UDP through the
// overlay, where the sender pays the full veth->bridge->VXLAN-encap TX path
// (which is why the paper needs three sockperf clients, and why MFLOW's UDP
// receive capacity is not saturated).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "rt/pool.hpp"
#include "sim/core.hpp"
#include "sim/simulator.hpp"
#include "stack/machine.hpp"
#include "util/fifo.hpp"

namespace mflow::workload {

/// Fixed-latency FIFO wire between a client and the server NIC. FIFO order
/// plus constant latency preserves transmit order on arrival (single cable,
/// no reordering — as in the paper's back-to-back 100GbE link).
///
/// Each packet takes a sim::Ticket at transmit: the place its own
/// after(latency) event would have had. The wire is a delay line: at most
/// its oldest packet has an event (it is "armed"), and when that event runs
/// the next packet's ticket is scheduled. The wire is also lazy: while every
/// RX-queue consumer of the destination NIC is scheduled, an arrival only
/// fills a ring that the consumer's next poll reads, so the wire stops
/// arming and holds its packets without events. The machine pulls them in
/// ticket order (stack::Machine::RxSource) when a consumer's poll starts,
/// before any other arrival, and at measurement boundaries; each is stamped
/// with its own arrival time. When a consumer goes idle it wakes the wire,
/// which arms its oldest packet again, so the arrival that raises the IRQ is
/// still an event at its own place in the order. Ring contents, drops and
/// IRQs are therefore exactly those of one event per packet.
///
/// A wire with a fault injector keeps one event per packet: its kNicRing
/// verdicts share one RNG with the other fault points, so each must be
/// drawn at its arrival instant.
class WireLink final : private stack::Machine::RxSource {
 public:
  WireLink(sim::Simulator& sim, stack::Machine& dst, sim::Time latency);
  ~WireLink();

  WireLink(const WireLink&) = delete;  // pending events hold `this`
  WireLink& operator=(const WireLink&) = delete;

  void transmit(net::PacketPtr pkt);

  /// Perturb packets at the wire->NIC-ring boundary (kNicRing faults:
  /// overruns, bit errors, PFC pauses). Non-owning; set before the first
  /// transmit, so that no packet the wire holds lazily skips the verdicts.
  void set_fault_injector(net::FaultInjector* inj) {
    assert(packets_ == 0);
    faults_ = inj;
  }

  std::uint64_t packets() const { return packets_; }

 private:
  struct InFlight {
    net::PacketPtr pkt;
    sim::Ticket due;
  };

  /// Does the next arrival need an event of its own?
  bool eager() const { return faults_ != nullptr || !dst_.rx_polling(); }
  /// Schedule the arrival of the packet at the head of the line.
  void arm_head();
  void arrive();
  void deliver(net::PacketPtr pkt, sim::Time at);

  // RxSource
  bool lazy_head(sim::Ticket& due) const override;
  void pull(sim::Ticket limit) override;
  void wake() override;

  sim::Simulator& sim_;
  stack::Machine& dst_;
  sim::Time latency_;
  net::FaultInjector* faults_ = nullptr;
  util::Fifo<InFlight> in_flight_;
  bool armed_ = false;  // the head has an event
  std::uint64_t packets_ = 0;
};

/// A client machine: cores running sender applications.
class ClientHost {
 public:
  ClientHost(sim::Simulator& sim, int num_cores,
             const stack::CostModel& costs);

  sim::Core& core(int id) { return *cores_.at(static_cast<std::size_t>(id)); }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  const stack::CostModel& costs() const { return costs_; }
  sim::Simulator& simulator() { return sim_; }

 private:
  sim::Simulator& sim_;
  stack::CostModel costs_;
  std::vector<std::unique_ptr<sim::Core>> cores_;
};

struct SenderParams {
  net::FlowKey flow;       // inner 5-tuple (container addresses if overlay)
  net::FlowId flow_id = 1;
  bool overlay = true;
  net::Ipv4Addr outer_src;  // underlay host addresses (overlay only)
  net::Ipv4Addr outer_dst;
  std::uint32_t vni = 42;
  std::uint32_t message_size = 65536;
  std::uint32_t mss = net::kTcpMss;
  std::uint64_t window_bytes = 3000ull * net::kTcpMss;  // TCP only
  /// Retransmission timeout for the go-back-N recovery that papers over
  /// ring-overrun losses (real TCP would do SACK; goodput effect is the
  /// same at these loss rates).
  sim::Time rto = sim::ms(1);
  /// 0 = send as fast as the client core allows; otherwise one message per
  /// `pace_per_message` ns (used for latency runs below saturation).
  sim::Time pace_per_message = 0;
  /// Message-id sequence (UDP): several clients hammering the same flow
  /// (the paper's 3-client UDP setup) must not collide on message ids.
  std::uint64_t message_id_start = 0;
  std::uint64_t message_id_stride = 1;
  /// Optional slab pool (non-owning): segments/datagrams are stamped into
  /// recycled slabs instead of fresh heap packets, so steady-state traffic
  /// generation stops touching the allocator. Exhaustion falls back to the
  /// heap — the pool is an optimization, never a correctness constraint.
  rt::PacketPool* pool = nullptr;
};

/// Per-sender header images. A flow's encapsulated headers do not change
/// from packet to packet (the observation ONCache makes about real
/// overlays): with the TCP checksum offloaded and the IPv4 id always 0, a
/// segment's bytes depend only on its flow, its payload length and, for
/// TCP, the low 32 bits of its sequence number. So each length is built
/// once, with make_tcp_segment / make_udp_datagram and vxlan_encap, and
/// every packet is a copy of its image with the four sequence bytes and the
/// message fields patched in. Two images are kept: full MSS, and the most
/// recent other length (a message tail), rebuilt in place when it changes.
class HeaderImages {
 public:
  explicit HeaderImages(const SenderParams& params) : params_(params) {}

  /// A packet of `len` payload bytes for message `message_id` of
  /// `message_bytes` bytes, at stream offset `tcp_seq` (TCP; ignored for
  /// UDP). It lands in a slab of params.pool when one is free and on the
  /// heap otherwise, and equals a fresh build in every byte and field.
  net::PacketPtr stamp(std::uint32_t len, std::uint64_t tcp_seq,
                       std::uint64_t message_id, std::uint32_t message_bytes);

 private:
  struct Image {
    net::PacketPtr pkt;  // null until first built
    std::uint32_t len = 0;
    std::size_t seq_at = 0;  // TCP sequence field's offset in buf.data()
  };

  const Image& image(std::uint32_t len);

  SenderParams params_;
  Image full_;  // len == params.mss
  Image other_;
};

/// Windowed TCP sender: keeps `window_bytes` in flight, continues on ACKs.
/// With the paper's ~30 Gbps and MTU segments this is ~2000 outstanding
/// packets — the raw material of packet-level parallelism (§III-A).
class TcpSender : public sim::Pollable {
 public:
  TcpSender(ClientHost& host, int core_id, SenderParams params,
            WireLink& wire);

  void start();
  /// Cumulative ACK (stream bytes) — call on the client side, after wire
  /// latency; re-arms sending.
  void on_ack(std::uint64_t cumulative_bytes);

  /// Retarget the pacing interval at runtime (0 = drive to saturation).
  /// Slowing down takes effect at the next message boundary; speeding up to
  /// unpaced resumes immediately. The elephant<->mouse transitions of the
  /// control-plane scenarios are driven through this.
  void set_pace(sim::Time pace_per_message);

  bool poll(sim::Core& core, int budget) override;
  std::string_view poll_name() const override { return "tcp-sender"; }

  std::uint64_t bytes_sent() const { return next_off_; }
  std::uint64_t segments_sent() const { return segments_; }
  std::uint64_t inflight_bytes() const { return next_off_ - acked_; }
  std::uint64_t retransmits() const { return retransmits_; }
  const SenderParams& params() const { return params_; }

 private:
  void arm_rto();

  ClientHost& host_;
  int core_id_;
  SenderParams params_;
  WireLink& wire_;
  HeaderImages images_;
  std::uint64_t next_off_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t segments_ = 0;
  std::uint64_t retransmits_ = 0;
  bool paced_waiting_ = false;
  bool rto_armed_ = false;
};

/// UDP sender: unpaced it saturates its client core (the paper's overload
/// setup); paced it injects messages at a fixed rate.
class UdpSender : public sim::Pollable {
 public:
  UdpSender(ClientHost& host, int core_id, SenderParams params,
            WireLink& wire);

  void start();

  /// Runtime pacing change; same semantics as TcpSender::set_pace().
  void set_pace(sim::Time pace_per_message);

  bool poll(sim::Core& core, int budget) override;
  std::string_view poll_name() const override { return "udp-sender"; }

  std::uint64_t bytes_sent() const { return bytes_; }
  std::uint64_t packets_sent() const { return packets_; }

 private:
  void send_fragment(sim::Core& core);

  ClientHost& host_;
  int core_id_;
  SenderParams params_;
  WireLink& wire_;
  HeaderImages images_;
  std::uint64_t next_message_id_ = 0;
  std::uint32_t frag_off_ = 0;  // bytes of the current message already sent
  std::uint64_t bytes_ = 0;
  std::uint64_t packets_ = 0;
};

}  // namespace mflow::workload
