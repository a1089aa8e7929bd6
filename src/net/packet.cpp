#include "net/packet.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mflow::net {

namespace {

[[noreturn]] void buffer_overrun(const char* op, std::size_t n,
                                 std::size_t room) {
  std::fprintf(stderr,
               "PacketBuffer: %s of %zu bytes with room for %zu (capacity "
               "%zu)\n",
               op, n, room, PacketBuffer::kCapacity);
  std::abort();
}

}  // namespace

std::span<std::uint8_t> PacketBuffer::append(std::size_t n) {
  if (n > kCapacity - tail_) buffer_overrun("append", n, kCapacity - tail_);
  std::uint8_t* at = bytes_ + tail_;
  std::memset(at, 0, n);
  tail_ = static_cast<std::uint16_t>(tail_ + n);
  return {at, n};
}

std::span<std::uint8_t> PacketBuffer::push(std::size_t n) {
  if (n > head_) buffer_overrun("push", n, head_);
  head_ = static_cast<std::uint16_t>(head_ - n);
  return {bytes_ + head_, n};
}

void PacketBuffer::pull(std::size_t n) {
  assert(n <= size());
  head_ = static_cast<std::uint16_t>(head_ + n);
}

void PacketBuffer::reset(std::size_t headroom) {
  if (headroom > kCapacity) buffer_overrun("reset", headroom, kCapacity);
  head_ = tail_ = static_cast<std::uint16_t>(headroom);
}

void Packet::reset() {
  buf.reset();
  payload_len = 0;
  flow = FlowKey{};
  flow_id = 0;
  encapsulated = false;
  wire_seq = 0;
  tcp_seq = 0;
  message_id = 0;
  message_bytes = 0;
  skb_allocated = false;
  t_wire = 0;
  gro_segs = 1;
  microflow_id = 0;
}

void PacketDeleter::operator()(Packet* pkt) const noexcept {
  if (pkt == nullptr) return;
  if (recycler != nullptr)
    recycler->recycle(pkt);
  else
    delete pkt;
}

PacketPtr make_packet() { return PacketPtr(new Packet()); }

PacketPtr clone_packet(const Packet& src) {
  return PacketPtr(new Packet(src));
}

namespace {

constexpr MacAddr kSrcMac{0x02, 0x42, 0xac, 0x11, 0x00, 0x02};
constexpr MacAddr kDstMac{0x02, 0x42, 0xac, 0x11, 0x00, 0x03};

void write_l2l3(PacketBuffer& buf, const FlowKey& flow,
                std::uint32_t l4_and_payload) {
  Ipv4Header ip;
  ip.protocol = flow.protocol;
  ip.src = flow.src;
  ip.dst = flow.dst;
  ip.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kSize + l4_and_payload);
  ip.encode(buf.append(Ipv4Header::kSize));

  // Ethernet goes in front; we appended IP first, so push the L2 header.
  EthernetHeader eth;
  eth.src = kSrcMac;
  eth.dst = kDstMac;
  eth.encode(buf.push(EthernetHeader::kSize));
}

}  // namespace

PacketPtr make_tcp_segment(const FlowKey& flow, std::uint64_t tcp_seq,
                           std::uint32_t payload_len) {
  return make_tcp_segment(nullptr, flow, tcp_seq, payload_len);
}

PacketPtr make_tcp_segment(PacketPtr recycled, const FlowKey& flow,
                           std::uint64_t tcp_seq, std::uint32_t payload_len) {
  assert(flow.protocol == Ipv4Header::kProtoTcp);
  PacketPtr pkt = std::move(recycled);
  if (pkt)
    pkt->reset();
  else
    pkt = make_packet();
  pkt->flow = flow;
  pkt->payload_len = payload_len;
  pkt->tcp_seq = tcp_seq;

  // Build in layer order: IP appended, Ethernet pushed, then TCP appended
  // after IP. Simpler: append IP+TCP, then push Ethernet. write_l2l3 pushes
  // Ethernet already, so append TCP afterwards (it lands after IP).
  write_l2l3(pkt->buf, flow, TcpHeader::kSize + payload_len);
  TcpHeader tcp;
  tcp.src_port = flow.src_port;
  tcp.dst_port = flow.dst_port;
  tcp.seq = static_cast<std::uint32_t>(tcp_seq);
  tcp.flag_ack = true;
  tcp.encode(pkt->buf.append(TcpHeader::kSize));
  return pkt;
}

PacketPtr make_udp_datagram(const FlowKey& flow, std::uint32_t payload_len) {
  return make_udp_datagram(nullptr, flow, payload_len);
}

PacketPtr make_udp_datagram(PacketPtr recycled, const FlowKey& flow,
                            std::uint32_t payload_len) {
  assert(flow.protocol == Ipv4Header::kProtoUdp);
  PacketPtr pkt = std::move(recycled);
  if (pkt)
    pkt->reset();
  else
    pkt = make_packet();
  pkt->flow = flow;
  pkt->payload_len = payload_len;

  write_l2l3(pkt->buf, flow, UdpHeader::kSize + payload_len);
  UdpHeader udp;
  udp.src_port = flow.src_port;
  udp.dst_port = flow.dst_port;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload_len);
  udp.encode(pkt->buf.append(UdpHeader::kSize));
  return pkt;
}

void vxlan_encap(Packet& pkt, const Ipv4Addr& outer_src,
                 const Ipv4Addr& outer_dst, std::uint32_t vni) {
  assert(!pkt.encapsulated);
  const std::uint32_t inner_len = pkt.wire_len();

  // Prepend outermost-first via successive pushes in reverse layer order.
  VxlanHeader vx;
  vx.vni = vni;
  vx.encode(pkt.buf.push(VxlanHeader::kSize));

  UdpHeader udp;
  // RFC 7348 §4: source port from a hash of the inner headers for entropy.
  udp.src_port =
      static_cast<std::uint16_t>(0xC000 | (flow_hash(pkt.flow) & 0x3FFF));
  udp.dst_port = VxlanHeader::kUdpPort;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize +
                                          VxlanHeader::kSize + inner_len);
  udp.encode(pkt.buf.push(UdpHeader::kSize));

  Ipv4Header ip;
  ip.protocol = Ipv4Header::kProtoUdp;
  ip.src = outer_src;
  ip.dst = outer_dst;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + UdpHeader::kSize + VxlanHeader::kSize + inner_len);
  ip.encode(pkt.buf.push(Ipv4Header::kSize));

  EthernetHeader eth;
  eth.encode(pkt.buf.push(EthernetHeader::kSize));

  pkt.encapsulated = true;
}

DecapResult vxlan_decap(Packet& pkt) {
  DecapResult res;
  if (!pkt.encapsulated) return res;
  auto bytes = pkt.buf.data();
  if (bytes.size() < kVxlanOverhead) return res;

  const auto eth = EthernetHeader::decode(bytes);
  if (eth.ethertype != EthernetHeader::kEtherTypeIpv4) return res;
  auto l3 = bytes.subspan(EthernetHeader::kSize);
  if (!Ipv4Header::verify(l3)) return res;
  const auto ip = Ipv4Header::decode(l3);
  if (ip.protocol != Ipv4Header::kProtoUdp) return res;
  auto l4 = l3.subspan(Ipv4Header::kSize);
  const auto udp = UdpHeader::decode(l4);
  if (udp.dst_port != VxlanHeader::kUdpPort) return res;
  auto vx = l4.subspan(UdpHeader::kSize);
  if (!VxlanHeader::valid(vx)) return res;

  res.vni = VxlanHeader::decode(vx).vni;
  pkt.buf.pull(kVxlanOverhead);
  pkt.encapsulated = false;
  res.ok = true;
  return res;
}

bool vxlan_splice_decap(Packet& pkt, std::uint32_t expected_vni) {
  if (!pkt.encapsulated) return false;
  auto bytes = pkt.buf.data();
  if (bytes.size() < kVxlanOverhead) return false;
  auto vx = bytes.subspan(EthernetHeader::kSize + Ipv4Header::kSize +
                          UdpHeader::kSize);
  if (!VxlanHeader::valid(vx) || VxlanHeader::decode(vx).vni != expected_vni)
    return false;
  pkt.buf.pull(kVxlanOverhead);
  pkt.encapsulated = false;
  return true;
}

Ipv4Header peek_ipv4(const Packet& pkt) {
  auto bytes = pkt.buf.data();
  assert(bytes.size() >= EthernetHeader::kSize + Ipv4Header::kSize);
  return Ipv4Header::decode(bytes.subspan(EthernetHeader::kSize));
}

}  // namespace mflow::net
