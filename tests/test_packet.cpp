// Packet construction, headroom management, VXLAN encap/decap round trips.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/packet.hpp"
#include "rt/engine.hpp"

using namespace mflow::net;

namespace {
FlowKey tcp_flow() {
  return FlowKey{Ipv4Addr(10, 0, 1, 2), Ipv4Addr(10, 0, 1, 3), 40000, 5001,
                 Ipv4Header::kProtoTcp};
}
FlowKey udp_flow() {
  return FlowKey{Ipv4Addr(10, 0, 1, 2), Ipv4Addr(10, 0, 1, 3), 41000, 5002,
                 Ipv4Header::kProtoUdp};
}
}  // namespace

TEST(PacketBuffer, PushPullSymmetry) {
  PacketBuffer buf(16);
  auto tail = buf.append(4);
  tail[0] = 0xAA;
  auto head = buf.push(2);
  head[0] = 0xBB;
  EXPECT_EQ(buf.size(), 6u);
  EXPECT_EQ(buf.data()[0], 0xBB);
  EXPECT_EQ(buf.data()[2], 0xAA);
  buf.pull(2);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.data()[0], 0xAA);
  EXPECT_EQ(buf.headroom(), 16u);
}

TEST(Packet, TcpSegmentLayout) {
  auto pkt = make_tcp_segment(tcp_flow(), 1'000'000'000'000ull, 1448);
  // Headers only in the buffer; payload is virtual.
  EXPECT_EQ(pkt->buf.size(),
            EthernetHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize);
  EXPECT_EQ(pkt->payload_len, 1448u);
  EXPECT_EQ(pkt->wire_len(), 54u + 1448u);

  const auto bytes = pkt->buf.data();
  const auto eth = EthernetHeader::decode(bytes);
  EXPECT_EQ(eth.ethertype, EthernetHeader::kEtherTypeIpv4);
  const auto l3 = bytes.subspan(EthernetHeader::kSize);
  EXPECT_TRUE(Ipv4Header::verify(l3));
  const auto ip = Ipv4Header::decode(l3);
  EXPECT_EQ(ip.protocol, Ipv4Header::kProtoTcp);
  EXPECT_EQ(ip.total_length, Ipv4Header::kSize + TcpHeader::kSize + 1448);
  const auto tcp = TcpHeader::decode(l3.subspan(Ipv4Header::kSize));
  EXPECT_EQ(tcp.src_port, 40000);
  EXPECT_EQ(tcp.dst_port, 5001);
  // Wire header carries the low 32 bits of the 64-bit stream offset.
  EXPECT_EQ(tcp.seq, static_cast<std::uint32_t>(1'000'000'000'000ull));
}

TEST(Packet, UdpDatagramLayout) {
  auto pkt = make_udp_datagram(udp_flow(), 512);
  const auto bytes = pkt->buf.data();
  const auto l3 = bytes.subspan(EthernetHeader::kSize);
  ASSERT_TRUE(Ipv4Header::verify(l3));
  const auto udp = UdpHeader::decode(l3.subspan(Ipv4Header::kSize));
  EXPECT_EQ(udp.dst_port, 5002);
  EXPECT_EQ(udp.length, UdpHeader::kSize + 512);
}

TEST(Packet, VxlanEncapDecapRoundTrip) {
  auto pkt = make_tcp_segment(tcp_flow(), 777, 1000);
  const auto inner_before = std::vector<std::uint8_t>(
      pkt->buf.data().begin(), pkt->buf.data().end());

  vxlan_encap(*pkt, Ipv4Addr(192, 168, 1, 2), Ipv4Addr(192, 168, 1, 3), 42);
  EXPECT_TRUE(pkt->encapsulated);
  EXPECT_EQ(pkt->buf.size(), inner_before.size() + kVxlanOverhead);

  // Outer headers are well-formed.
  const auto outer = peek_ipv4(*pkt);
  EXPECT_EQ(outer.protocol, Ipv4Header::kProtoUdp);
  EXPECT_EQ(outer.src, Ipv4Addr(192, 168, 1, 2));
  EXPECT_EQ(outer.dst, Ipv4Addr(192, 168, 1, 3));

  const auto res = vxlan_decap(*pkt);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.vni, 42u);
  EXPECT_FALSE(pkt->encapsulated);
  const auto inner_after = std::vector<std::uint8_t>(
      pkt->buf.data().begin(), pkt->buf.data().end());
  EXPECT_EQ(inner_after, inner_before);  // byte-exact restoration
}

TEST(Packet, DecapRejectsNonEncapsulated) {
  auto pkt = make_tcp_segment(tcp_flow(), 0, 100);
  EXPECT_FALSE(vxlan_decap(*pkt).ok);
}

TEST(Packet, DecapRejectsCorruptedOuter) {
  auto pkt = make_udp_datagram(udp_flow(), 100);
  vxlan_encap(*pkt, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 7);
  // Corrupt the outer IP checksum region.
  pkt->buf.data()[EthernetHeader::kSize + 8] ^= 0xFF;
  EXPECT_FALSE(vxlan_decap(*pkt).ok);
}

TEST(Packet, OuterUdpSourcePortHasFlowEntropy) {
  auto a = make_tcp_segment(tcp_flow(), 0, 100);
  FlowKey other = tcp_flow();
  other.src_port = 40001;
  auto b = make_tcp_segment(other, 0, 100);
  vxlan_encap(*a, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 7);
  vxlan_encap(*b, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 7);
  const auto pa = UdpHeader::decode(a->buf.data().subspan(
      EthernetHeader::kSize + Ipv4Header::kSize));
  const auto pb = UdpHeader::decode(b->buf.data().subspan(
      EthernetHeader::kSize + Ipv4Header::kSize));
  EXPECT_EQ(pa.dst_port, VxlanHeader::kUdpPort);
  EXPECT_NE(pa.src_port, pb.src_port);  // RFC 7348 entropy
  EXPECT_GE(pa.src_port, 0xC000);      // ephemeral range
}

namespace {

/// The rt overlay generator's inner flow for flow index `fidx`.
FlowKey overlay_flow(std::uint64_t fidx) {
  return FlowKey{Ipv4Addr(10, 0, 1, 2), Ipv4Addr(10, 0, 1, 3),
                 static_cast<std::uint16_t>(40000 + (fidx & 0x3FFF)), 5000,
                 Ipv4Header::kProtoUdp};
}

/// The per-packet build the overlay template replaces.
PacketPtr overlay_reference(std::uint64_t fidx, std::uint64_t batch,
                            std::uint64_t seq) {
  auto pkt = make_udp_datagram(overlay_flow(fidx), kTcpMss);
  vxlan_encap(*pkt, Ipv4Addr(192, 168, 1, 2), Ipv4Addr(192, 168, 1, 3), 42);
  pkt->flow_id = fidx + 1;
  pkt->microflow_id = batch;
  pkt->wire_seq = seq;
  return pkt;
}

/// Bytes, headroom and every metadata field.
bool same_packet(const Packet& a, const Packet& b) {
  const auto x = a.buf.data();
  const auto y = b.buf.data();
  return std::equal(x.begin(), x.end(), y.begin(), y.end()) &&
         a.buf.headroom() == b.buf.headroom() &&
         a.payload_len == b.payload_len && a.flow == b.flow &&
         a.flow_id == b.flow_id && a.encapsulated == b.encapsulated &&
         a.wire_seq == b.wire_seq && a.tcp_seq == b.tcp_seq &&
         a.message_id == b.message_id &&
         a.message_bytes == b.message_bytes &&
         a.skb_allocated == b.skb_allocated && a.t_wire == b.t_wire &&
         a.gro_segs == b.gro_segs && a.microflow_id == b.microflow_id;
}

}  // namespace

// Copy-assigning a header template over a dirty recycled slab reproduces a
// fresh build exactly, without reallocating the slab's buffer. Flow indices
// on both sides of the 0x3FFF source-port wrap share header bytes but not
// flow ids.
TEST(Packet, TemplateCopyMatchesFreshBuild) {
  for (const std::uint64_t fidx : {0ull, 1ull, 0x3FFEull, 0x3FFFull,
                                   0x4000ull, 0x4001ull}) {
    const auto tmpl = overlay_reference(fidx, 7, 0);
    auto slab = make_tcp_segment(tcp_flow(), 99, 10);
    vxlan_encap(*slab, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 9);
    ASSERT_TRUE(vxlan_decap(*slab).ok);
    slab->gro_segs = 3;
    slab->t_wire = 5;
    slab->skb_allocated = true;
    slab->message_id = 9;
    slab->message_bytes = 4096;
    const std::size_t capacity = slab->buf.capacity();
    *slab = *tmpl;
    slab->wire_seq = 11;
    EXPECT_TRUE(same_packet(*slab, *overlay_reference(fidx, 7, 11)))
        << "flow index " << fidx;
    EXPECT_EQ(slab->buf.capacity(), capacity) << "flow index " << fidx;
  }
  const auto below = overlay_reference(0, 1, 0);
  const auto above = overlay_reference(0x4000, 1, 0);
  EXPECT_TRUE(std::equal(below->buf.data().begin(), below->buf.data().end(),
                         above->buf.data().begin(), above->buf.data().end()));
  EXPECT_NE(below->flow_id, above->flow_id);
}

// End to end through the rt engine: every packet its generator stamps from
// a micro-flow template decapsulates (full validation, no cache) to exactly
// the packet the per-packet build gives, for flow indices across the
// source-port wrap (one-packet batches, so batch b carries flow b % flows).
TEST(Packet, RtOverlayStampsMatchPerPacketBuild) {
  mflow::rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 1;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;
  cfg.overlay.enabled = true;
  cfg.overlay.flows = 0x4000 + 2;
  constexpr std::uint64_t kTotal = 0x4000 + 8;
  std::uint64_t mismatched = 0, wrapped = 0;
  const auto res = mflow::rt::Engine(cfg).run(
      kTotal, [&](const mflow::rt::RtPacket& p) {
        const std::uint64_t fidx = p.batch % cfg.overlay.flows;
        auto want = overlay_reference(fidx, p.batch, p.seq);
        if (!vxlan_decap(*want).ok || !p.skb || !same_packet(*p.skb, *want))
          ++mismatched;
        wrapped += fidx >= 0x4000;
      });
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, kTotal);
  EXPECT_EQ(res.decap_failures, 0u);
  EXPECT_EQ(mismatched, 0u);
  EXPECT_EQ(wrapped, 2u);
}

TEST(Packet, MssConstantsConsistent) {
  EXPECT_EQ(kVxlanOverhead, 50u);
  EXPECT_EQ(kTcpMss, 1500u - 20u - 20u);
}
