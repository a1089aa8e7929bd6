// Packet construction, headroom management, VXLAN encap/decap round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "net/packet.hpp"
#include "rt/engine.hpp"
#include "rt/pool.hpp"
#include "stack/machine.hpp"
#include "workload/injector.hpp"
#include "workload/sender.hpp"

using namespace mflow::net;
using mflow::workload::HeaderImages;
using mflow::workload::SenderParams;

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

// The deepest stack any path builds, VXLAN outer + Eth/IPv4/TCP, is 104
// bytes: it uses all 64 bytes of headroom and leaves 24 of tail.
TEST(PacketBuffer, VxlanTcpStackFitsExactly) {
  auto pkt = make_tcp_segment(tcp_flow(), 7, 1448);
  vxlan_encap(*pkt, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 9);
  EXPECT_EQ(pkt->buf.size(), 104u);
  EXPECT_EQ(pkt->buf.headroom(), 0u);
  EXPECT_EQ(pkt->buf.append(PacketBuffer::kCapacity - 104).size(), 24u);
  const auto* block = reinterpret_cast<const std::uint8_t*>(pkt.get());
  EXPECT_EQ(pkt->buf.data().data(), block);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % 64, 0u);
  ASSERT_TRUE(vxlan_decap(*pkt).ok);
  EXPECT_EQ(pkt->buf.headroom(), kVxlanOverhead);
}

// append() hands out zeroed bytes even where a previous packet left its
// bytes behind.
TEST(PacketBuffer, AppendZeroFills) {
  PacketBuffer buf;
  for (auto& b : buf.append(PacketBuffer::kCapacity - buf.headroom()))
    b = 0xEE;
  for (auto& b : buf.push(buf.headroom())) b = 0xDD;
  buf.reset();
  const auto tail = buf.append(40);
  EXPECT_TRUE(std::all_of(tail.begin(), tail.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(buf.size(), 40u);
}

using PacketBufferDeathTest = ::testing::Test;

// Bytes past the inline capacity have nowhere to go: append() and push()
// abort loudly instead of writing past the array or allocating.
TEST(PacketBufferDeathTest, OverlongStackAborts) {
  EXPECT_DEATH(
      {
        PacketBuffer buf;
        buf.append(PacketBuffer::kCapacity - buf.headroom());
        buf.append(1);
      },
      "PacketBuffer: append of 1 bytes with room for 0");
  EXPECT_DEATH(
      {
        PacketBuffer buf(8);
        buf.push(9);
      },
      "PacketBuffer: push of 9 bytes with room for 8");
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
// fresh build exactly, its bytes inside the slab's own block. Flow indices
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
    *slab = *tmpl;
    slab->wire_seq = 11;
    EXPECT_TRUE(same_packet(*slab, *overlay_reference(fidx, 7, 11)))
        << "flow index " << fidx;
    const auto* block = reinterpret_cast<const std::uint8_t*>(slab.get());
    EXPECT_GE(slab->buf.data().data(), block) << "flow index " << fidx;
    EXPECT_LE(slab->buf.data().data() + slab->buf.size(),
              block + sizeof(Packet))
        << "flow index " << fidx;
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

// The generator stamps whole staged chunks, write-prefetching slabs ahead
// of the copy. Batch sizes below, at and around the chunk size, and a
// prime total, give chunks shorter than either prefetch distance and
// partial final micro-flows; recycled slabs carry a worker's decap. Every
// delivered overlay packet equals the per-packet build.
TEST(Packet, RtOverlayChunkStampsMatchPerPacketBuild) {
  constexpr std::uint64_t kTotal = 1031;
  for (const std::uint32_t batch : {1u, 3u, 5u, 9u, 127u, 128u, 129u, 300u}) {
    mflow::rt::EngineConfig cfg;
    cfg.workers = 2;
    cfg.batch_size = batch;
    cfg.ring_capacity = 64;
    cfg.pool_capacity = 512;
    cfg.cost_ns_per_packet = 0;
    cfg.max_push_spins = 0;
    cfg.overlay.enabled = true;
    std::uint64_t mismatched = 0;
    const auto res = mflow::rt::Engine(cfg).run(
        kTotal, [&](const mflow::rt::RtPacket& p) {
          auto want =
              overlay_reference(p.batch % cfg.overlay.flows, p.batch, p.seq);
          if (!vxlan_decap(*want).ok || !p.skb || !same_packet(*p.skb, *want))
            ++mismatched;
        });
    EXPECT_TRUE(res.in_order) << "batch " << batch;
    EXPECT_EQ(res.packets, kTotal) << "batch " << batch;
    EXPECT_EQ(res.decap_failures, 0u) << "batch " << batch;
    EXPECT_EQ(mismatched, 0u) << "batch " << batch;
  }
}

// Plain mode, with and without the NF plane and the churn flow table: the
// chunk stamp sets exactly the fields the per-packet stamp set.
TEST(Packet, RtPlainChunkStampsMatchPerPacketStamp) {
  constexpr std::uint64_t kTotal = 1031;
  constexpr std::uint64_t kFlowLife = 3;
  for (const bool nf : {false, true}) {
    for (const bool churn : {false, true}) {
      for (const std::uint32_t batch :
           {1u, 3u, 5u, 9u, 127u, 128u, 129u, 300u}) {
        mflow::rt::EngineConfig cfg;
        cfg.workers = 2;
        cfg.batch_size = batch;
        cfg.ring_capacity = 64;
        cfg.pool_capacity = 512;
        cfg.cost_ns_per_packet = 0;
        cfg.max_push_spins = 0;
        cfg.nf.enabled = nf;
        cfg.nf.chain.chain = {mflow::nf::Kind::kFirewall};
        cfg.flow_table.enabled = churn;
        cfg.flow_table.flow_lifetime_batches = kFlowLife;
        std::uint64_t mismatched = 0;
        const auto res = mflow::rt::Engine(cfg).run(
            kTotal, [&](const mflow::rt::RtPacket& p) {
              const FlowId fid = churn ? p.batch / kFlowLife + 1 : p.batch;
              const FlowKey key = nf ? overlay_flow(fid) : FlowKey{};
              if (!p.skb || p.skb->flow_id != fid ||
                  p.skb->wire_seq != p.seq ||
                  p.skb->microflow_id != p.batch ||
                  p.skb->payload_len != kTcpMss || p.skb->flow != key)
                ++mismatched;
            });
        EXPECT_TRUE(res.in_order) << nf << churn << " batch " << batch;
        EXPECT_EQ(res.packets, kTotal) << nf << churn << " batch " << batch;
        EXPECT_EQ(mismatched, 0u) << nf << churn << " batch " << batch;
      }
    }
  }
}

// ---- sender header images ----------------------------------------------------

namespace {

SenderParams image_params(std::uint8_t proto, bool overlay) {
  SenderParams sp;
  sp.flow = proto == Ipv4Header::kProtoTcp ? tcp_flow() : udp_flow();
  sp.flow_id = 3;
  sp.overlay = overlay;
  sp.outer_src = Ipv4Addr(192, 168, 1, 2);
  sp.outer_dst = Ipv4Addr(192, 168, 1, 3);
  sp.vni = 42;
  return sp;
}

/// The per-packet build the header images replace.
PacketPtr fresh_build(const SenderParams& sp, std::uint32_t len,
                      std::uint64_t tcp_seq, std::uint64_t message_id,
                      std::uint32_t message_bytes) {
  PacketPtr pkt = sp.flow.protocol == Ipv4Header::kProtoTcp
                      ? make_tcp_segment(sp.flow, tcp_seq, len)
                      : make_udp_datagram(sp.flow, len);
  pkt->flow_id = sp.flow_id;
  pkt->message_id = message_id;
  pkt->message_bytes = message_bytes;
  if (sp.overlay) vxlan_encap(*pkt, sp.outer_src, sp.outer_dst, sp.vni);
  return pkt;
}

}  // namespace

// A stamped packet equals a fresh build in every byte and every field,
// headroom included: TCP and UDP, overlay on and off, full-MSS, message-tail
// and 1-byte lengths (in an order that rebuilds the non-MSS image), sequence
// numbers across the 2^32 wrap, and whether it lands in a pool slab, on the
// heap, or on the heap because the pool is exhausted.
TEST(HeaderImages, StampMatchesFreshBuild) {
  enum class Where { kHeap, kSlab, kExhaustedPool };
  constexpr std::uint64_t kWrap = 1ull << 32;
  const std::uint32_t lens[] = {kTcpMss, 65536 % kTcpMss, 1, kTcpMss, 1,
                                65536 % kTcpMss};
  const std::uint64_t seqs[] = {0,         kWrap - kTcpMss, kWrap - 1,
                                kWrap,     kWrap + 7,       5 * kWrap - 100};
  for (const std::uint8_t proto :
       {Ipv4Header::kProtoTcp, Ipv4Header::kProtoUdp}) {
    for (const bool overlay : {true, false}) {
      for (const Where where :
           {Where::kHeap, Where::kSlab, Where::kExhaustedPool}) {
        mflow::rt::PacketPool pool(mflow::rt::PoolConfig{.slabs = 2});
        std::vector<PacketPtr> hogs;
        if (where == Where::kExhaustedPool) {
          hogs.push_back(pool.acquire());
          hogs.push_back(pool.acquire());
        }
        SenderParams sp = image_params(proto, overlay);
        sp.pool = where == Where::kHeap ? nullptr : &pool;
        HeaderImages images(sp);
        std::uint64_t message_id = 0;
        for (const std::uint32_t len : lens) {
          for (const std::uint64_t seq : seqs) {
            const std::uint32_t message_bytes = 60000 + len;
            const PacketPtr got =
                images.stamp(len, seq, message_id, message_bytes);
            const PacketPtr want =
                fresh_build(sp, len, proto == Ipv4Header::kProtoTcp ? seq : 0,
                            message_id, message_bytes);
            const std::string at = std::string(proto == Ipv4Header::kProtoTcp
                                                   ? "tcp"
                                                   : "udp") +
                                   (overlay ? " overlay" : " native") +
                                   " where " +
                                   std::to_string(static_cast<int>(where)) +
                                   " len " + std::to_string(len) + " seq " +
                                   std::to_string(seq);
            EXPECT_TRUE(same_packet(*got, *want)) << at;
            EXPECT_EQ(got.get_deleter().recycler,
                      where == Where::kSlab ? &pool : nullptr)
                << at;
            ++message_id;
          }
        }
      }
    }
  }
}

namespace {

/// A receiver that is never started: the wire's packets stay in its NIC
/// rings, in arrival order, for the test to inspect.
struct WireTap {
  mflow::sim::Simulator sim{1};
  mflow::stack::Machine rx{sim, mflow::stack::MachineParams{}};
  mflow::workload::ClientHost clients{sim, 2, rx.costs()};
  mflow::workload::WireLink wire{sim, rx, rx.costs().wire_latency};

  std::vector<PacketPtr> drain() {
    std::vector<PacketPtr> out;
    for (int q = 0; q < rx.nic().num_queues(); ++q)
      while (PacketPtr p = rx.nic().queue(q).pop()) out.push_back(std::move(p));
    return out;
  }
};

/// Compare what reached the NIC with fresh builds; `next` yields (len,
/// tcp_seq, message_id, message_bytes) of each expected packet in order.
template <class Next>
void expect_fresh_builds(const std::vector<PacketPtr>& got,
                         const SenderParams& sp, Next next) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto [len, seq, id, bytes] = next();
    const PacketPtr want = fresh_build(sp, len, seq, id, bytes);
    want->wire_seq = i;  // the NIC stamps these two on arrival
    want->t_wire = got[i]->t_wire;
    EXPECT_TRUE(same_packet(*got[i], *want)) << "packet " << i;
  }
}

}  // namespace

// End to end: what the TCP sender (into pool slabs), the UDP sender and the
// stream injector put on the wire is exactly the per-packet build.
TEST(HeaderImages, SendersPutFreshBuildsOnTheWire) {
  mflow::rt::PacketPool pool(mflow::rt::PoolConfig{.slabs = 4096});
  {
    WireTap tap;
    SenderParams sp = image_params(Ipv4Header::kProtoTcp, true);
    sp.window_bytes = 200 * kTcpMss;
    sp.pool = &pool;
    mflow::workload::TcpSender tcp(tap.clients, 0, sp, tap.wire);
    tcp.start();
    tap.sim.run_until(mflow::sim::ms(1));
    const auto got = tap.drain();
    ASSERT_GT(got.size(), 100u);
    EXPECT_EQ(got.front().get_deleter().recycler, &pool);
    std::uint64_t off = 0;
    expect_fresh_builds(got, sp, [&] {
      const std::uint64_t msg_off = off % sp.message_size;
      const auto len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(sp.mss, sp.message_size - msg_off));
      const std::tuple next{len, off, off / sp.message_size,
                            sp.message_size};
      off += len;
      return next;
    });
  }
  {
    WireTap tap;
    SenderParams sp = image_params(Ipv4Header::kProtoUdp, true);
    sp.message_size = 4000;
    sp.message_id_start = 5;
    sp.message_id_stride = 3;
    mflow::workload::UdpSender udp(tap.clients, 0, sp, tap.wire);
    udp.start();
    tap.sim.run_until(mflow::sim::us(100));
    const auto got = tap.drain();
    ASSERT_GT(got.size(), 10u);
    std::uint32_t frag = 0;
    std::uint64_t id = sp.message_id_start;
    expect_fresh_builds(got, sp, [&] {
      const std::uint32_t len =
          std::min<std::uint32_t>(sp.mss, sp.message_size - frag);
      const std::tuple next{len, std::uint64_t{0}, id, sp.message_size};
      frag += len;
      if (frag == sp.message_size) {
        frag = 0;
        id += sp.message_id_stride;
      }
      return next;
    });
  }
  {
    WireTap tap;
    const SenderParams sp = image_params(Ipv4Header::kProtoTcp, true);
    mflow::workload::StreamInjector inj(tap.clients, 1, sp, tap.wire);
    const std::vector<std::uint32_t> messages = {3000, 100, 1,   1448,
                                                 40000, 2897, 100};
    for (std::size_t m = 0; m < messages.size(); ++m)
      inj.send_message(m + 10, messages[m]);
    tap.sim.run();
    const auto got = tap.drain();
    std::size_t m = 0;
    std::uint32_t sent = 0;
    std::uint64_t off = 0;
    expect_fresh_builds(got, sp, [&] {
      const std::uint32_t len =
          std::min<std::uint32_t>(sp.mss, messages[m] - sent);
      const std::tuple next{len, off, std::uint64_t{m + 10}, messages[m]};
      off += len;
      sent += len;
      if (sent == messages[m]) {
        sent = 0;
        ++m;
      }
      return next;
    });
    EXPECT_EQ(m, messages.size());
    EXPECT_EQ(off, inj.bytes_sent());
  }
}

TEST(Packet, MssConstantsConsistent) {
  EXPECT_EQ(kVxlanOverhead, 50u);
  EXPECT_EQ(kTcpMss, 1500u - 20u - 20u);
}
