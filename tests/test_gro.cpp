// GRO invariants: payload conservation, order preservation, merge limits.
#include <gtest/gtest.h>

#include <vector>

#include "net/gro.hpp"

using namespace mflow::net;

namespace {

PacketPtr seg(FlowId flow, std::uint64_t seq, std::uint32_t len,
              std::uint64_t msg_id = 0, std::uint64_t microflow = 0) {
  auto p = make_tcp_segment(
      FlowKey{Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2,
              Ipv4Header::kProtoTcp},
      seq, len);
  p->flow_id = flow;
  p->message_id = msg_id;
  p->microflow_id = microflow;
  return p;
}

PacketPtr udp_pkt(FlowId flow) {
  auto p = make_udp_datagram(
      FlowKey{Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2,
              Ipv4Header::kProtoUdp},
      100);
  p->flow_id = flow;
  return p;
}

struct Collector {
  std::vector<PacketPtr> out;
  auto sink() {
    return [this](PacketPtr p) { out.push_back(std::move(p)); };
  }
};

}  // namespace

TEST(Gro, MergesConsecutiveSegments) {
  GroEngine gro({.max_segs = 44});
  Collector c;
  for (int i = 0; i < 10; ++i)
    gro.add(seg(1, static_cast<std::uint64_t>(i) * 1448, 1448), c.sink());
  EXPECT_TRUE(c.out.empty());  // all held
  gro.flush(c.sink());
  ASSERT_EQ(c.out.size(), 1u);
  EXPECT_EQ(c.out[0]->gro_segs, 10u);
  EXPECT_EQ(c.out[0]->payload_len, 14480u);  // payload conserved
  EXPECT_EQ(c.out[0]->tcp_seq, 0u);
  EXPECT_EQ(gro.merged_segments(), 9u);
}

TEST(Gro, UdpPassesThrough) {
  GroEngine gro({});
  Collector c;
  gro.add(udp_pkt(1), c.sink());
  gro.add(udp_pkt(1), c.sink());
  EXPECT_EQ(c.out.size(), 2u);
  EXPECT_EQ(gro.merged_segments(), 0u);
}

TEST(Gro, GapBreaksMerge) {
  GroEngine gro({});
  Collector c;
  gro.add(seg(1, 0, 1448), c.sink());
  gro.add(seg(1, 5000, 1448), c.sink());  // hole: flushes the held skb
  ASSERT_EQ(c.out.size(), 1u);
  EXPECT_EQ(c.out[0]->tcp_seq, 0u);
  gro.flush(c.sink());
  ASSERT_EQ(c.out.size(), 2u);
  EXPECT_EQ(c.out[1]->tcp_seq, 5000u);
  // Emission order preserved flow order.
  EXPECT_LT(c.out[0]->tcp_seq, c.out[1]->tcp_seq);
}

TEST(Gro, MaxSegsCapRespected) {
  GroEngine gro({.max_segs = 4});
  Collector c;
  for (int i = 0; i < 10; ++i)
    gro.add(seg(1, static_cast<std::uint64_t>(i) * 100, 100), c.sink());
  gro.flush(c.sink());
  std::uint32_t total = 0;
  for (const auto& p : c.out) {
    EXPECT_LE(p->gro_segs, 4u);
    total += p->payload_len;
  }
  EXPECT_EQ(total, 1000u);
}

TEST(Gro, MaxBytesCapRespected) {
  GroEngine gro({.max_segs = 100, .max_bytes = 4000});
  Collector c;
  for (int i = 0; i < 5; ++i)
    gro.add(seg(1, static_cast<std::uint64_t>(i) * 1448, 1448), c.sink());
  gro.flush(c.sink());
  for (const auto& p : c.out) EXPECT_LE(p->payload_len, 4000u);
}

TEST(Gro, FlowsDontCrossMerge) {
  GroEngine gro({});
  Collector c;
  gro.add(seg(1, 0, 100), c.sink());
  gro.add(seg(2, 100, 100), c.sink());  // different flow, "consecutive" seq
  gro.flush(c.sink());
  ASSERT_EQ(c.out.size(), 2u);
  EXPECT_EQ(c.out[0]->gro_segs, 1u);
  EXPECT_EQ(c.out[1]->gro_segs, 1u);
}

TEST(Gro, MessageBoundaryFlushes) {
  // PSH-at-message-end semantics: no merging across message ids.
  GroEngine gro({});
  Collector c;
  gro.add(seg(1, 0, 1448, /*msg=*/0), c.sink());
  gro.add(seg(1, 1448, 1448, /*msg=*/1), c.sink());
  gro.flush(c.sink());
  ASSERT_EQ(c.out.size(), 2u);
}

TEST(Gro, MicroflowBoundaryFlushes) {
  // MFLOW batches must not merge across each other: they may be processed
  // on different cores.
  GroEngine gro({});
  Collector c;
  gro.add(seg(1, 0, 1448, 0, /*microflow=*/1), c.sink());
  gro.add(seg(1, 1448, 1448, 0, /*microflow=*/2), c.sink());
  gro.flush(c.sink());
  ASSERT_EQ(c.out.size(), 2u);
}

TEST(Gro, DisabledPassesTcpThrough) {
  GroEngine gro({.enabled = false});
  Collector c;
  gro.add(seg(1, 0, 1448), c.sink());
  gro.add(seg(1, 1448, 1448), c.sink());
  EXPECT_EQ(c.out.size(), 2u);
}

TEST(Gro, FlushDeterministicOrder) {
  GroEngine gro({});
  Collector c;
  gro.add(seg(3, 0, 10), c.sink());
  gro.add(seg(1, 0, 10), c.sink());
  gro.add(seg(2, 0, 10), c.sink());
  gro.flush(c.sink());
  ASSERT_EQ(c.out.size(), 3u);
  EXPECT_EQ(c.out[0]->flow_id, 1u);
  EXPECT_EQ(c.out[1]->flow_id, 2u);
  EXPECT_EQ(c.out[2]->flow_id, 3u);
}
