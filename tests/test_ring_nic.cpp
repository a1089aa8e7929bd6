#include <gtest/gtest.h>

#include "net/nic.hpp"

using namespace mflow::net;

namespace {
PacketPtr pkt(std::uint16_t sport, FlowId id = 1) {
  auto p = make_udp_datagram(
      FlowKey{Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), sport, 5000,
              Ipv4Header::kProtoUdp},
      100);
  p->flow_id = id;
  return p;
}
}  // namespace

TEST(RxRing, FifoOrder) {
  RxRing ring(8);
  for (std::uint16_t i = 0; i < 5; ++i) ring.push(pkt(i));
  for (std::uint16_t i = 0; i < 5; ++i) {
    auto p = ring.pop();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->flow.src_port, i);
  }
  EXPECT_EQ(ring.pop(), nullptr);
}

TEST(RxRing, DropsWhenFull) {
  RxRing ring(4);
  for (int i = 0; i < 6; ++i) ring.push(pkt(0));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.drops(), 2u);
  EXPECT_EQ(ring.total_enqueued(), 4u);
  EXPECT_TRUE(ring.full());
}

TEST(RxRing, WrapAround) {
  RxRing ring(3);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(ring.push(pkt(static_cast<std::uint16_t>(round))));
    auto p = ring.pop();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->flow.src_port, round);
  }
  EXPECT_EQ(ring.drops(), 0u);
}

TEST(RxRing, PeekSeesPopOrderAcrossTheWrap) {
  RxRing ring(4);
  std::uint16_t next_push = 0;
  std::uint16_t next_pop = 0;
  for (int round = 0; round < 9; ++round) {
    while (!ring.full()) ASSERT_TRUE(ring.push(pkt(next_push++)));
    for (std::size_t i = 0; i < ring.size(); ++i)
      EXPECT_EQ(ring.peek(i).flow.src_port, next_pop + i) << round;
    // Pop one to three, so the head lands on every slot.
    for (int k = 0; k <= round % 3; ++k)
      EXPECT_EQ(ring.pop()->flow.src_port, next_pop++);
  }
  EXPECT_EQ(ring.drops(), 0u);
}

TEST(Nic, StampsPerFlowWireSeq) {
  Nic nic(NicParams{.num_queues = 1});
  nic.deliver(pkt(1, 7), 100);
  nic.deliver(pkt(1, 7), 200);
  nic.deliver(pkt(2, 8), 300);
  auto a = nic.queue(0).pop();
  auto b = nic.queue(0).pop();
  auto c = nic.queue(0).pop();
  EXPECT_EQ(a->wire_seq, 0u);
  EXPECT_EQ(a->t_wire, 100);
  EXPECT_EQ(b->wire_seq, 1u);   // same flow: increments
  EXPECT_EQ(c->wire_seq, 0u);   // different flow: independent counter
}

TEST(Nic, RssPinsFlowToOneQueue) {
  Nic nic(NicParams{.num_queues = 8});
  const int q = nic.rss_queue(pkt(42)->flow);
  for (int i = 0; i < 50; ++i) nic.deliver(pkt(42), i);
  EXPECT_EQ(nic.queue(q).size(), 50u);
  for (int i = 0; i < 8; ++i)
    if (i != q) EXPECT_EQ(nic.queue(i).size(), 0u);
}

TEST(Nic, RssSpreadsDistinctFlows) {
  Nic nic(NicParams{.num_queues = 8});
  std::set<int> used;
  for (std::uint16_t i = 0; i < 64; ++i)
    used.insert(nic.rss_queue(pkt(i)->flow));
  EXPECT_EQ(used.size(), 8u);
}

/// Counts the IRQs a NIC signals.
struct CountingIrqLine final : IrqLine {
  int irqs = 0;
  int last_q = -1;
  void irq(int q) override {
    ++irqs;
    last_q = q;
  }
};

TEST(Nic, IrqFiresPerDelivery) {
  Nic nic(NicParams{.num_queues = 2});
  CountingIrqLine line;
  nic.set_irq_line(&line);
  auto p = pkt(3);
  const int expect_q = nic.rss_queue(p->flow);
  nic.deliver(std::move(p), 1);
  EXPECT_EQ(line.irqs, 1);
  EXPECT_EQ(line.last_q, expect_q);
}

TEST(Nic, NoIrqOnRingOverflowDrop) {
  Nic nic(NicParams{.num_queues = 1, .ring_capacity = 2});
  CountingIrqLine line;
  nic.set_irq_line(&line);
  for (int i = 0; i < 5; ++i) nic.deliver(pkt(0), i);
  EXPECT_EQ(line.irqs, 2);
  EXPECT_EQ(nic.total_drops(), 3u);
  EXPECT_EQ(nic.total_delivered(), 2u);
}

// receive() is deliver() without the signal: it reports the queue it
// filled, or -1 when the ring dropped the packet.
TEST(Nic, ReceiveSkipsTheIrqAndReportsTheQueue) {
  Nic nic(NicParams{.num_queues = 2, .ring_capacity = 1});
  CountingIrqLine line;
  nic.set_irq_line(&line);
  auto p = pkt(3);
  const int expect_q = nic.rss_queue(p->flow);
  EXPECT_EQ(nic.receive(std::move(p), 1), expect_q);
  EXPECT_EQ(nic.receive(pkt(3), 2), -1);  // ring full
  EXPECT_EQ(line.irqs, 0);
  EXPECT_EQ(nic.total_delivered(), 1u);
  EXPECT_EQ(nic.total_drops(), 1u);
}

// The last-flow memo holds the RSS queue as well as the wire counter. It is
// keyed on the tuple too: a FlowId reused with another tuple must hash to
// that tuple's queue while its wire counter carries on.
TEST(Nic, ReusedFlowIdWithNewTupleHashesItsOwnTuple) {
  Nic nic(NicParams{.num_queues = 8});
  std::uint16_t other = 1;
  while (nic.rss_queue(pkt(other)->flow) == nic.rss_queue(pkt(0)->flow))
    ++other;
  const int q0 = nic.rss_queue(pkt(0)->flow);
  const int q1 = nic.rss_queue(pkt(other)->flow);
  nic.deliver(pkt(0, 9), 1);
  nic.deliver(pkt(0, 9), 2);
  nic.deliver(pkt(other, 9), 3);
  nic.deliver(pkt(0, 9), 4);
  ASSERT_EQ(nic.queue(q0).size(), 3u);
  ASSERT_EQ(nic.queue(q1).size(), 1u);
  EXPECT_EQ(nic.queue(q1).pop()->wire_seq, 2u);
  for (std::uint64_t seq : {0u, 1u, 3u})
    EXPECT_EQ(nic.queue(q0).pop()->wire_seq, seq);
}
