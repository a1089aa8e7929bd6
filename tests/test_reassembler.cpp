// Batch-based flow reassembling — the paper's core ordering invariant:
// for ANY batch size, core count, and deposit interleaving, the merged
// stream equals the original flow order with no loss and no duplication.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/reassembler.hpp"
#include "util/rng.hpp"

using namespace mflow;
using mflowcore_Reassembler = core::Reassembler;

namespace {

net::PacketPtr mk(net::FlowId flow, std::uint64_t wire_seq,
                  std::uint64_t microflow, std::uint32_t segs = 1) {
  auto p = net::make_udp_datagram(
      net::FlowKey{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1,
                   2, net::Ipv4Header::kProtoUdp},
      100);
  p->flow_id = flow;
  p->wire_seq = wire_seq;
  p->microflow_id = microflow;
  p->gro_segs = segs;
  return p;
}

}  // namespace

TEST(Reassembler, PassthroughForUnsplitTraffic) {
  stack::CostModel costs;
  core::Reassembler ra(costs);
  ra.deposit(mk(1, 0, /*microflow=*/0), 2);
  ra.deposit(mk(1, 1, 0), 3);
  EXPECT_TRUE(ra.pop_ready_available());
  auto a = ra.pop_ready();
  auto b = ra.pop_ready();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->wire_seq, 0u);
  EXPECT_EQ(b->wire_seq, 1u);
  EXPECT_EQ(ra.pop_ready(), nullptr);
}

TEST(Reassembler, InBatchPacketsConsumableImmediately) {
  stack::CostModel costs;
  core::Reassembler ra(costs);
  ra.note_batch_open(1, 1);
  ra.note_dispatch(1, 1, 1);
  ra.deposit(mk(1, 0, 1), 2);
  // Batch 1 still open — but its deposited packets are consumable.
  EXPECT_TRUE(ra.pop_ready_available());
  EXPECT_NE(ra.pop_ready(), nullptr);
  EXPECT_FALSE(ra.pop_ready_available());
}

TEST(Reassembler, HoldsLaterBatchUntilEarlierComplete) {
  stack::CostModel costs;
  core::Reassembler ra(costs);
  // Batch 1 (2 pkts) to core A; batch 2 opened, to core B.
  ra.note_batch_open(1, 1);
  ra.note_dispatch(1, 1, 1);
  ra.note_dispatch(1, 1, 1);
  ra.note_batch_open(1, 2);
  ra.note_dispatch(1, 2, 1);
  // Batch 2's packet arrives first (core B was faster).
  ra.deposit(mk(1, 2, 2), 3);
  EXPECT_FALSE(ra.pop_ready_available());
  EXPECT_TRUE(ra.has_buffered());
  // Batch 1 arrives; everything drains in wire order.
  ra.deposit(mk(1, 0, 1), 2);
  ra.deposit(mk(1, 1, 1), 2);
  std::vector<std::uint64_t> order;
  while (auto p = ra.pop_ready()) order.push_back(p->wire_seq);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(ra.batches_merged(), 1u);  // advanced past batch 1
  EXPECT_EQ(ra.ooo_arrivals(), 2u);    // wire 0 and 1 arrived after wire 2
}

TEST(Reassembler, GroSegsCountTowardBatchCompletion) {
  stack::CostModel costs;
  core::Reassembler ra(costs);
  ra.note_batch_open(1, 1);
  for (int i = 0; i < 4; ++i) ra.note_dispatch(1, 1, 1);
  ra.note_batch_open(1, 2);
  ra.note_dispatch(1, 2, 1);
  ra.deposit(mk(1, 4, 2), 3);
  // One super-skb carrying all 4 segments of batch 1 (GRO after split).
  ra.deposit(mk(1, 0, 1, /*segs=*/4), 2);
  auto a = ra.pop_ready();
  ASSERT_TRUE(a);
  EXPECT_EQ(a->microflow_id, 1u);
  auto b = ra.pop_ready();
  ASSERT_TRUE(b);
  EXPECT_EQ(b->microflow_id, 2u);
}

TEST(Reassembler, NoteDropUnblocksMerging) {
  stack::CostModel costs;
  core::Reassembler ra(costs);
  ra.note_batch_open(1, 1);
  ra.note_dispatch(1, 1, 1);
  ra.note_dispatch(1, 1, 1);  // this one will be lost in flight
  ra.note_batch_open(1, 2);
  ra.note_dispatch(1, 2, 1);
  ra.deposit(mk(1, 0, 1), 2);
  ra.deposit(mk(1, 2, 2), 3);
  EXPECT_NE(ra.pop_ready(), nullptr);   // batch-1 packet
  EXPECT_EQ(ra.pop_ready(), nullptr);   // batch 1 looks incomplete
  ra.note_drop(1, 1, 1);                // splitter retracts the lost packet
  auto p = ra.pop_ready();
  ASSERT_TRUE(p);
  EXPECT_EQ(p->microflow_id, 2u);
}

// A run-granular dispatch notes a whole run before its first packet is
// pushed. A drop inside the run passes the segments still behind it as
// `ahead`, and must retract exactly what it would after per-packet notes,
// even when a duplicate has pushed the batch's consumed count past what
// was dispatched.
TEST(Reassembler, DropInsideNotedRunRetractsLikePerPacket) {
  stack::CostModel costs;
  auto with_duplicate_consumed = [&costs] {
    auto ra = std::make_unique<core::Reassembler>(costs);
    ra->note_batch_open(1, 1);
    ra->note_dispatch(1, 1, 2);
    ra->deposit(mk(1, 0, 1), 2);
    ra->deposit(mk(1, 0, 1), 2);  // the duplicate
    ra->deposit(mk(1, 1, 1), 2);
    while (ra->pop_ready() != nullptr) {
    }
    return ra;
  };
  // Per packet: dispatch, drop (the batch already reads complete, so
  // nothing is retracted), dispatch.
  auto per_packet = with_duplicate_consumed();
  per_packet->note_dispatch(1, 1, 1);
  per_packet->note_drop(1, 1, 1);
  per_packet->note_dispatch(1, 1, 1);
  // Run of two: both noted first; the drop has one packet behind it.
  auto run = with_duplicate_consumed();
  run->note_dispatch(1, 1, 2);
  run->note_drop(1, 1, 1, /*ahead=*/1);
  EXPECT_EQ(per_packet->drops_recovered(), 0u);
  EXPECT_EQ(run->drops_recovered(), per_packet->drops_recovered());
  EXPECT_EQ(run->segs_dispatched(), per_packet->segs_dispatched());
}

TEST(Reassembler, ChargesPerSkbAndPerBatch) {
  stack::CostModel costs;
  core::Reassembler ra(costs);
  ra.note_batch_open(1, 1);
  ra.note_dispatch(1, 1, 1);
  ra.note_batch_open(1, 2);
  ra.note_dispatch(1, 2, 1);
  ra.deposit(mk(1, 0, 1), 2);
  ra.deposit(mk(1, 1, 2), 3);
  (void)ra.pop_ready();
  EXPECT_EQ(ra.take_pending_charge(), costs.mflow_merge_per_skb);
  (void)ra.pop_ready();
  // Advancing to batch 2 adds the per-batch charge.
  EXPECT_EQ(ra.take_pending_charge(),
            costs.mflow_merge_per_batch + costs.mflow_merge_per_skb);
  EXPECT_EQ(ra.take_pending_charge(), 0);
}

TEST(Reassembler, MultipleFlowsRoundRobin) {
  stack::CostModel costs;
  core::Reassembler ra(costs);
  for (net::FlowId f : {1ull, 2ull}) {
    ra.note_batch_open(f, 1);
    for (int i = 0; i < 3; ++i) ra.note_dispatch(f, 1, 1);
    for (int i = 0; i < 3; ++i)
      ra.deposit(mk(f, static_cast<std::uint64_t>(i), 1), 2);
  }
  int flow1 = 0, flow2 = 0;
  while (auto p = ra.pop_ready()) (p->flow_id == 1 ? flow1 : flow2)++;
  EXPECT_EQ(flow1, 3);
  EXPECT_EQ(flow2, 3);
}

// ---- property test: random interleavings -----------------------------------

struct ReassemblyParams {
  std::uint32_t batch_size;
  int cores;
  std::uint64_t seed;
};

class ReassemblerProperty
    : public ::testing::TestWithParam<ReassemblyParams> {};

TEST_P(ReassemblerProperty, AnyInterleavingMergesToOriginalOrder) {
  const auto param = GetParam();
  stack::CostModel costs;
  core::Reassembler ra(costs);
  util::Rng rng(param.seed);

  // Simulate a splitter: 1000 packets, batches round-robin over cores.
  constexpr int kPackets = 1000;
  std::vector<std::vector<net::PacketPtr>> per_core(
      static_cast<std::size_t>(param.cores));
  std::uint64_t batch = 0;
  std::uint32_t in_batch = param.batch_size;  // force new batch at start
  std::size_t core_idx = 0;
  for (int i = 0; i < kPackets; ++i) {
    if (in_batch >= param.batch_size) {
      ++batch;
      in_batch = 0;
      core_idx = (core_idx + 1) % per_core.size();
      ra.note_batch_open(1, batch);
    }
    ++in_batch;
    ra.note_dispatch(1, batch, 1);
    per_core[core_idx].push_back(
        mk(1, static_cast<std::uint64_t>(i), batch));
  }

  // Cores deposit their FIFO queues at random relative speeds, while the
  // reader concurrently drains whatever is ready.
  std::vector<std::uint64_t> merged;
  std::vector<std::size_t> pos(per_core.size(), 0);
  bool remaining = true;
  while (remaining) {
    remaining = false;
    for (std::size_t c = 0; c < per_core.size(); ++c) {
      const std::size_t burst = rng.uniform(8);
      for (std::size_t k = 0; k < burst && pos[c] < per_core[c].size(); ++k)
        ra.deposit(std::move(per_core[c][pos[c]++]), static_cast<int>(c));
      if (pos[c] < per_core[c].size()) remaining = true;
    }
    if (rng.chance(0.7)) {
      while (auto p = ra.pop_ready()) merged.push_back(p->wire_seq);
    }
  }
  while (auto p = ra.pop_ready()) merged.push_back(p->wire_seq);

  // THE invariant: exact original order, no loss, no duplication.
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i)
    ASSERT_EQ(merged[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i))
        << "batch=" << param.batch_size << " cores=" << param.cores;
  EXPECT_FALSE(ra.has_buffered());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReassemblerProperty,
    ::testing::Values(ReassemblyParams{1, 2, 1}, ReassemblyParams{8, 2, 2},
                      ReassemblyParams{64, 2, 3}, ReassemblyParams{256, 2, 4},
                      ReassemblyParams{256, 4, 5}, ReassemblyParams{16, 8, 6},
                      ReassemblyParams{512, 3, 7},
                      ReassemblyParams{1024, 2, 8},
                      ReassemblyParams{3, 5, 9}, ReassemblyParams{7, 7, 10}));
