// BatchAssigner + FlowSplitter: micro-flow identity, round-robin target
// cores, elephant classification, amortized charging.
#include <gtest/gtest.h>

#include <optional>

#include "core/mflow.hpp"
#include "core/splitter.hpp"
#include "overlay/topology.hpp"
#include "steering/modes.hpp"
#include "util/rng.hpp"

using namespace mflow;

TEST(BatchAssigner, BatchesAndRoundRobin) {
  core::MflowConfig cfg;
  cfg.batch_size = 4;
  cfg.splitting_cores = {2, 3};
  core::BatchAssigner a(cfg);

  std::vector<std::uint64_t> ids;
  std::vector<int> cores;
  for (int i = 0; i < 12; ++i) {
    const auto as = a.assign(1, 1);
    ids.push_back(as.microflow_id);
    cores.push_back(as.target_core);
    EXPECT_EQ(as.new_batch, i % 4 == 0);
  }
  // Three batches of four, alternating cores.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(ids[static_cast<size_t>(i)],
              static_cast<std::uint64_t>(i / 4 + 1));
    EXPECT_EQ(cores[static_cast<size_t>(i)],
              cores[static_cast<size_t>((i / 4) * 4)]);
  }
  EXPECT_NE(cores[0], cores[4]);  // consecutive batches on different cores
  EXPECT_EQ(cores[0], cores[8]);  // wraps around two cores
}

TEST(BatchAssigner, ElephantThresholdGates) {
  core::MflowConfig cfg;
  cfg.batch_size = 4;
  cfg.elephant_threshold_pkts = 10;
  core::BatchAssigner a(cfg);
  int mice = 0;
  for (int i = 0; i < 10; ++i)
    if (a.assign(1, 1).microflow_id == 0) ++mice;
  EXPECT_EQ(mice, 10);  // still under threshold
  EXPECT_NE(a.assign(1, 1).microflow_id, 0u);  // now an elephant
  EXPECT_EQ(a.observed(1), 11u);
}

TEST(BatchAssigner, FlowsIndependentAndStaggered) {
  core::MflowConfig cfg;
  cfg.batch_size = 256;
  cfg.splitting_cores = {2, 3, 4, 5};
  core::BatchAssigner a(cfg);
  // Different flows should not all start on the same splitting core.
  std::set<int> first_cores;
  for (net::FlowId f = 1; f <= 8; ++f)
    first_cores.insert(a.assign(f, 1).target_core);
  EXPECT_GT(first_cores.size(), 1u);
}

TEST(BatchAssigner, SegsCountTowardBatchSize) {
  core::MflowConfig cfg;
  cfg.batch_size = 8;
  core::BatchAssigner a(cfg);
  // Two 4-segment super-skbs fill a batch.
  EXPECT_EQ(a.assign(1, 4).microflow_id, 1u);
  EXPECT_EQ(a.assign(1, 4).microflow_id, 1u);
  EXPECT_EQ(a.assign(1, 4).microflow_id, 2u);
}

// --- the run API against one-packet calls ------------------------------------

namespace {

bool same(const core::BatchAssigner::Assignment& x,
          const core::BatchAssigner::Assignment& y) {
  return x.microflow_id == y.microflow_id && x.target_core == y.target_core &&
         x.new_batch == y.new_batch && x.first_split == y.first_split &&
         x.unsplit == y.unsplit && x.prior_segs == y.prior_segs;
}

/// What the run API promises for packet `i` of a run starting with `first`.
core::BatchAssigner::Assignment nth(
    const core::BatchAssigner::Assignment& first, std::uint32_t i) {
  if (i == 0) return first;
  core::BatchAssigner::Assignment a;
  a.microflow_id = first.microflow_id;
  a.target_core = first.target_core;
  return a;
}

std::vector<std::uint64_t> totals_of(const core::BatchAssigner& a) {
  std::vector<control::Controller::FlowTotals> rows;
  a.append_totals(rows);
  std::vector<std::uint64_t> flat;
  for (const auto& r : rows) flat.insert(flat.end(), {r.flow, r.segs, r.bytes});
  return flat;
}

}  // namespace

// Random traffic through two assigners, one fed whole runs through
// assign_run() and one fed single packets through assign(): every packet
// gets the same assignment, and the per-flow counters, first-seen order,
// recency stamps (the expiry order) and capacity evictions stay equal, and
// no run stops before a packet that would have continued it. Runs cross
// elephant thresholds and batch boundaries, degree overrides and erasures
// land between runs, and the table is small enough to evict.
TEST(BatchAssigner, RunApiMatchesOnePacketCalls) {
  constexpr net::FlowId kFlows = 7;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    core::MflowConfig cfg;
    cfg.batch_size = static_cast<std::uint32_t>(rng.uniform_range(1, 24));
    cfg.splitting_cores.clear();
    for (int c = 2, n = static_cast<int>(rng.uniform_range(1, 4)); n > 0;
         ++c, --n)
      cfg.splitting_cores.push_back(c);
    cfg.elephant_threshold_pkts =
        rng.chance(0.25) ? 0 : static_cast<std::uint64_t>(rng.uniform(120));
    cfg.flow_table.shards = rng.chance(0.5) ? 1 : 2;
    cfg.flow_table.capacity = static_cast<std::size_t>(rng.uniform_range(2, 6));
    core::BatchAssigner by_run(cfg);
    core::BatchAssigner by_pkt(cfg);
    std::vector<std::uint32_t> bytes;

    for (int step = 0; step < 400; ++step) {
      const net::FlowId flow = 1 + rng.uniform(kFlows);
      const double what = rng.uniform01();
      if (what < 0.06) {
        const auto degree = static_cast<std::uint32_t>(rng.uniform(5));
        by_run.set_flow_degree(flow, degree);
        by_pkt.set_flow_degree(flow, degree);
      } else if (what < 0.09) {
        ASSERT_EQ(by_run.erase_flow(flow), by_pkt.erase_flow(flow));
      } else {
        const auto pkts = static_cast<std::uint32_t>(rng.uniform_range(1, 60));
        const auto segs = static_cast<std::uint32_t>(
            rng.chance(0.7) ? 1 : rng.uniform_range(0, 4));
        bytes.resize(pkts);
        for (auto& b : bytes) b = static_cast<std::uint32_t>(rng.uniform(9000));
        std::uint32_t at = 0;
        std::optional<core::BatchAssigner::Assignment> cut;
        while (at < pkts) {
          const auto run = by_run.assign_run(
              flow, pkts - at, segs,
              [&bytes, at](std::uint32_t i) { return bytes[at + i]; });
          ASSERT_GE(run.taken, 1u);
          ASSERT_LE(run.taken, pkts - at);
          for (std::uint32_t i = 0; i < run.taken; ++i, ++at) {
            const auto want = by_pkt.assign(flow, segs, bytes[at]);
            ASSERT_TRUE(same(nth(run.first, i), want))
                << "seed " << seed << " step " << step << " packet " << at
                << ": run gives batch " << nth(run.first, i).microflow_id
                << ", one-packet call gives " << want.microflow_id;
            // A run stops only where the next packet differs.
            if (i == 0 && cut) ASSERT_FALSE(same(*cut, want));
          }
          cut = nth(run.first, 1);
        }
      }
      for (net::FlowId f = 1; f <= kFlows; ++f) {
        ASSERT_EQ(by_run.observed(f), by_pkt.observed(f))
            << "seed " << seed << " step " << step << " flow " << f;
        ASSERT_EQ(by_run.last_op(f), by_pkt.last_op(f))
            << "seed " << seed << " step " << step << " flow " << f;
        ASSERT_EQ(by_run.flow_degree(f), by_pkt.flow_degree(f));
      }
      ASSERT_EQ(by_run.tracked_flows(), by_pkt.tracked_flows());
      ASSERT_EQ(totals_of(by_run), totals_of(by_pkt)) << "seed " << seed;
    }
    EXPECT_EQ(by_run.peak_tracked(), by_pkt.peak_tracked());
  }
}

// --- FlowSplitter wired into a machine ---------------------------------------

namespace {

struct SplitRig {
  sim::Simulator sim{1};
  stack::MachineParams mp;
  stack::Machine machine;
  core::MflowConfig cfg;
  std::unique_ptr<core::MflowEngine> engine;

  SplitRig() : machine(sim, make_params()) {
    overlay::PathSpec spec;
    spec.protocol = net::Ipv4Header::kProtoUdp;
    machine.set_path(overlay::build_rx_path(machine.costs(), spec));
    machine.set_steering(steer::make_policy(exp::Mode::kVanilla));
    stack::SocketConfig sc;
    sc.protocol = net::Ipv4Header::kProtoUdp;
    machine.add_socket(5000, sc);
    machine.start();

    cfg = core::udp_device_scaling_config();
    cfg.batch_size = 16;
    engine = std::make_unique<core::MflowEngine>(machine, cfg);
    engine->attach_socket(5000, machine.socket(5000));
    engine->install();
  }

  static stack::MachineParams make_params() {
    stack::MachineParams mp;
    mp.num_cores = 8;
    return mp;
  }

  void deliver(int n) {
    for (int i = 0; i < n; ++i) {
      auto p = net::make_udp_datagram(
          net::FlowKey{net::Ipv4Addr(10, 0, 1, 2),
                       net::Ipv4Addr(10, 0, 1, 3), 41000, 5000,
                       net::Ipv4Header::kProtoUdp},
          1000);
      p->flow_id = 1;
      p->message_id = static_cast<std::uint64_t>(i);
      p->message_bytes = 1000;
      net::vxlan_encap(*p, net::Ipv4Addr(192, 168, 1, 2),
                       net::Ipv4Addr(192, 168, 1, 3), 42);
      machine.nic().deliver(std::move(p), sim.now());
    }
  }
};

}  // namespace

TEST(FlowSplitter, SplitsAcrossConfiguredCores) {
  SplitRig rig;
  rig.deliver(64);
  rig.sim.run();
  // VXLAN work must appear on both splitting cores and NOT on the IRQ core.
  EXPECT_GT(rig.machine.core(2).busy_ns(sim::Tag::kVxlan), 0);
  EXPECT_GT(rig.machine.core(3).busy_ns(sim::Tag::kVxlan), 0);
  EXPECT_EQ(rig.machine.core(1).busy_ns(sim::Tag::kVxlan), 0);
  // All messages delivered despite the split.
  EXPECT_EQ(rig.machine.socket(5000).stats().messages, 64u);
}

TEST(FlowSplitter, AllPacketsDeliveredInWireOrder) {
  SplitRig rig;
  rig.deliver(200);
  rig.sim.run();
  const auto& st = rig.machine.socket(5000).stats();
  EXPECT_EQ(st.messages, 200u);
  EXPECT_EQ(st.skbs, 200u);
  EXPECT_EQ(rig.engine->batches_merged() + 1, (200 + 15) / 16u);
}
