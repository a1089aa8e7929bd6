// Detailed sender host (TX pipeline) and sender-side MFLOW.
#include <gtest/gtest.h>

#include "overlay/topology.hpp"
#include "steering/modes.hpp"
#include "workload/txhost.hpp"

using namespace mflow;

namespace {

struct TxRig {
  sim::Simulator sim{9};
  stack::Machine rx;
  workload::WireLink wire;
  std::unique_ptr<workload::TxHost> tx;

  explicit TxRig(bool mflow_tx, sim::Time pace = 0)
      : rx(sim, rx_params()), wire(sim, rx, stack::CostModel{}.wire_latency) {
    overlay::PathSpec spec;
    spec.protocol = net::Ipv4Header::kProtoUdp;
    rx.set_path(overlay::build_rx_path(rx.costs(), spec));
    rx.set_steering(steer::make_policy(exp::Mode::kVanilla));
    stack::SocketConfig sc;
    sc.protocol = net::Ipv4Header::kProtoUdp;
    rx.add_socket(5000, sc);
    rx.start();

    workload::TxHost::Config tc;
    tc.mflow_tx = mflow_tx;
    tc.pace_per_message = pace;
    tc.message_size = 65536;
    tc.flow = net::FlowKey{net::Ipv4Addr(10, 0, 1, 2),
                           net::Ipv4Addr(10, 0, 1, 3), 41000, 5000,
                           net::Ipv4Header::kProtoUdp};
    tc.outer_src = net::Ipv4Addr(192, 168, 1, 2);
    tc.outer_dst = net::Ipv4Addr(192, 168, 1, 3);
    tx = std::make_unique<workload::TxHost>(sim, tc, wire);
    tx->start();
  }

  static stack::MachineParams rx_params() {
    stack::MachineParams mp;
    mp.num_cores = 4;
    return mp;
  }
};

}  // namespace

TEST(TxHost, PacketsArriveEncapsulatedAndDeliverable) {
  TxRig rig(/*mflow_tx=*/false, sim::us(500));
  rig.sim.run_until(sim::ms(10));
  const auto& st = rig.rx.socket(5000).stats();
  // Paced at 2k msg/s for 10ms -> ~20 messages of 64KB made it end to end,
  // meaning every fragment survived real encap on TX and real decap on RX.
  EXPECT_GE(st.messages, 15u);
  // Delivered bytes cover all completed messages.
  EXPECT_GE(st.payload_bytes, st.messages * 65536u);
  EXPECT_GT(rig.tx->packets_on_wire(), 600u);
}

TEST(TxHost, TxPathRunsOnAppCoreByDefault) {
  TxRig rig(false, sim::us(500));
  rig.sim.run_until(sim::ms(5));
  auto& app_core = rig.tx->machine().core(0);
  EXPECT_GT(app_core.busy_ns(sim::Tag::kVxlan), 0);  // encap on app core
  EXPECT_EQ(rig.tx->machine().core(1).total_busy_ns(), 0);
}

TEST(TxHost, MflowTxSplitsEncapAcrossCores) {
  TxRig rig(/*mflow_tx=*/true, sim::us(200));
  rig.sim.run_until(sim::ms(10));
  auto& m = rig.tx->machine();
  EXPECT_EQ(m.core(0).busy_ns(sim::Tag::kVxlan), 0);  // app core: no encap
  EXPECT_GT(m.core(1).busy_ns(sim::Tag::kVxlan), 0);
  EXPECT_GT(m.core(2).busy_ns(sim::Tag::kVxlan), 0);
  EXPECT_GT(m.core(3).busy_ns(sim::Tag::kMerge), 0);  // wire drain merges
}

TEST(TxHost, MflowTxLosesNothing) {
  TxRig rig(true, sim::us(200));
  rig.sim.run_until(sim::ms(10));
  // Everything generated reaches the wire (merge never wedges)...
  const auto frags_per_msg = (65536 + 1460 - 1) / 1460;
  EXPECT_GE(rig.tx->packets_on_wire(),
            (rig.tx->messages_generated() - 1) * frags_per_msg);
  // ...and completes at the receiver.
  EXPECT_GE(rig.rx.socket(5000).stats().messages,
            rig.tx->messages_generated() - 2);
}

TEST(TxHost, MflowTxRaisesSaturatedThroughput) {
  // Measure at the wire: the test receiver (vanilla, single RX core) is
  // deliberately NOT the bottleneck metric here.
  TxRig single(false);  // unpaced: saturate
  single.sim.run_until(sim::ms(10));
  TxRig split(true);
  split.sim.run_until(sim::ms(10));
  EXPECT_GT(split.tx->packets_on_wire(),
            static_cast<std::uint64_t>(
                static_cast<double>(single.tx->packets_on_wire()) * 1.5));
}

TEST(TxStages, EncapStageProducesValidOuter) {
  sim::Simulator sim;
  stack::MachineParams mp;
  mp.num_cores = 2;
  stack::Machine m(sim, mp);
  m.set_path(stack::build_tx_path(m.costs(), net::Ipv4Addr(1, 1, 1, 1),
                                  net::Ipv4Addr(2, 2, 2, 2), 99));
  m.set_steering(steer::make_policy(exp::Mode::kVanilla));
  net::PacketPtr seen;
  m.set_terminal([&](net::PacketPtr p, int) { seen = std::move(p); });

  auto pkt = net::make_udp_datagram(
      net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                   41000, 5000, net::Ipv4Header::kProtoUdp},
      100);
  // Inject directly into the TX path as the app would.
  sim.at(0, [&] {
    stack::TransitionMemo fresh;
    m.inject_into_path(0, 0, std::move(pkt), fresh);
  });
  sim.run();
  ASSERT_TRUE(seen);
  EXPECT_TRUE(seen->encapsulated);
  const auto res = net::vxlan_decap(*seen);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.vni, 99u);
}
