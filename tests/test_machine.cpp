// Machine + stage pipeline integration: packets traverse a real overlay path
// end to end, stages transform real bytes, accounting lands on the right
// cores, steering places stages.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "overlay/topology.hpp"
#include "stack/machine.hpp"
#include "steering/modes.hpp"
#include "steering/policy.hpp"

using namespace mflow;

namespace {

struct Rig {
  sim::Simulator sim{1};
  stack::Machine machine;

  explicit Rig(std::uint8_t proto = net::Ipv4Header::kProtoUdp,
               bool overlay = true, int queues = 1)
      : machine(sim, make_params(queues)) {
    overlay::PathSpec spec;
    spec.overlay = overlay;
    spec.protocol = proto;
    machine.set_path(overlay::build_rx_path(machine.costs(), spec));
    machine.set_steering(steer::make_policy(exp::Mode::kVanilla));
    stack::SocketConfig sc;
    sc.protocol = proto;
    sc.app_core = 0;
    sc.message_size = 1000;
    machine.add_socket(5000, sc);
    machine.start();
  }

  static stack::MachineParams make_params(int queues) {
    stack::MachineParams mp;
    mp.num_cores = 8;
    mp.nic.num_queues = queues;
    return mp;
  }

  void deliver_udp(std::uint32_t len, std::uint64_t msg_id, bool encap) {
    auto p = net::make_udp_datagram(
        net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                     41000, 5000, net::Ipv4Header::kProtoUdp},
        len);
    p->flow_id = 1;
    p->message_id = msg_id;
    p->message_bytes = len;
    if (encap)
      net::vxlan_encap(*p, net::Ipv4Addr(192, 168, 1, 2),
                       net::Ipv4Addr(192, 168, 1, 3), 42);
    machine.nic().deliver(std::move(p), sim.now());
  }
};

}  // namespace

TEST(Machine, UdpPacketTraversesOverlayToApp) {
  Rig rig;
  rig.deliver_udp(1000, 0, /*encap=*/true);
  rig.sim.run();
  const auto& st = rig.machine.socket(5000).stats();
  EXPECT_EQ(st.messages, 1u);
  EXPECT_EQ(st.payload_bytes, 1000u);
  EXPECT_EQ(st.latency.count(), 1u);
}

TEST(Machine, NonEncapsulatedPacketDroppedByVxlan) {
  Rig rig;  // overlay path expects encapsulated traffic
  rig.deliver_udp(1000, 0, /*encap=*/false);
  rig.sim.run();
  EXPECT_EQ(rig.machine.socket(5000).stats().messages, 0u);
}

TEST(Machine, NativePathSkipsOverlayStages) {
  Rig rig(net::Ipv4Header::kProtoUdp, /*overlay=*/false);
  EXPECT_FALSE(rig.machine.has_stage(stack::StageId::kVxlan));
  EXPECT_FALSE(rig.machine.has_stage(stack::StageId::kBridge));
  rig.deliver_udp(1000, 0, /*encap=*/false);
  rig.sim.run();
  EXPECT_EQ(rig.machine.socket(5000).stats().messages, 1u);
}

TEST(Machine, VanillaAccountingLandsOnIrqCore) {
  Rig rig;
  for (int i = 0; i < 10; ++i) rig.deliver_udp(1000, static_cast<std::uint64_t>(i), true);
  rig.sim.run();
  auto& irq_core = rig.machine.core(1);
  EXPECT_GT(irq_core.busy_ns(sim::Tag::kVxlan), 0);
  EXPECT_GT(irq_core.busy_ns(sim::Tag::kDriver), 0);
  EXPECT_GT(irq_core.busy_ns(sim::Tag::kUdpRx), 0);
  // App core only copies.
  auto& app = rig.machine.core(0);
  EXPECT_GT(app.busy_ns(sim::Tag::kCopy), 0);
  EXPECT_EQ(app.busy_ns(sim::Tag::kVxlan), 0);
  // Helper cores untouched under vanilla steering.
  EXPECT_EQ(rig.machine.core(2).total_busy_ns(), 0);
}

TEST(Machine, StageIndexLookup) {
  Rig rig;
  EXPECT_EQ(rig.machine.stage_at(rig.machine.stage_index(
                stack::StageId::kVxlan)).id(),
            stack::StageId::kVxlan);
  EXPECT_THROW(rig.machine.stage_index(stack::StageId::kTcp),
               std::out_of_range);
}

TEST(Machine, DuplicateSocketPortRejected) {
  Rig rig;
  EXPECT_THROW(rig.machine.add_socket(5000, {}), std::invalid_argument);
  EXPECT_THROW(rig.machine.socket(9999), std::out_of_range);
}

TEST(Machine, UnknownPortPacketDropped) {
  Rig rig;
  auto p = net::make_udp_datagram(
      net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                   41000, 6666, net::Ipv4Header::kProtoUdp},
      100);
  net::vxlan_encap(*p, net::Ipv4Addr(192, 168, 1, 2),
                   net::Ipv4Addr(192, 168, 1, 3), 42);
  rig.machine.nic().deliver(std::move(p), 0);
  rig.sim.run();  // must not crash; the packet just vanishes
  EXPECT_EQ(rig.machine.socket(5000).stats().messages, 0u);
}

TEST(Machine, ResetMeasurementZeroes) {
  Rig rig;
  rig.deliver_udp(1000, 0, true);
  rig.sim.run();
  rig.machine.reset_measurement();
  EXPECT_EQ(rig.machine.core(1).total_busy_ns(), 0);
  EXPECT_EQ(rig.machine.socket(5000).stats().messages, 0u);
}

TEST(Machine, FragmentedUdpMessageCompletesOnce) {
  Rig rig;
  // 3000-byte datagram as three fragments of one message.
  for (int i = 0; i < 3; ++i) {
    auto p = net::make_udp_datagram(
        net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                     41000, 5000, net::Ipv4Header::kProtoUdp},
        1000);
    p->flow_id = 1;
    p->message_id = 7;
    p->message_bytes = 3000;
    net::vxlan_encap(*p, net::Ipv4Addr(192, 168, 1, 2),
                     net::Ipv4Addr(192, 168, 1, 3), 42);
    rig.machine.nic().deliver(std::move(p), rig.sim.now());
  }
  rig.sim.run();
  const auto& st = rig.machine.socket(5000).stats();
  EXPECT_EQ(st.messages, 1u);
  EXPECT_EQ(st.payload_bytes, 3000u);
}

TEST(Machine, RpsSteeringMovesInnerStages) {
  sim::Simulator sim(1);
  stack::MachineParams mp;
  mp.num_cores = 8;
  stack::Machine m(sim, mp);
  overlay::PathSpec spec;
  spec.protocol = net::Ipv4Header::kProtoUdp;
  m.set_path(overlay::build_rx_path(m.costs(), spec));
  steer::PolicyParams rps;
  rps.helper_cores = {3};
  rps.rps_hash_cost = m.costs().rps_hash_per_pkt;
  m.set_steering(steer::make_policy(exp::Mode::kRps, rps));
  stack::SocketConfig sc;
  sc.protocol = net::Ipv4Header::kProtoUdp;
  m.add_socket(5000, sc);
  m.start();

  auto p = net::make_udp_datagram(
      net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                   41000, 5000, net::Ipv4Header::kProtoUdp},
      800);
  p->flow_id = 1;
  p->message_bytes = 800;
  net::vxlan_encap(*p, net::Ipv4Addr(192, 168, 1, 2),
                   net::Ipv4Addr(192, 168, 1, 3), 42);
  m.nic().deliver(std::move(p), 0);
  sim.run();
  // VXLAN stayed on the IRQ core; inner IP+UDP ran on core 3.
  EXPECT_GT(m.core(1).busy_ns(sim::Tag::kVxlan), 0);
  EXPECT_EQ(m.core(3).busy_ns(sim::Tag::kVxlan), 0);
  EXPECT_GT(m.core(3).busy_ns(sim::Tag::kUdpRx), 0);
  EXPECT_EQ(m.socket(5000).stats().messages, 1u);
}

// ---- run-granular stage transitions ----------------------------------------
//
// A poll resolves the transition into the next stage once per run of
// same-flow packets (stack::TransitionMemo) and raises the target once per
// run. These hold the memo to what per-packet routing does: placements,
// charges, the one IPI, and the raise after a packet the handoff lost.

namespace {

/// Forwards every packet unchanged at a fixed cost.
class PassStage final : public stack::Stage {
 public:
  explicit PassStage(stack::StageId id) : id_(id) {}
  stack::StageId id() const override { return id_; }
  sim::Tag tag() const override { return sim::Tag::kIpRx; }
  stack::Time cost(const net::Packet&) const override { return 100; }
  void process(net::PacketPtr pkt, stack::StageContext& ctx) override {
    ctx.forward(std::move(pkt));
  }

 private:
  stack::StageId id_;
};

/// Where one packet left the path: the core that ran the last stage.
struct Landing {
  net::FlowId flow;
  std::uint64_t seq;
  int core;
};

/// A machine whose path is `stages` pass stages and whose terminal records
/// landings, fed by one pollable on core 1 that injects a packet script into
/// the path in one poll, through one memo.
struct MemoRig final : sim::Pollable {
  sim::Simulator sim{1};
  stack::Machine machine;
  std::vector<net::PacketPtr> script;
  std::vector<Landing> landed;

  explicit MemoRig(std::vector<stack::StageId> stages)
      : machine(sim, params()) {
    std::vector<std::unique_ptr<stack::Stage>> path;
    for (stack::StageId id : stages)
      path.push_back(std::make_unique<PassStage>(id));
    machine.set_path(std::move(path));
    machine.set_terminal([this](net::PacketPtr p, int from_core) {
      landed.push_back({p->flow_id, p->wire_seq, from_core});
    });
  }

  static stack::MachineParams params() {
    stack::MachineParams mp;
    mp.num_cores = 8;
    return mp;
  }

  void add(const net::FlowKey& key, net::FlowId flow, std::uint64_t seq) {
    net::PacketPtr p = net::make_packet();
    p->flow = key;
    p->flow_id = flow;
    p->wire_seq = seq;
    script.push_back(std::move(p));
  }

  bool poll(sim::Core& core, int) override {
    stack::TransitionMemo memo;
    for (net::PacketPtr& p : script)
      machine.inject_into_path(0, core.id(), std::move(p), memo);
    script.clear();
    return false;
  }

  void run() {
    machine.core(1).raise(*this);
    sim.run();
  }

  stack::Time steer_ns(int core) {
    return machine.core(core).busy_ns(sim::Tag::kSteer);
  }
};

net::FlowKey key_with_port(std::uint16_t src_port) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                      src_port, 5000, net::Ipv4Header::kProtoTcp};
}

}  // namespace

TEST(TransitionMemo, RunToIdleRemoteCoreRaisesOnce) {
  MemoRig rig({stack::StageId::kIp});
  rig.machine.set_steering(std::make_unique<steer::PairedPipelineSteering>(
      std::unordered_map<int, int>{{1, 2}}, stack::StageId::kIp));
  constexpr int kRun = 16;
  for (int i = 0; i < kRun; ++i) rig.add(key_with_port(41000), 7, i);
  rig.run();

  ASSERT_EQ(rig.landed.size(), static_cast<std::size_t>(kRun));
  for (int i = 0; i < kRun; ++i) {
    EXPECT_EQ(rig.landed[i].seq, static_cast<std::uint64_t>(i));  // in order
    EXPECT_EQ(rig.landed[i].core, 2);
  }
  const stack::CostModel& c = rig.machine.costs();
  EXPECT_EQ(rig.steer_ns(1), kRun * c.remote_enqueue + c.ipi_cost);
  EXPECT_EQ(rig.machine.core(2).slices_run(), 1u);
}

TEST(TransitionMemo, InterleavedRpsFlowsLandWherePerPacketRoutingPutsThem) {
  MemoRig rig({stack::StageId::kIp});
  const std::vector<int> targets{2, 3, 4, 5};
  const stack::Time hash = rig.machine.costs().rps_hash_per_pkt;
  rig.machine.set_steering(std::make_unique<steer::RpsSteering>(
      targets, stack::StageId::kIp, hash));
  steer::RpsSteering reference(targets, stack::StageId::kIp, hash);

  // Two flows that RPS hashes to different cores.
  const net::FlowKey a = key_with_port(41000);
  net::Packet probe;
  probe.flow = a;
  const int core_a = reference.core_for(stack::StageId::kIp, probe, 1);
  net::FlowKey b = a;
  int core_b = core_a;
  for (std::uint16_t port = 41001; core_b == core_a; ++port) {
    b = key_with_port(port);
    probe.flow = b;
    core_b = reference.core_for(stack::StageId::kIp, probe, 1);
  }
  constexpr int kEach = 8;
  for (int i = 0; i < kEach; ++i) {
    rig.add(a, 1, i);
    rig.add(b, 2, i);
  }
  rig.run();

  ASSERT_EQ(rig.landed.size(), 2u * kEach);
  std::uint64_t next[3] = {0, 0, 0};
  for (const Landing& l : rig.landed) {
    EXPECT_EQ(l.core, l.flow == 1 ? core_a : core_b) << "flow " << l.flow;
    EXPECT_EQ(l.seq, next[l.flow]++) << "flow " << l.flow;  // per-flow order
  }
  const stack::CostModel& c = rig.machine.costs();
  EXPECT_EQ(rig.steer_ns(1),
            2 * kEach * (hash + c.remote_enqueue) + 2 * c.ipi_cost);
}

TEST(TransitionMemo, FalconPinTableMatchesPerPacketCalls) {
  // Function level without overlay: GRO is pipeline group 1, so every
  // packet consults the pin table. More distinct flows than the table's
  // 4096 entries, in one- to three-packet runs, then revisits of evicted
  // and of resident flows: runs insert, evict and re-insert.
  const std::vector<int> pool{2, 3, 4, 5};
  using Falcon = steer::FalconSteering;
  MemoRig rig({stack::StageId::kGro});
  auto falcon = std::make_unique<Falcon>(Falcon::Level::kFunction, pool,
                                         /*overlay_path=*/false);
  Falcon& routed = *falcon;
  rig.machine.set_steering(std::move(falcon));
  Falcon reference(Falcon::Level::kFunction, pool, false);

  constexpr net::FlowId kFlows = 4300;
  std::vector<std::pair<net::FlowId, int>> runs;  // (flow, packets)
  for (net::FlowId f = 1; f <= kFlows; ++f)
    runs.emplace_back(f, 1 + static_cast<int>(f % 3));
  for (net::FlowId k = 0; k < 64; ++k) {
    runs.emplace_back(1 + 3 * k, 2);       // evicted: re-pinned
    runs.emplace_back(kFlows - 5 * k, 1);  // still pinned
  }

  std::map<std::pair<net::FlowId, std::uint64_t>, int> expect;
  std::map<net::FlowId, std::uint64_t> seq;
  for (const auto& [f, n] : runs) {
    const net::FlowKey key =
        key_with_port(static_cast<std::uint16_t>(40000 + f));
    for (int i = 0; i < n; ++i) {
      rig.add(key, f, seq[f]);
      net::Packet probe;
      probe.flow = key;
      probe.flow_id = f;
      expect[{f, seq[f]++}] =
          reference.core_for(stack::StageId::kGro, probe, 1);
    }
  }
  rig.run();

  ASSERT_EQ(rig.landed.size(), expect.size());
  for (const Landing& l : rig.landed)
    EXPECT_EQ(l.core, (expect[{l.flow, l.seq}])) << "flow " << l.flow;
  EXPECT_EQ(routed.flows_pinned(), reference.flows_pinned());
  EXPECT_EQ(routed.pins_evicted(), reference.pins_evicted());
  EXPECT_GT(reference.pins_evicted(), kFlows - (1u << 12));
}

TEST(TransitionMemo, HandoffDropOnRunHeadStillRaisesForTheNext) {
  // A seed whose first handoff verdict is a drop and whose second is not.
  net::FaultPlan plan;
  plan.handoff.drop = 0.5;
  for (plan.seed = 1;; ++plan.seed) {
    net::FaultInjector probe(plan);
    if (probe.decide(net::FaultPoint::kHandoff) == net::FaultAction::kDrop &&
        probe.decide(net::FaultPoint::kHandoff) == net::FaultAction::kNone)
      break;
  }
  net::FaultInjector faults(plan);
  MemoRig rig({stack::StageId::kIp});
  rig.machine.set_steering(std::make_unique<steer::PairedPipelineSteering>(
      std::unordered_map<int, int>{{1, 2}}, stack::StageId::kIp));
  rig.machine.set_fault_injector(&faults);
  rig.add(key_with_port(41000), 7, 0);
  rig.add(key_with_port(41000), 7, 1);
  rig.run();

  EXPECT_EQ(faults.drops(net::FaultPoint::kHandoff), 1u);
  ASSERT_EQ(rig.landed.size(), 1u);  // the survivor was raised and ran
  EXPECT_EQ(rig.landed[0].seq, 1u);
  EXPECT_EQ(rig.landed[0].core, 2);
  const stack::CostModel& c = rig.machine.costs();
  EXPECT_EQ(rig.steer_ns(1), 2 * c.remote_enqueue + c.ipi_cost);
}
