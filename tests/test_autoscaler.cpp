// Elastic tier: Autoscaler policy (sizing, hysteresis, flap guard, veto
// retry, core-seconds metering), the Controller x Autoscaler interplay
// through one CapacityTarget, the DES elastic scenario end to end, and the
// rt engine's live capacity channel (including degrading to unpinned when
// the host is too small to pin).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "control/autoscaler.hpp"
#include "control/capacity.hpp"
#include "control/policy.hpp"
#include "core/mflow.hpp"
#include "experiment/scenario.hpp"
#include "experiment/workloads.hpp"
#include "overlay/topology.hpp"
#include "rt/engine.hpp"
#include "sim/time.hpp"
#include "steering/modes.hpp"

using namespace mflow;

namespace {

/// Full-interface fake: capacity commits mutate `active`, and the next
/// `veto_next` shrink attempts are refused (a drain in flight).
struct FakeCapacity final : control::CapacityTarget {
  std::uint32_t limit = 8;
  std::uint32_t active_now = 1;
  int veto_next = 0;
  std::vector<std::pair<net::FlowId, std::uint32_t>> degree_calls;

  void set_flow_degree(net::FlowId flow, std::uint32_t degree) override {
    degree_calls.emplace_back(flow, degree);
  }
  std::uint32_t max_degree() const override { return active_now; }
  std::uint32_t worker_limit() const override { return limit; }
  std::uint32_t active_workers() const override { return active_now; }
  bool set_active_workers(std::uint32_t workers) override {
    if (workers < active_now && veto_next > 0) {
      --veto_next;
      return false;
    }
    active_now = workers;
    return true;
  }
};

control::AutoscalerParams fast_params() {
  control::AutoscalerParams p;
  p.per_worker_pps = 100'000.0;
  p.headroom = 1.0;
  p.cooldown = 0;
  p.down_dwell = sim::ms(1);
  return p;
}

}  // namespace

// --- Autoscaler policy unit tests --------------------------------------------

TEST(Autoscaler, SizesCapacityFromLoadAndScalesUpImmediately) {
  FakeCapacity cap;
  double load = 350'000.0;  // ceil(3.5) = 4 workers
  control::Autoscaler as(fast_params(), [&] { return load; }, &cap);

  as.tick(sim::us(100));
  EXPECT_EQ(cap.active_now, 4u);
  EXPECT_EQ(as.scale_ups(), 1u);
  EXPECT_EQ(as.scale_downs(), 0u);
  ASSERT_EQ(as.history().size(), 1u);
  EXPECT_EQ(as.history()[0].from, 1u);
  EXPECT_EQ(as.history()[0].to, 4u);

  // Headroom multiplies the measured load before sizing.
  auto p = fast_params();
  p.headroom = 1.25;
  FakeCapacity cap2;
  control::Autoscaler as2(p, [&] { return load; }, &cap2);
  as2.tick(sim::us(100));
  EXPECT_EQ(cap2.active_now, 5u);  // ceil(350k * 1.25 / 100k) = 5
}

TEST(Autoscaler, ScaleDownCommitsOnlyAfterDwell) {
  FakeCapacity cap;
  cap.active_now = 6;
  double load = 100'000.0;  // wants 1 worker
  control::Autoscaler as(fast_params(), [&] { return load; }, &cap);

  as.tick(sim::us(100));  // arms the candidate, no commit
  EXPECT_EQ(cap.active_now, 6u);
  as.tick(sim::us(600));  // 500us into a 1ms dwell
  EXPECT_EQ(cap.active_now, 6u);
  EXPECT_EQ(as.scale_downs(), 0u);
  as.tick(sim::us(1200));  // dwell satisfied
  EXPECT_EQ(cap.active_now, 1u);
  EXPECT_EQ(as.scale_downs(), 1u);
}

TEST(Autoscaler, CooldownGatesBackToBackCommits) {
  auto p = fast_params();
  p.cooldown = sim::ms(1);
  FakeCapacity cap;
  double load = 200'000.0;
  control::Autoscaler as(p, [&] { return load; }, &cap);

  as.tick(sim::us(100));
  EXPECT_EQ(cap.active_now, 2u);
  load = 500'000.0;
  as.tick(sim::us(200));  // within cooldown of the first commit
  EXPECT_EQ(cap.active_now, 2u);
  as.tick(sim::us(1200));  // cooldown elapsed
  EXPECT_EQ(cap.active_now, 5u);
  EXPECT_EQ(as.scale_ups(), 2u);
}

TEST(Autoscaler, FlapGuardHoldsCapacityUnderSquareWave) {
  auto p = fast_params();
  p.down_dwell = sim::ms(1);
  FakeCapacity cap;
  sim::Time now = 0;
  // Square wave with 400us half-period: every dip ends before the 1ms
  // dwell can be satisfied, so capacity parks at the peak.
  const auto load = [&] {
    return (now / sim::us(400)) % 2 == 0 ? 600'000.0 : 0.0;
  };
  control::Autoscaler as(p, load, &cap);

  for (now = sim::us(100); now <= sim::ms(10); now += sim::us(100))
    as.tick(now);

  EXPECT_EQ(cap.active_now, 6u);
  EXPECT_EQ(as.scale_ups(), 1u);
  EXPECT_EQ(as.scale_downs(), 0u);
  EXPECT_EQ(as.history().size(), 1u);
}

TEST(Autoscaler, VetoedShrinkRetriesUntilAccepted) {
  auto p = fast_params();
  p.down_dwell = sim::us(100);
  FakeCapacity cap;
  cap.active_now = 6;
  cap.veto_next = 3;
  double load = 50'000.0;
  control::Autoscaler as(p, [&] { return load; }, &cap);

  sim::Time now = sim::us(100);
  as.tick(now);  // arms
  for (int i = 0; i < 4; ++i) {
    now += sim::us(100);
    as.tick(now);  // 3 vetoed attempts, then the commit
  }
  EXPECT_EQ(as.vetoes(), 3u);
  EXPECT_EQ(as.scale_downs(), 1u);
  EXPECT_EQ(cap.active_now, 1u);
}

TEST(Autoscaler, MaxWorkersCapsDesireBelowTargetLimit) {
  auto p = fast_params();
  p.max_workers = 3;
  FakeCapacity cap;
  double load = 900'000.0;  // would want 9; limit 8; cap 3
  control::Autoscaler as(p, [&] { return load; }, &cap);
  as.tick(sim::us(100));
  EXPECT_EQ(cap.active_now, 3u);
}

TEST(Autoscaler, CoreSecondsIntegrateActiveWorkersOverTime) {
  FakeCapacity cap;
  cap.active_now = 2;
  double load = 200'000.0;  // steady: wants exactly 2
  control::Autoscaler as(fast_params(), [&] { return load; }, &cap);

  as.tick(0);  // starts the integral
  as.tick(sim::ms(1));
  load = 400'000.0;
  as.tick(sim::ms(2));  // accounts 2 workers over [0,2ms], then commits 4
  as.finalize(sim::ms(3));  // accounts 4 workers over [2ms,3ms]
  EXPECT_NEAR(as.core_seconds(), 2 * 0.002 + 4 * 0.001, 1e-12);

  // finalize is idempotent; reset_accounting restarts the integral.
  as.finalize(sim::ms(3));
  EXPECT_NEAR(as.core_seconds(), 0.008, 1e-12);
  as.reset_accounting(sim::ms(3));
  as.finalize(sim::ms(4));
  EXPECT_NEAR(as.core_seconds(), 4 * 0.001, 1e-12);
}

// --- Controller x Autoscaler through one target ------------------------------

TEST(Autoscaler, RaisingCapacityLetsControllerWidenDegrees) {
  // One elephant at 600k pps against a budget of 1 active worker: the
  // Controller self-clamps to degree 1 (max_degree == active workers).
  // When the Autoscaler raises capacity, the next Controller tick widens
  // the same flow — no direct engine call anywhere, both through the one
  // CapacityTarget.
  FakeCapacity cap;
  std::uint64_t segs = 0;
  control::ControllerParams cp;  // 150k pps/core, 1ms window, 200us dwell
  control::Controller ctl(
      cp,
      [&](std::vector<control::Controller::FlowTotals>& out) {
        out = {{7, segs, segs * 1500}};
      },
      &cap);
  control::Autoscaler as(fast_params(), [&] { return 600'000.0; }, &cap);

  for (sim::Time t = sim::us(100); t <= sim::ms(2); t += sim::us(100)) {
    segs += 60;  // 600k pps
    ctl.tick(t);
  }
  ASSERT_FALSE(cap.degree_calls.empty());
  const std::uint32_t clamped = ctl.degree_of(7);
  EXPECT_EQ(clamped, 1u);  // promoted, but clamped to the active budget

  as.tick(sim::ms(2));  // raises capacity to 6
  EXPECT_EQ(cap.active_now, 6u);
  for (sim::Time t = sim::ms(2) + sim::us(100); t <= sim::ms(4);
       t += sim::us(100)) {
    segs += 60;
    ctl.tick(t);
  }
  EXPECT_GT(ctl.degree_of(7), clamped);
  EXPECT_EQ(ctl.degree_of(7), 4u);  // 600k / 150k per-core
}

// --- DES elastic scenario, end to end ----------------------------------------

namespace {

/// Elastic DES scenario: 3 TCP flows on the 8-core receiver with 4
/// splitting cores; cold start at 1 worker. Flows 1-2 are mice from t=0;
/// flow 0 runs as a saturating elephant until 6ms, then throttles to
/// mouse pace — capacity has to grow for the elephant and shrink after
/// the throttle collapses the aggregate load.
exp::ScenarioConfig elastic_des_config() {
  core::MflowConfig mcfg = core::udp_device_scaling_config();
  mcfg.tcp_in_reader = true;
  mcfg.splitting_cores = {2, 3, 4, 5};
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kMflow;
  cfg.num_flows = 3;
  cfg.server_cores = 8;
  cfg.app_cores = 1;
  cfg.first_kernel_core = 1;
  cfg.kernel_cores = 7;
  cfg.warmup = sim::ms(2);
  cfg.measure = sim::ms(10);
  cfg.mflow = mcfg;
  auto& c = cfg.control;
  c.enabled = true;
  c.interval = sim::us(100);
  c.params.monitor.window = sim::ms(1);
  c.params.classifier.promote_pps = 200'000.0;
  c.params.classifier.demote_pps = 100'000.0;
  c.params.classifier.dwell = sim::us(300);
  auto& e = cfg.elastic;
  e.enabled = true;
  e.interval = sim::us(100);
  e.params.per_worker_pps = 150'000.0;
  e.params.headroom = 1.2;
  e.params.cooldown = sim::us(200);
  e.params.down_dwell = sim::us(400);
  cfg.rate_changes = {
      {1, 0, sim::ms(2)}, {2, 0, sim::ms(2)}, {0, sim::ms(6), sim::ms(2)}};
  return cfg;
}

}  // namespace

TEST(ElasticScenario, ScalesUpForElephantAndDownAfterThrottle) {
  const auto r = exp::run_scenario(elastic_des_config());
  EXPECT_GT(r.goodput_gbps, 0.5);
  EXPECT_GE(r.elastic.scale_ups, 1u);
  EXPECT_GE(r.elastic.scale_downs, 1u);
  EXPECT_GT(r.elastic.workers_high, r.elastic.workers_low);
  EXPECT_GE(r.elastic.workers_low, 1u);
  // Elasticity saved core-seconds against the static 4-worker run.
  EXPECT_GT(r.elastic.core_seconds, 0.0);
  EXPECT_LT(r.elastic.core_seconds, r.elastic.core_seconds_static);
  // Conservation through every capacity change: nothing written off,
  // nothing delivered out of order, nothing dropped.
  EXPECT_EQ(r.drops_recovered, 0u);
  EXPECT_EQ(r.evictions, 0u);
  EXPECT_EQ(r.late_deliveries, 0u);
  EXPECT_EQ(r.nic_drops, 0u);
}

// --- MflowCapacityAdapter against a real DES engine --------------------------

namespace {

/// Minimal machine + engine rig (the test_splitter pattern): one UDP flow
/// into an 8-core receiver with 4 splitting cores.
struct AdapterRig {
  sim::Simulator sim{1};
  stack::Machine machine;
  std::unique_ptr<core::MflowEngine> engine;

  AdapterRig() : machine(sim, make_params()) {
    overlay::PathSpec spec;
    spec.protocol = net::Ipv4Header::kProtoUdp;
    machine.set_path(overlay::build_rx_path(machine.costs(), spec));
    machine.set_steering(steer::make_policy(exp::Mode::kVanilla));
    stack::SocketConfig sc;
    sc.protocol = net::Ipv4Header::kProtoUdp;
    machine.add_socket(5000, sc);
    machine.start();

    core::MflowConfig cfg = core::udp_device_scaling_config();
    cfg.batch_size = 16;
    cfg.splitting_cores = {2, 3, 4, 5};
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

TEST(MflowCapacityAdapter, ShrinkDuringSplitFlowDrainVetoesThenCommits) {
  AdapterRig rig;
  core::MflowCapacityAdapter adapter(*rig.engine);
  EXPECT_EQ(adapter.worker_limit(), 4u);
  EXPECT_EQ(adapter.active_workers(), 4u);

  // Split flow 1 across all 4 lanes and stop the simulation mid-drain:
  // batches dispatched to the splitting cores but not yet consumed.
  adapter.set_flow_degree(1, 4);
  rig.deliver(64);
  sim::Time t = 0;
  while (rig.engine->drained() && t < sim::ms(5)) {
    t += sim::us(1);
    rig.sim.run_until(t);
  }
  ASSERT_FALSE(rig.engine->drained());

  // Shrink to 1 worker mid-drain: the adapter demotes the over-budget
  // flow but must veto the commit — the retiring lanes still hold
  // in-flight batches. The budget is untouched by a veto.
  EXPECT_FALSE(adapter.set_active_workers(1));
  EXPECT_EQ(adapter.active_workers(), 4u);
  EXPECT_EQ(adapter.max_degree(), 4u);

  // Once the drain completes, the same request commits, and the degree
  // budget the Controller sees shrinks with it.
  rig.sim.run();
  ASSERT_TRUE(rig.engine->drained());
  EXPECT_TRUE(adapter.set_active_workers(1));
  EXPECT_EQ(adapter.active_workers(), 1u);
  EXPECT_EQ(adapter.max_degree(), 1u);
}

TEST(MflowCapacityAdapter, GrowthCommitsImmediatelyAndClampsDegrees) {
  AdapterRig rig;
  core::MflowCapacityAdapter adapter(*rig.engine, /*initial_workers=*/1);
  EXPECT_EQ(adapter.active_workers(), 1u);
  EXPECT_EQ(adapter.max_degree(), 1u);
  // Degree requests clamp to the active budget, not the physical limit.
  adapter.set_flow_degree(1, 4);
  rig.deliver(32);
  rig.sim.run();
  // Growth needs no drain: it commits even with traffic history present.
  EXPECT_TRUE(adapter.set_active_workers(4));
  EXPECT_EQ(adapter.max_degree(), 4u);
}

TEST(ElasticScenario, Deterministic) {
  const auto a = exp::run_scenario(elastic_des_config());
  const auto b = exp::run_scenario(elastic_des_config());
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.elastic.scale_ups, b.elastic.scale_ups);
  EXPECT_EQ(a.elastic.scale_downs, b.elastic.scale_downs);
  EXPECT_EQ(a.elastic.vetoes, b.elastic.vetoes);
  EXPECT_EQ(a.elastic.core_seconds, b.elastic.core_seconds);
  ASSERT_EQ(a.elastic.history.size(), b.elastic.history.size());
  for (std::size_t i = 0; i < a.elastic.history.size(); ++i) {
    EXPECT_EQ(a.elastic.history[i].at, b.elastic.history[i].at);
    EXPECT_EQ(a.elastic.history[i].to, b.elastic.history[i].to);
  }
}

// --- rt live capacity channel ------------------------------------------------

TEST(RtCapacity, PreRunRequestAppliesAtFirstBatchBoundary) {
  rt::EngineConfig cfg;
  cfg.workers = 4;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  rt::Engine eng(cfg);
  rt::EngineCapacityAdapter adapter(eng);
  EXPECT_EQ(adapter.worker_limit(), 4u);
  // Posted before run(): the generator sees it at the very first batch
  // boundary, so the whole stream runs on 2 workers — deterministic.
  EXPECT_TRUE(adapter.set_active_workers(2));
  const rt::EngineResult res = eng.run(20'000);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, 20'000u);
  EXPECT_EQ(res.active_workers_final, 2u);
  EXPECT_EQ(adapter.active_workers(), 2u);
  EXPECT_GE(res.rescales_applied, 1u);
}

TEST(RtCapacity, AdapterClampsAndReducesDegreeToCapacity) {
  rt::EngineConfig cfg;
  cfg.workers = 4;
  rt::Engine eng(cfg);
  rt::EngineCapacityAdapter adapter(eng);
  // Requests clamp to [1, worker_limit]; the rt single-stream reduction
  // maps a degree-d retarget onto d active workers.
  adapter.set_active_workers(99);
  EXPECT_EQ(eng.capacity().requested.load(), 4u);
  adapter.set_flow_degree(net::FlowId{1}, 3);
  EXPECT_EQ(eng.capacity().requested.load(), 3u);
  adapter.set_flow_degree(net::FlowId{1}, 0);  // degree 0 still needs 1 lane
  EXPECT_EQ(eng.capacity().requested.load(), 1u);
}

TEST(RtCapacity, ScaleUpOnTooSmallHostDegradesToUnpinned) {
  // More workers than the host has CPUs: plan_cores() reports the host too
  // small, so pinning must degrade to an unpinned plan — and a live
  // scale-up mid-run must still complete correctly.
  const std::uint32_t workers =
      std::max(1u, std::thread::hardware_concurrency()) + 2;
  rt::EngineConfig cfg;
  cfg.workers = workers;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 50;
  cfg.topology.pin_threads = true;
  cfg.rescales.push_back({0, 1});  // start the stream on one lane
  rt::Engine eng(cfg);
  rt::EngineCapacityAdapter adapter(eng);

  rt::EngineResult res;
  std::thread runner([&] { res = eng.run(200'000); });
  // Live scale-up to the full (unpinnable) worker count while running. It
  // is posted once the schedule's shrink has applied: a request already
  // waiting at the first boundary would win over the shrink there.
  while (eng.capacity().active.load() != 1) std::this_thread::yield();
  adapter.set_active_workers(workers);
  runner.join();

  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, 200'000u);
  EXPECT_EQ(res.threads_pinned, 0u);  // degraded, did not fail
  EXPECT_GE(res.rescales_applied, 1u);  // at least the schedule's shrink
  EXPECT_GE(res.active_workers_final, 1u);
  EXPECT_LE(res.active_workers_final, workers);
}
