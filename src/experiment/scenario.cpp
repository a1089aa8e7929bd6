#include "experiment/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/adaptive.hpp"
#include "core/mflow.hpp"
#include "nf/stage.hpp"
#include "overlay/topology.hpp"
#include "rt/pool.hpp"
#include "sim/simulator.hpp"
#include "stack/flowcache.hpp"
#include "stack/machine.hpp"
#include "steering/modes.hpp"
#include "util/stats.hpp"
#include "workload/sender.hpp"

namespace mflow::exp {

std::vector<Mode> evaluation_modes() {
  return {Mode::kNative, Mode::kVanilla, Mode::kRps, Mode::kFalconFun,
          Mode::kMflow};
}

std::vector<Mode> motivation_modes() {
  return {Mode::kNative, Mode::kVanilla, Mode::kRps, Mode::kFalconDev,
          Mode::kFalconFun};
}

void ScenarioConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("ScenarioConfig: " + msg);
  };
  auto str = [](auto v) { return std::to_string(v); };

  if (server_cores < 1) fail("server_cores must be >= 1");
  if (app_cores < 1 || app_cores > server_cores)
    fail("app_cores=" + str(app_cores) + " must be in [1, server_cores=" +
         str(server_cores) + "]");
  if (kernel_cores < 1) fail("kernel_cores must be >= 1");
  if (first_kernel_core < 0) fail("first_kernel_core must be >= 0");
  if (first_kernel_core + kernel_cores > server_cores)
    fail("kernel core range [" + str(first_kernel_core) + ", " +
         str(first_kernel_core + kernel_cores) + ") exceeds server_cores=" +
         str(server_cores) + "; shrink kernel_cores or grow server_cores");
  if (app_cores > first_kernel_core)
    fail("app cores [0, " + str(app_cores) +
         ") overlap the kernel cores starting at first_kernel_core=" +
         str(first_kernel_core) +
         "; raise first_kernel_core to at least app_cores");
  if (nic_queues < 1 || nic_queues > kernel_cores)
    fail("nic_queues=" + str(nic_queues) +
         " must be in [1, kernel_cores=" + str(kernel_cores) +
         "] (each queue needs an IRQ core)");
  if (!std::has_single_bit(nic_ring_capacity))
    fail("nic_ring_capacity=" + str(nic_ring_capacity) +
         " must be a power of two");
  if (trace.enabled && !std::has_single_bit(trace.ring_capacity))
    fail("trace.ring_capacity=" + str(trace.ring_capacity) +
         " must be a power of two");

  if (protocol != net::Ipv4Header::kProtoTcp &&
      protocol != net::Ipv4Header::kProtoUdp)
    fail("protocol=" + str(int(protocol)) + " is neither TCP(6) nor UDP(17)");
  if (message_size == 0) fail("message_size must be > 0");
  const bool tcp = protocol == net::Ipv4Header::kProtoTcp;
  if (tcp && num_flows < 1) fail("num_flows must be >= 1 for TCP runs");
  if (!tcp && udp_clients < 1) fail("udp_clients must be >= 1 for UDP runs");
  if (tcp && window_bytes == 0) fail("window_bytes must be > 0 for TCP runs");
  if (warmup < 0 || measure <= 0)
    fail("need warmup >= 0 and measure > 0 (got warmup=" + str(warmup) +
         ", measure=" + str(measure) + ")");

  for (int c : extra_reader_cores)
    if (c < 0 || c >= server_cores)
      fail("extra_reader_cores entry " + str(c) +
           " outside [0, server_cores=" + str(server_cores) + ")");

  if (mode == Mode::kMflow) {
    const core::MflowConfig mcfg =
        mflow.value_or(tcp ? core::tcp_full_path_config()
                           : core::udp_device_scaling_config());
    if (mcfg.batch_size == 0) fail("mflow.batch_size must be > 0");
    if (mcfg.splitting_cores.empty())
      fail("mflow.splitting_cores must not be empty in mflow mode");
    for (int c : mcfg.splitting_cores)
      if (c < 0 || c >= server_cores)
        fail("mflow.splitting_cores entry " + str(c) +
             " outside [0, server_cores=" + str(server_cores) + ")");
    for (const auto& [from, to] : mcfg.pipeline_pairs)
      if (from < 0 || from >= server_cores || to < 0 || to >= server_cores)
        fail("mflow.pipeline_pairs entry " + str(from) + "->" + str(to) +
             " outside [0, server_cores=" + str(server_cores) + ")");
  }

  if (fastpath.enabled) {
    if (fastpath.capacity == 0)
      fail("fastpath.enabled with fastpath.capacity=0 — the cache could "
           "never hold an entry, so every packet would pay the probe for "
           "nothing; set capacity >= 1 or disable fastpath");
    if (mode == Mode::kNative)
      fail("fastpath.enabled requires an overlay mode (mode 'native' has no "
           "VXLAN/bridge/veth segment to cache); pick an overlay mode or "
           "disable fastpath");
  }

  if (nf.enabled) {
    if (nf.chain.chain.empty())
      fail("nf.enabled with an empty nf.chain.chain — nothing to run; add "
           "nat/fw/lb to the chain or disable nf");
    if (nf.state_capacity == 0)
      fail("nf.state_capacity must be >= 1 (the tables could never hold a "
           "flow)");
    if (nf.state_ttl > 0 && nf.sweep_interval <= 0)
      fail("nf.state_ttl > 0 requires nf.sweep_interval > 0 — without a "
           "sweep the TTL never fires and expired flows leak");
    const bool has_nat = std::find(nf.chain.chain.begin(),
                                   nf.chain.chain.end(),
                                   nf::Kind::kNat) != nf.chain.chain.end();
    const bool has_lb = std::find(nf.chain.chain.begin(),
                                  nf.chain.chain.end(),
                                  nf::Kind::kLoadBalancer) !=
                        nf.chain.chain.end();
    if (has_nat && nf.chain.nat_port_span == 0)
      fail("nf chain includes nat but nf.chain.nat_port_span=0 — no ports "
           "to allocate");
    if (has_lb && nf.chain.lb_backends == 0)
      fail("nf chain includes lb but nf.chain.lb_backends=0 — no backends "
           "to pick");
  }

  if (control.enabled) {
    if (mode != Mode::kMflow)
      fail("control.enabled requires Mode::kMflow (there is no splitter to "
           "re-target in mode '" + std::string(mode_name(mode)) + "')");
    if (control.interval <= 0) fail("control.interval must be > 0");
    if (control.params.monitor.window <= 0)
      fail("control.params.monitor.window must be > 0");
    if (control.params.classifier.promote_pps <
        control.params.classifier.demote_pps)
      fail("hysteresis band inverted: classifier.promote_pps=" +
           str(control.params.classifier.promote_pps) +
           " < demote_pps=" + str(control.params.classifier.demote_pps));
    if (control.params.scaling.per_core_pps <= 0)
      fail("control.params.scaling.per_core_pps must be > 0");
  }

  if (control.churn.enabled) {
    if (!control.enabled)
      fail("control.churn.enabled requires control.enabled (churn totals "
           "feed the controller's source; with no controller nothing reads "
           "them)");
    if (control.params.monitor.table.ttl <= 0)
      fail("control.churn.enabled requires control.params.monitor.table.ttl "
           "> 0 — without a TTL the sweep never runs and every churned flow "
           "is tracked forever (the exact leak the churn scenario exists to "
           "catch)");
    if (control.churn.flows_per_sec <= 0)
      fail("control.churn.flows_per_sec must be > 0");
    if (control.churn.flow_lifetime <= 0)
      fail("control.churn.flow_lifetime must be > 0");
    if (control.churn.rate_pps <= 0)
      fail("control.churn.rate_pps must be > 0");
  }

  if (elastic.enabled) {
    if (!control.enabled)
      fail("elastic.enabled requires control.enabled — the autoscaler sizes "
           "capacity from the controller's aggregate rate, and the "
           "controller is what re-spreads flows over the new budget");
    if (elastic.interval <= 0) fail("elastic.interval must be > 0");
    if (elastic.params.per_worker_pps <= 0)
      fail("elastic.params.per_worker_pps must be > 0");
    if (elastic.params.headroom < 1.0)
      fail("elastic.params.headroom must be >= 1 — provisioning below the "
           "measured load guarantees an SLO miss");
    if (elastic.params.min_workers < 1)
      fail("elastic.params.min_workers must be >= 1 (zero workers cannot "
           "serve the baseline load)");
    if (elastic.params.max_workers != 0 &&
        elastic.params.max_workers < elastic.params.min_workers)
      fail("elastic.params.max_workers=" + str(elastic.params.max_workers) +
           " < min_workers=" + str(elastic.params.min_workers));
    if (elastic.params.cooldown < 0 || elastic.params.down_dwell < 0)
      fail("elastic.params.cooldown and down_dwell must be >= 0");
  }

  const int senders = tcp ? num_flows : udp_clients;
  for (const auto& rc : rate_changes) {
    if (rc.sender_index < 0 || rc.sender_index >= senders)
      fail("rate_changes sender_index=" + str(rc.sender_index) +
           " outside [0, " + str(senders) + ")");
    if (rc.at < 0) fail("rate_changes entry with negative time");
  }
  if (usage_split_at != 0 &&
      (usage_split_at <= warmup || usage_split_at >= warmup + measure))
    fail("usage_split_at=" + str(usage_split_at) +
         " must lie strictly inside the measurement window (" + str(warmup) +
         ", " + str(warmup + measure) + ")");
}

double ScenarioResult::max_core_utilization() const {
  double best = 0.0;
  for (const auto& c : cores) best = std::max(best, c.total);
  return best;
}

double ScenarioResult::utilization_stddev_pct(int first_core,
                                              int count) const {
  util::RunningStats s;
  for (const auto& c : cores)
    if (c.core_id >= first_core && c.core_id < first_core + count)
      s.add(c.total * 100.0);
  return s.stddev();
}

namespace {

constexpr std::uint16_t kBasePort = 5000;
constexpr std::uint32_t kVni = 42;
// Sender-side slab pool size (rt::PacketPool). Recycling is deterministic
// (LIFO, single-threaded in the DES), and an exhausted pool falls back to
// the heap, so the size never changes a metric.
constexpr std::size_t kSenderPoolSlabs = 16384;

const net::Ipv4Addr kHostA{192, 168, 1, 2};   // client (sender) host
const net::Ipv4Addr kHostB{192, 168, 1, 3};   // server (receiver) host
const net::Ipv4Addr kContainerA{10, 0, 1, 2};  // client-side container
const net::Ipv4Addr kContainerB{10, 0, 1, 3};  // server-side container

struct FlowPlan {
  net::FlowKey flow;
  net::FlowId id;
  std::uint16_t port;
  int app_core;
  int client_core;
};

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  cfg.validate();
  const bool overlay = cfg.mode != Mode::kNative;
  const bool is_tcp = cfg.protocol == net::Ipv4Header::kProtoTcp;
  const bool use_mflow = cfg.mode == Mode::kMflow;

  core::MflowConfig mcfg =
      cfg.mflow.value_or(is_tcp ? core::tcp_full_path_config()
                                : core::udp_device_scaling_config());
  // With the control plane on, split decisions come exclusively from the
  // controller's per-flow degree overrides; the static packet-count
  // threshold would otherwise promote every flow behind its back.
  if (use_mflow && cfg.control.enabled)
    mcfg.elephant_threshold_pkts =
        std::numeric_limits<std::uint64_t>::max();

  // Sender-side slab pool. Declared BEFORE the simulator on purpose: queued
  // events (e.g. delayed-fault redeliveries) can hold PacketPtrs into this
  // pool, so the pool must outlive the simulator's event queue.
  rt::PacketPool pool{{.slabs = kSenderPoolSlabs}};

  sim::Simulator sim(cfg.seed);

  // --- tracing ---------------------------------------------------------------
  std::shared_ptr<trace::Tracer> tracer;
  if (cfg.trace.enabled && trace::compiled_in()) {
    tracer = std::make_shared<trace::Tracer>(cfg.trace);
    trace::set_current(tracer.get());
  }

  // --- receiver machine -----------------------------------------------------
  overlay::PathSpec spec;
  spec.overlay = overlay;
  spec.protocol = cfg.protocol;
  spec.vni = kVni;
  spec.tcp_in_reader = use_mflow && is_tcp && mcfg.tcp_in_reader;

  stack::MachineParams mp;
  mp.num_cores = cfg.server_cores;
  mp.costs = cfg.costs;
  mp.nic.num_queues = cfg.nic_queues;
  mp.nic.ring_capacity = cfg.nic_ring_capacity;
  for (int q = 0; q < cfg.nic_queues; ++q)
    mp.irq_affinity.push_back(cfg.first_kernel_core + q % cfg.kernel_cores);

  // Fast-path cache: declared before the machine only for symmetry with the
  // pool (stages hold non-owning pointers; neither side touches the other
  // at destruction). Installed right after the path exists.
  std::unique_ptr<stack::FlowCache> flowcache;
  if (cfg.fastpath.enabled)
    flowcache = std::make_unique<stack::FlowCache>(
        stack::FlowCacheConfig{cfg.fastpath.capacity});

  stack::Machine server(sim, mp);

  // NF layer: stages are spliced into the path before it is handed to the
  // machine; the affinity hook (if any) is installed at the first NF index.
  std::unique_ptr<nf::NfLayer> nflayer;
  {
    auto path = overlay::build_rx_path(server.costs(), spec);
    std::size_t nf_index = 0;
    if (cfg.nf.enabled) {
      nf::LayerParams np;
      np.chain = cfg.nf.chain;
      np.strategy = cfg.nf.strategy;
      np.state_capacity = cfg.nf.state_capacity;
      np.state_ttl = cfg.nf.state_ttl;
      np.num_cores = cfg.server_cores;
      if (np.strategy == nf::Strategy::kFlowAffinity) {
        // Pin: the first kernel core after the IRQ cores, falling back to
        // the first kernel core when every kernel core owns a queue.
        int pin = cfg.first_kernel_core + cfg.nic_queues;
        if (pin >= cfg.first_kernel_core + cfg.kernel_cores ||
            pin >= cfg.server_cores)
          pin = cfg.first_kernel_core;
        np.affinity_cores = {pin};
      }
      nflayer = std::make_unique<nf::NfLayer>(std::move(np), cfg.costs);
      nf_index = nf::insert_stages(path, *nflayer);
      if (tracer) nflayer->set_registry(&tracer->registry());
    }
    server.set_path(std::move(path));
    if (nflayer && cfg.nf.strategy == nf::Strategy::kFlowAffinity)
      server.set_transition_hook(nf_index, &nflayer->affinity_hook(server));
  }
  if (flowcache) overlay::install_flow_cache(server, *flowcache);

  // Kernel cores not used as IRQ cores: targets for RPS / FALCON pipelines.
  // When every kernel core handles a NIC queue (multi-flow setups), the
  // pipelines share the full kernel-core set instead.
  std::vector<int> helper_cores;
  for (int c = cfg.first_kernel_core + cfg.nic_queues;
       c < cfg.first_kernel_core + cfg.kernel_cores && c < cfg.server_cores;
       ++c)
    helper_cores.push_back(c);
  if (helper_cores.empty()) {
    for (int c = cfg.first_kernel_core;
         c < cfg.first_kernel_core + cfg.kernel_cores && c < cfg.server_cores;
         ++c)
      helper_cores.push_back(c);
  }

  steer::PolicyParams steering;
  steering.helper_cores = helper_cores;
  steering.overlay = overlay;
  steering.rps_hash_cost = cfg.costs.rps_hash_per_pkt;
  steering.pipeline_pairs = mcfg.pipeline_pairs;
  steering.pipeline_at = mcfg.pipeline_at;
  server.set_steering(steer::make_policy(cfg.mode, steering));

  // --- flows & sockets --------------------------------------------------------
  const net::Ipv4Addr src_ip = overlay ? kContainerA : kHostA;
  const net::Ipv4Addr dst_ip = overlay ? kContainerB : kHostB;
  std::vector<FlowPlan> plans;
  if (is_tcp) {
    for (int i = 0; i < cfg.num_flows; ++i) {
      FlowPlan p;
      p.flow = net::FlowKey{src_ip, dst_ip,
                            static_cast<std::uint16_t>(40000 + i),
                            static_cast<std::uint16_t>(kBasePort + i),
                            net::Ipv4Header::kProtoTcp};
      p.id = static_cast<net::FlowId>(i + 1);
      p.port = static_cast<std::uint16_t>(kBasePort + i);
      p.app_core = i % cfg.app_cores;
      p.client_core = i;
      plans.push_back(p);
    }
  } else {
    // The paper's UDP setup: three sockperf clients stress ONE UDP flow
    // (same 5-tuple), so RSS/RPS cannot spread the load — the whole point
    // of the motivation study. All clients share flow id 1.
    for (int i = 0; i < cfg.udp_clients; ++i) {
      FlowPlan p;
      p.flow = net::FlowKey{src_ip, dst_ip, 41000, kBasePort,
                            net::Ipv4Header::kProtoUdp};
      p.id = 1;
      p.port = kBasePort;
      p.app_core = 0;
      p.client_core = i;
      plans.push_back(p);
    }
  }

  std::vector<std::uint16_t> socket_ports;
  for (const auto& p : plans) {
    if (!socket_ports.empty() && socket_ports.back() == p.port) continue;
    stack::SocketConfig sc;
    sc.protocol = cfg.protocol;
    sc.app_core = p.app_core;
    sc.message_size = cfg.message_size;
    sc.tcp_in_reader = spec.tcp_in_reader;
    sc.extra_reader_cores = cfg.extra_reader_cores;
    server.add_socket(p.port, sc);
    socket_ports.push_back(p.port);
  }

  // --- MFLOW -------------------------------------------------------------------
  std::unique_ptr<core::MflowEngine> engine;
  server.start();
  std::unique_ptr<core::AdaptiveBatchController> adaptive;
  if (use_mflow) {
    engine = std::make_unique<core::MflowEngine>(server, mcfg);
    if (cfg.mflow_reassembler) {
      for (std::uint16_t port : socket_ports)
        engine->attach_socket(port, server.socket(port));
    }
    engine->install();
    if (cfg.adaptive_batch) {
      adaptive =
          std::make_unique<core::AdaptiveBatchController>(sim, *engine);
      adaptive->start();
    }
  }

  // --- dynamic flow control plane -------------------------------------------
  std::unique_ptr<core::MflowCapacityAdapter> capacity;
  std::unique_ptr<control::Controller> controller;
  std::unique_ptr<control::Autoscaler> autoscaler;
  std::function<void()> control_tick;  // outlives every queued tick event
  std::function<void()> elastic_tick;
  if (engine && cfg.control.enabled) {
    // With churn on, the synthetic flows ride the same totals vector as the
    // engine's real ones, so the controller monitors/classifies/expires both
    // populations through one code path.
    control::Controller::Source source;
    if (cfg.control.churn.enabled) {
      source = [eng = engine.get(), churn = cfg.control.churn,
                &sim](std::vector<control::Controller::FlowTotals>& out) {
        eng->flow_totals(out);
        append_churn_totals(churn, sim.now(), out);
      };
    } else {
      source = [eng = engine.get()](
                   std::vector<control::Controller::FlowTotals>& out) {
        eng->flow_totals(out);
      };
    }
    // The control plane reaches the engine ONLY through its CapacityTarget
    // adapter. With the elastic tier on, the budget starts at the
    // configured initial worker count instead of full capacity.
    std::uint32_t initial_workers = 0;  // adapter default: worker_limit
    if (cfg.elastic.enabled)
      initial_workers = cfg.elastic.initial_workers != 0
                            ? cfg.elastic.initial_workers
                            : cfg.elastic.params.min_workers;
    capacity =
        std::make_unique<core::MflowCapacityAdapter>(*engine, initial_workers);
    controller = std::make_unique<control::Controller>(
        cfg.control.params, std::move(source), capacity.get());
    if (tracer) controller->export_to(&tracer->registry());
    // Recurring tick. The chain re-arms itself past the end of the run;
    // the final queued event simply never fires once run_until() stops.
    control_tick = [&sim, &control_tick, ctl = controller.get(),
                    interval = cfg.control.interval] {
      ctl->tick(sim.now());
      sim.after(interval, [&control_tick] { control_tick(); });
    };
    sim.after(cfg.control.interval, [&control_tick] { control_tick(); });

    if (cfg.elastic.enabled) {
      autoscaler = std::make_unique<control::Autoscaler>(
          cfg.elastic.params,
          [ctl = controller.get()] { return ctl->aggregate_rate_pps(); },
          capacity.get());
      if (tracer) autoscaler->export_to(&tracer->registry());
      elastic_tick = [&sim, &elastic_tick, as = autoscaler.get(),
                      interval = cfg.elastic.interval] {
        as->tick(sim.now());
        sim.after(interval, [&elastic_tick] { elastic_tick(); });
      };
      sim.after(cfg.elastic.interval, [&elastic_tick] { elastic_tick(); });
    }
  }

  // --- NF expiry sweep --------------------------------------------------------
  std::function<void()> nf_sweep;  // outlives every queued sweep event
  if (nflayer && cfg.nf.state_ttl > 0) {
    nf_sweep = [&sim, &nf_sweep, layer = nflayer.get(),
                interval = cfg.nf.sweep_interval] {
      layer->sweep(sim.now());
      sim.after(interval, [&nf_sweep] { nf_sweep(); });
    };
    sim.after(cfg.nf.sweep_interval, [&nf_sweep] { nf_sweep(); });
  }

  // --- interference on kernel cores ---------------------------------------------
  sim::Interference interference(sim, cfg.interference, cfg.seed ^ 0xABCD);
  for (int c = cfg.first_kernel_core;
       c < cfg.first_kernel_core + cfg.kernel_cores && c < cfg.server_cores;
       ++c)
    interference.attach(server.core(c));

  // --- clients ---------------------------------------------------------------------
  workload::ClientHost clients(sim, static_cast<int>(plans.size()),
                               cfg.costs);
  workload::WireLink wire(sim, server, cfg.costs.wire_latency);

  net::FaultInjector injector(cfg.faults);
  if (cfg.faults.any()) {
    server.set_fault_injector(&injector);
    wire.set_fault_injector(&injector);
  }

  std::vector<std::unique_ptr<workload::TcpSender>> tcp_senders;
  std::vector<std::unique_ptr<workload::UdpSender>> udp_senders;
  std::unordered_map<net::FlowId, workload::TcpSender*> sender_by_flow;

  for (const auto& p : plans) {
    workload::SenderParams sp;
    sp.flow = p.flow;
    sp.flow_id = p.id;
    sp.overlay = overlay;
    sp.outer_src = kHostA;
    sp.outer_dst = kHostB;
    sp.vni = kVni;
    sp.message_size = cfg.message_size;
    // Fair-share windows: real concurrent TCP flows converge (via congestion
    // control) to sharing the bottleneck, keeping aggregate inflight within
    // buffering. Static division reproduces that steady state.
    sp.window_bytes = cfg.num_flows > 1
                          ? std::max<std::uint64_t>(
                                128ull * net::kTcpMss,
                                cfg.window_bytes /
                                    static_cast<std::uint64_t>(cfg.num_flows))
                          : cfg.window_bytes;
    sp.pace_per_message = cfg.pace_per_message;
    sp.pool = &pool;
    if (is_tcp) {
      tcp_senders.push_back(std::make_unique<workload::TcpSender>(
          clients, p.client_core, sp, wire));
      sender_by_flow[p.id] = tcp_senders.back().get();
    } else {
      sp.message_id_start = static_cast<std::uint64_t>(p.client_core);
      sp.message_id_stride = static_cast<std::uint64_t>(cfg.udp_clients);
      udp_senders.push_back(std::make_unique<workload::UdpSender>(
          clients, p.client_core, sp, wire));
    }
  }

  // ACK path: receiver-side TCP -> (wire latency) -> client sender.
  if (is_tcp) {
    const sim::Time ack_latency = cfg.costs.wire_latency;
    auto ack_cb = [&sim, &sender_by_flow,
                   ack_latency](net::FlowId flow, std::uint64_t bytes) {
      const auto it = sender_by_flow.find(flow);
      if (it == sender_by_flow.end()) return;
      workload::TcpSender* snd = it->second;
      sim.after(ack_latency, [snd, bytes] { snd->on_ack(bytes); });
    };
    if (spec.tcp_in_reader) {
      for (std::uint16_t port : socket_ports)
        server.socket(port).tcp_receiver().set_ack_callback(ack_cb);
    } else if (auto* rx = overlay::find_softirq_tcp_receiver(server)) {
      rx->set_ack_callback(ack_cb);
    }
  }

  for (auto& s : tcp_senders) s->start();
  for (auto& s : udp_senders) s->start();

  // Mid-run sender rate changes (cfg.rate_changes, absolute times).
  for (const auto& rc : cfg.rate_changes) {
    const auto idx = static_cast<std::size_t>(rc.sender_index);
    if (is_tcp) {
      workload::TcpSender* s = tcp_senders[idx].get();
      sim.after(rc.at, [s, pace = rc.pace_per_message] { s->set_pace(pace); });
    } else {
      workload::UdpSender* s = udp_senders[idx].get();
      sim.after(rc.at, [s, pace = rc.pace_per_message] { s->set_pace(pace); });
    }
  }

  // Mid-run per-core busy snapshot for the before/after utilization split.
  struct BusySnap {
    std::array<sim::Time, sim::kTagCount> by_tag{};
  };
  auto usage_snap = std::make_shared<std::vector<BusySnap>>();
  if (cfg.usage_split_at != 0) {
    sim.after(cfg.usage_split_at, [&server, usage_snap] {
      usage_snap->resize(static_cast<std::size_t>(server.num_cores()));
      for (int c = 0; c < server.num_cores(); ++c)
        for (std::size_t t = 0; t < sim::kTagCount; ++t)
          (*usage_snap)[static_cast<std::size_t>(c)].by_tag[t] =
              server.core(c).busy_ns(static_cast<sim::Tag>(t));
    });
  }

  // --- run ---------------------------------------------------------------------------
  // The wire holds arrivals that no poll has read yet (WireLink); deliver
  // the ones due before each boundary, so their drops and tracer counters
  // land in the window they belong to.
  const auto pull_wire = [&server, &sim] {
    server.pull_arrivals(sim::Ticket{sim.now(), 0});
  };
  std::uint64_t events = sim.run_until(cfg.warmup);
  pull_wire();
  server.reset_measurement();
  if (engine) engine->reset_stats();
  // Core-seconds are metered over the measurement window only (warmup ramp
  // is not what the SLO-vs-cost comparison charges for).
  if (autoscaler) autoscaler->reset_accounting(sim.now());
  if (nflayer) nflayer->reset_measurement();
  if (tracer) tracer->clear();  // drop warmup events and counters
  const std::uint64_t drops0 = server.nic().total_drops();
  const std::uint64_t delivered0 = server.nic().total_delivered();
  std::uint64_t offered0 = 0;
  for (const auto& s : tcp_senders) offered0 += s->bytes_sent();
  for (const auto& s : udp_senders) offered0 += s->bytes_sent();
  // Cache hit/miss ratios are reported over the measurement window only
  // (warmup is where the slow path populates the cache).
  const std::uint64_t cache_hits0 = flowcache ? flowcache->hits() : 0;
  const std::uint64_t cache_misses0 = flowcache ? flowcache->misses() : 0;
  const std::uint64_t cache_hit_segs0 = flowcache ? flowcache->hit_segs() : 0;
  const std::uint64_t inj_drops0 = injector.total_drops();
  const std::uint64_t inj_drop_segs0 = injector.dropped_segs();
  const std::uint64_t inj_corrupt0 = injector.total_corruptions();
  const std::uint64_t inj_dup0 = injector.total_duplicates();
  const std::uint64_t inj_delay0 = injector.total_delays();

  events += sim.run_until(cfg.warmup + cfg.measure);
  pull_wire();

  // --- collect --------------------------------------------------------------------------
  ScenarioResult res;
  res.mode = std::string(mode_name(cfg.mode));
  res.events = events;
  const double secs = sim::to_seconds(cfg.measure);

  std::uint64_t bytes = 0;
  for (std::uint16_t port : socket_ports) {
    const auto& st = server.socket(port).stats();
    bytes += st.payload_bytes;
    res.messages += st.messages;
    res.latency.merge(st.latency);
    PortStats ps;
    ps.port = port;
    ps.messages = st.messages;
    ps.goodput_gbps =
        static_cast<double>(st.payload_bytes) * 8.0 / secs / 1e9;
    ps.latency = st.latency;
    res.per_port.push_back(std::move(ps));
  }
  res.goodput_gbps = static_cast<double>(bytes) * 8.0 / secs / 1e9;

  std::uint64_t offered1 = 0;
  for (const auto& s : tcp_senders) offered1 += s->bytes_sent();
  for (const auto& s : udp_senders) offered1 += s->bytes_sent();
  res.offered_gbps =
      static_cast<double>(offered1 - offered0) * 8.0 / secs / 1e9;

  res.nic_drops = server.nic().total_drops() - drops0;
  res.nic_delivered = server.nic().total_delivered() - delivered0;
  res.injected_drops = injector.total_drops() - inj_drops0;
  res.injected_drop_segs = injector.dropped_segs() - inj_drop_segs0;
  res.injected_corruptions = injector.total_corruptions() - inj_corrupt0;
  res.injected_duplicates = injector.total_duplicates() - inj_dup0;
  res.injected_delays = injector.total_delays() - inj_delay0;
  if (engine) {
    res.ooo_arrivals = engine->ooo_arrivals();
    res.batches_merged = engine->batches_merged();
    res.final_batch = engine->config().batch_size;
    res.drops_recovered = engine->drops_recovered();
    res.evictions = engine->evictions();
    res.late_deliveries = engine->late_deliveries();
    res.recovery_latency_ns = engine->recovery_latency_ns();
    res.flows_blocked = engine->any_flow_blocked();
  }
  if (flowcache) {
    res.cache_hits = flowcache->hits() - cache_hits0;
    res.cache_misses = flowcache->misses() - cache_misses0;
    res.cache_hit_segs = flowcache->hit_segs() - cache_hit_segs0;
    res.cache_inserts = flowcache->inserts();
    res.cache_invalidations = flowcache->invalidations();
    res.cache_evictions = flowcache->evictions();
  }
  if (nflayer) {
    const auto& nc = nflayer->counters();
    res.nf_packets = nc.packets;
    res.nf_segs = nc.segs;
    res.nf_nat_rewrites = nc.nat_rewrites;
    res.nf_lock_acquires = nc.lock_acquires;
    res.nf_lock_contended = nc.lock_contended;
    res.nf_scr_updates = nc.scr_updates;
    res.nf_flows_live = nflayer->live_flows();
    res.nf_flows_peak = nflayer->peak_flows();
    res.nf_flows_expired = nc.flows_expired;
    res.nf_state = nflayer->merged_state();
    res.nf_state_digest = nflayer->state_digest();
  }
  if (controller) {
    res.control.rescales = controller->rescales();
    res.control.elephants = controller->elephants();
    res.control.history = controller->history();
    res.control.tracked = controller->tracked_flows();
    res.control.peak = controller->peak_tracked();
    res.control.expired = controller->expired_flows();
  }
  if (autoscaler) {
    autoscaler->finalize(sim.now());
    res.elastic.scale_ups = autoscaler->scale_ups();
    res.elastic.scale_downs = autoscaler->scale_downs();
    res.elastic.vetoes = autoscaler->vetoes();
    res.elastic.history = autoscaler->history();
    res.elastic.core_seconds = autoscaler->core_seconds();
    res.elastic.workers_final = capacity->active_workers();
    res.elastic.core_seconds_static =
        static_cast<double>(capacity->worker_limit()) *
        sim::to_seconds(cfg.measure);
    res.elastic.workers_low = res.elastic.workers_final;
    res.elastic.workers_high = res.elastic.workers_final;
    for (const control::ScaleEvent& ev : res.elastic.history) {
      res.elastic.workers_low =
          std::min({res.elastic.workers_low, ev.from, ev.to});
      res.elastic.workers_high =
          std::max({res.elastic.workers_high, ev.from, ev.to});
    }
  }

  for (int c = 0; c < server.num_cores(); ++c) {
    CoreUsage u;
    u.core_id = c;
    const auto& core = server.core(c);
    for (std::size_t t = 0; t < sim::kTagCount; ++t)
      u.by_tag[t] =
          static_cast<double>(core.busy_ns(static_cast<sim::Tag>(t))) /
          static_cast<double>(cfg.measure);
    u.total = core.utilization(cfg.measure);
    res.cores.push_back(u);
  }

  if (!usage_snap->empty()) {
    // Busy counters were reset at the warmup boundary, so the snapshot is
    // the busy time of [warmup, split) and the final counters cover the
    // whole measurement window.
    const double before_ns =
        static_cast<double>(cfg.usage_split_at - cfg.warmup);
    const double after_ns =
        static_cast<double>(cfg.warmup + cfg.measure - cfg.usage_split_at);
    for (int c = 0; c < server.num_cores(); ++c) {
      const auto& snap = (*usage_snap)[static_cast<std::size_t>(c)];
      const auto& core = server.core(c);
      CoreUsage before, after;
      before.core_id = after.core_id = c;
      for (std::size_t t = 0; t < sim::kTagCount; ++t) {
        const auto at_split = static_cast<double>(snap.by_tag[t]);
        const auto at_end = static_cast<double>(
            core.busy_ns(static_cast<sim::Tag>(t)));
        before.by_tag[t] = at_split / before_ns;
        after.by_tag[t] = (at_end - at_split) / after_ns;
        before.total += before.by_tag[t];
        after.total += after.by_tag[t];
      }
      res.cores_before.push_back(before);
      res.cores_after.push_back(after);
    }
  }

  if (tracer) {
    trace::set_current(nullptr);
    // Canonical registry names: subsystem totals the live tracepoint
    // counters cannot see (or that are authoritative here) land under the
    // same snapshot the benches read, replacing per-struct field access.
    trace::Registry& reg = tracer->registry();
    reg.set_gauge("goodput_gbps", res.goodput_gbps);
    reg.set_gauge("offered_gbps", res.offered_gbps);
    reg.set_gauge("latency.mean_us", res.mean_latency_us());
    reg.set_gauge("latency.p50_us", res.p50_latency_us());
    reg.set_gauge("latency.p99_us", res.p99_latency_us());
    reg.set_counter("messages", res.messages);
    reg.set_counter("nic.drops", res.nic_drops);
    reg.set_counter("fault.injected_drops", res.injected_drops);
    reg.set_counter("fault.injected_drop_segs", res.injected_drop_segs);
    reg.set_counter("fault.injected_corruptions", res.injected_corruptions);
    reg.set_counter("fault.injected_duplicates", res.injected_duplicates);
    reg.set_counter("fault.injected_delays", res.injected_delays);
    if (flowcache) {
      reg.set_counter("flowcache.hits", res.cache_hits);
      reg.set_counter("flowcache.misses", res.cache_misses);
      reg.set_counter("flowcache.hit_segs", res.cache_hit_segs);
      reg.set_counter("flowcache.inserts", res.cache_inserts);
      reg.set_counter("flowcache.invalidations", res.cache_invalidations);
      reg.set_counter("flowcache.evictions", res.cache_evictions);
      reg.set_gauge("flowcache.hit_rate", res.cache_hit_rate());
    }
    if (nflayer) {
      nflayer->export_stats();
      reg.set_gauge("nf.state_digest",
                    static_cast<double>(res.nf_state_digest));
    }
    if (autoscaler) {
      // Final authoritative values (the per-tick gauges stop at the last
      // tick before the cut; these cover the full measurement window).
      reg.set_gauge("elastic.active_workers",
                    static_cast<double>(res.elastic.workers_final));
      reg.set_gauge("elastic.core_seconds", res.elastic.core_seconds);
      reg.set_counter("elastic.scale_ups", res.elastic.scale_ups);
      reg.set_counter("elastic.scale_downs", res.elastic.scale_downs);
      reg.set_counter("elastic.vetoes", res.elastic.vetoes);
    }
    reg.set_counter("reasm.ooo_arrivals", res.ooo_arrivals);
    reg.set_counter("reasm.batches_merged", res.batches_merged);
    reg.set_counter("reasm.drops_recovered", res.drops_recovered);
    reg.set_counter("reasm.evictions", res.evictions);
    reg.set_counter("reasm.late_deliveries", res.late_deliveries);
    reg.set_gauge("fault.recovery_latency_mean_ns",
                  res.recovery_latency_ns.mean());
    reg.set_counter("pool.acquired", pool.acquired());
    reg.set_counter("pool.recycled", pool.recycled());
    reg.set_counter("pool.exhausted", pool.exhausted());
    res.phases = trace::attribute(*tracer);
    res.stats = reg.snapshot();
    res.tracer = std::move(tracer);
  }
  return res;
}

void append_churn_totals(const ScenarioConfig::ControlPlane::Churn& churn,
                         sim::Time now,
                         std::vector<control::Controller::FlowTotals>& out) {
  if (!churn.enabled || now <= 0) return;
  const double t = sim::to_seconds(now);
  const double life = sim::to_seconds(churn.flow_lifetime);
  // Flow i arrives at i / flows_per_sec, advances totals at rate_pps for
  // `life` seconds, then freezes and drops out of the report. Only flows
  // inside the live window [t - life, t] appear, so a tick's cost is
  // O(live flows) even after millions of cumulative arrivals.
  const auto hi =
      static_cast<std::uint64_t>(t * churn.flows_per_sec);
  const auto lo = t > life ? static_cast<std::uint64_t>(
                                 (t - life) * churn.flows_per_sec)
                           : 0ull;
  const std::uint64_t stride = churn.reverse ? 2 : 1;
  for (std::uint64_t i = lo; i <= hi; ++i) {
    const double arrival = static_cast<double>(i) / churn.flows_per_sec;
    if (arrival > t) break;
    const double active = std::min(t - arrival, life);
    // +1 so a flow's very first report already shows traffic (a zero-total
    // flow would be recorded but never touched as active).
    const auto segs =
        static_cast<std::uint64_t>(churn.rate_pps * active) + 1;
    control::Controller::FlowTotals ft;
    ft.flow = churn.first_flow_id + i * stride;
    ft.segs = segs;
    ft.bytes = segs * net::kTcpMss;
    out.push_back(ft);
    if (churn.reverse) {
      ft.flow += 1;
      out.push_back(ft);
    }
  }
}

}  // namespace mflow::exp
