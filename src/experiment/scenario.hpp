// Scenario runner: assembles one complete experiment — receiver machine,
// RX path, steering mode, optional MFLOW, client hosts, interference — runs
// it with a warmup, and collects the metrics the paper's figures report.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/autoscaler.hpp"
#include "control/policy.hpp"
#include "core/config.hpp"
#include "experiment/mode.hpp"
#include "net/fault.hpp"
#include "nf/nf.hpp"
#include "sim/interference.hpp"
#include "stack/costs.hpp"
#include "trace/attribution.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace mflow::exp {

/// One experiment, written down field by field: default-construct, assign
/// the fields that differ, and pass it to run_scenario(), which calls
/// validate() first, so an inconsistent layout throws std::invalid_argument
/// before anything is built.
struct ScenarioConfig {
  Mode mode = Mode::kVanilla;
  std::uint8_t protocol = net::Ipv4Header::kProtoTcp;
  std::uint32_t message_size = 65536;

  int num_flows = 1;    // concurrent TCP flows (each its own socket+sender)
  int udp_clients = 3;  // paper: three sockperf clients stress one UDP flow
                        // each (i.e. udp_clients flows into one socket)

  // Receiver machine layout.
  int server_cores = 16;
  int app_cores = 1;          // reader threads spread over cores [0, n)
  int first_kernel_core = 1;  // kernel packet-processing cores start here
  int kernel_cores = 15;
  int nic_queues = 1;
  /// Per-queue NIC ring depth (power of two — net::NicParams requirement).
  std::size_t nic_ring_capacity = 4096;

  // Measurement windows.
  sim::Time warmup = sim::ms(10);
  sim::Time measure = sim::ms(40);
  std::uint64_t seed = 42;

  stack::CostModel costs = stack::default_costs();
  sim::InterferenceParams interference{};

  /// Override MFLOW's configuration (default: the per-protocol paper
  /// defaults from core/config.hpp).
  std::optional<core::MflowConfig> mflow;

  /// Ablation switch: when false, MFLOW splits but does NOT install its
  /// reassembler — reordering is left to the kernel's per-packet TCP
  /// out-of-order queue (bench/ablate_reassembly).
  bool mflow_reassembler = true;

  /// Extra data-copy (reader) threads per socket on these cores — the
  /// receiver-side future-work extension (bench/ablate_copy_scaling).
  std::vector<int> extra_reader_cores = {};

  /// Enable the online batch-size controller (core/adaptive.hpp); the
  /// configured batch_size is then only the starting point.
  bool adaptive_batch = false;

  /// TCP sender window (bytes in flight).
  std::uint64_t window_bytes = 3000ull * net::kTcpMss;

  /// 0 = drive to saturation; otherwise one message per sender per this
  /// interval (latency-under-controlled-load runs).
  sim::Time pace_per_message = 0;

  /// Fault injection (drops/corruption/duplication/delay at the NIC ring,
  /// steering handoff, and splitting-queue deposit). Default: no faults.
  net::FaultPlan faults{};

  /// Per-packet tracing (src/trace). Disabled by default; events recorded
  /// during warmup are discarded at the measurement boundary. No effect
  /// when tracing is compiled out (-DMFLOW_TRACE=OFF).
  trace::TraceConfig trace{};

  /// Per-flow encap/decap fast-path cache (stack/flowcache.hpp): the first
  /// packets of a flow resolve vxlan -> bridge -> veth through the slow
  /// path and record the decision; later packets apply one header splice.
  /// Default OFF, so cache-off runs are byte-identical to pre-cache builds.
  struct FastPath {
    bool enabled = false;
    /// Entry capacity; inserting past it evicts (miss-storm ablations use
    /// a deliberately tiny value to force thrash).
    std::size_t capacity = 1024;
  };
  FastPath fastpath;

  /// Dynamic flow control plane (src/control): monitor -> classifier ->
  /// scaler driving each flow's split degree at runtime. Requires
  /// Mode::kMflow; when enabled, the static elephant threshold is disabled
  /// and the controller's degree decisions are the only split trigger.
  struct ControlPlane {
    bool enabled = false;
    /// Controller tick period (sample + classify + retarget).
    sim::Time interval = sim::us(100);
    control::ControllerParams params;
    /// Synthetic flow churn merged into the controller's totals source on
    /// top of the engine's real flow_totals(): `flows_per_sec` new flows
    /// arrive continuously, each advances its totals at `rate_pps` for
    /// `flow_lifetime`, then goes idle and stops being reported — exactly
    /// what the controller's TTL sweep must reclaim. Totals are closed-form
    /// in the tick time (no per-flow simulation state), so a churn run is
    /// deterministic and can sweep millions of cumulative flows cheaply.
    /// Requires params.monitor.table.ttl > 0 so expiry actually runs.
    struct Churn {
      bool enabled = false;
      double flows_per_sec = 1000.0;
      /// Active lifetime of each synthetic flow.
      sim::Time flow_lifetime = sim::ms(1);
      /// Per-flow packet rate while active. Keep it under the classifier's
      /// promote threshold unless the run wants churning elephants.
      double rate_pps = 10000.0;
      /// Emit a reverse twin (flow_id + 1) per flow with the same totals —
      /// the ACK-direction state a connection-tracking table also carries.
      bool reverse = false;
      /// First synthetic FlowId; spaced far above real sender flow ids so
      /// the two populations never collide. With `reverse`, each flow i
      /// takes ids first_flow_id + 2i and first_flow_id + 2i + 1.
      net::FlowId first_flow_id = 1ull << 20;
    };
    Churn churn;
  };
  ControlPlane control;

  /// Stateful NF chain (src/nf): dynamic NAT, stateful firewall and/or a
  /// Maglev L4 load balancer inserted right after the inner IP stage, with
  /// per-flow state parallelized by `strategy` (shared-lock / flow-affinity
  /// / state-compute replication). Default OFF — NF-off runs are
  /// byte-identical to pre-NF builds.
  struct Nf {
    bool enabled = false;
    /// kFlowAffinity pins every flow to the first kernel core after the
    /// IRQ cores.
    nf::Strategy strategy = nf::Strategy::kScr;
    /// Chain order + NAT/LB knobs (nf::ChainConfig); chain.chain must be
    /// non-empty when enabled.
    nf::ChainConfig chain;
    /// Per-table resident-entry bound (sharer table and every replica).
    std::size_t state_capacity = 1 << 14;
    /// Idle horizon for NF state expiry; 0 = no TTL (capacity still binds).
    sim::Time state_ttl = 0;
    /// Expiry-sweep cadence; must be > 0 when state_ttl > 0.
    sim::Time sweep_interval = sim::ms(1);
  };
  Nf nf;

  /// Elastic capacity tier (control::Autoscaler, the tier above the
  /// Controller): sizes the ACTIVE worker budget from the Controller's
  /// aggregate load and drives it through the engine's
  /// core::MflowCapacityAdapter; the Controller then self-clamps split
  /// degrees to the budget on its next tick. Requires control.enabled (the
  /// autoscaler reads the controller's aggregate rate) and Mode::kMflow.
  struct Elastic {
    bool enabled = false;
    /// Autoscaler tick cadence (the decision loop; commits are further
    /// gated by params.cooldown / params.down_dwell).
    sim::Time interval = sim::us(200);
    control::AutoscalerParams params;
    /// Active workers at t=0. 0 = start cold at params.min_workers; set to
    /// the splitting-core count to start hot and let the trough shrink it.
    std::uint32_t initial_workers = 0;
  };
  Elastic elastic;

  /// Mid-run sender rate changes (the many-flow transition scenario: an
  /// elephant throttling down to mouse rates, or a mouse surging). Times
  /// are absolute simulation time (the measurement window starts at
  /// `warmup`). `pace_per_message` has SenderParams semantics: 0 = drive to
  /// saturation.
  struct RateChange {
    int sender_index = 0;
    sim::Time at = 0;
    sim::Time pace_per_message = 0;
  };
  std::vector<RateChange> rate_changes;

  /// Snapshot per-core busy time at this absolute instant; the result then
  /// reports utilization separately before/after the snapshot
  /// (cores_before/cores_after) — how the transition experiments show
  /// kernel cores released after an elephant demotes. 0 = off. Must lie
  /// inside the measurement window.
  sim::Time usage_split_at = 0;

  /// Reject inconsistent layouts with actionable messages (throws
  /// std::invalid_argument). Called by run_scenario() itself; benches that
  /// build configs programmatically call it early to fail before setup.
  void validate() const;
};

struct CoreUsage {
  int core_id = 0;
  double total = 0.0;  // busy fraction of the measurement window
  std::array<double, sim::kTagCount> by_tag{};
};

/// Per-socket receive metrics: the mixed elephant/mouse scenarios read
/// mouse latency and elephant goodput from *their own* ports instead of
/// the merged aggregate.
struct PortStats {
  std::uint16_t port = 0;
  std::uint64_t messages = 0;
  double goodput_gbps = 0.0;
  util::Histogram latency{6};
};

struct ScenarioResult {
  std::string mode;
  double goodput_gbps = 0.0;   // application payload received
  double offered_gbps = 0.0;   // client payload transmitted
  std::uint64_t messages = 0;
  util::Histogram latency{6};  // per-message latency (ns)
  std::vector<PortStats> per_port;
  std::vector<CoreUsage> cores;  // receiver cores, measurement window
  /// Utilization split at cfg.usage_split_at (empty when disabled):
  /// cores_before covers [warmup, split), cores_after [split, end).
  std::vector<CoreUsage> cores_before;
  std::vector<CoreUsage> cores_after;
  std::uint64_t nic_drops = 0;
  std::uint64_t nic_delivered = 0;  // wire packets the NIC rings took
  std::uint64_t ooo_arrivals = 0;   // MFLOW merge-point reordering events
  std::uint64_t batches_merged = 0;
  std::uint64_t events = 0;         // simulator events (diagnostics)
  std::uint32_t final_batch = 0;    // batch size at run end (adaptive mode)

  // Fault-injection accounting, deltas over the measurement window.
  std::uint64_t injected_drops = 0;       // packets dropped by the injector
  std::uint64_t injected_drop_segs = 0;   // wire segments those carried
  std::uint64_t injected_corruptions = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_delays = 0;
  // Reassembler recovery (MFLOW only): see core/reassembler.hpp.
  std::uint64_t drops_recovered = 0;   // segments written off via retraction
  std::uint64_t evictions = 0;         // timeout-forced merge-head advances
  std::uint64_t late_deliveries = 0;   // out-of-order post-eviction arrivals
  util::RunningStats recovery_latency_ns;
  /// Some flow had buffered-but-unready merge work at the instant the run
  /// ended. Benign for batches still in flight (the common case mid-
  /// traffic); it is a wedge only if it persists once the pipeline drains —
  /// which run_scenario's fixed-duration cut cannot distinguish. Tests that
  /// need the strict property drain a finite workload to quiescence and ask
  /// the engine directly.
  bool flows_blocked = false;

  // Fast-path cache (populated when cfg.fastpath.enabled), deltas over the
  // measurement window except `cache_inserts`/`cache_evictions`, which
  // count from run start (entries committed during warmup are the ones
  // producing measurement-window hits).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_hit_segs = 0;     // wire segments spliced
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t cache_evictions = 0;
  double cache_hit_rate() const {
    const auto total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }

  /// Control plane (populated when cfg.control.enabled), nested under one
  /// domain per the `domain.metric` naming convention: committed degree
  /// changes, flows classified elephant at the end, the full rescale
  /// history for transition plots/tests, and the flow-state lifecycle
  /// (bounded-state invariant: `peak` must scale with LIVE flows, not
  /// cumulative arrivals; `expired` counts TTL reclamations).
  struct ControlStats {
    std::uint64_t rescales = 0;
    std::uint64_t elephants = 0;
    std::vector<control::RescaleEvent> history;
    std::uint64_t tracked = 0;
    std::uint64_t peak = 0;
    std::uint64_t expired = 0;
  };
  ControlStats control;

  /// Elastic tier (populated when cfg.elastic.enabled). Event counters and
  /// history cover the whole run; core_seconds integrates active workers
  /// over the MEASUREMENT window only, and core_seconds_static is what a
  /// static full-capacity run would consume over that window
  /// (worker_limit x measure) — the denominator of the savings ratio
  /// bench/ablate_elastic reports.
  struct ElasticStats {
    std::uint64_t scale_ups = 0;
    std::uint64_t scale_downs = 0;
    std::uint64_t vetoes = 0;
    std::uint32_t workers_final = 0;
    std::uint32_t workers_low = 0;
    std::uint32_t workers_high = 0;
    double core_seconds = 0.0;
    double core_seconds_static = 0.0;
    std::vector<control::ScaleEvent> history;
  };
  ElasticStats elastic;

  // NF layer (populated when cfg.nf.enabled): measurement-window counters,
  // the flow-state lifecycle, and the merged per-flow semantic state
  // (sorted by flow id) plus its order-insensitive digest — the surface
  // the cross-strategy oracle-equality tests compare.
  std::uint64_t nf_packets = 0;        // skbs through any NF stage
  std::uint64_t nf_segs = 0;           // wire segments those carried
  std::uint64_t nf_nat_rewrites = 0;
  std::uint64_t nf_lock_acquires = 0;
  std::uint64_t nf_lock_contended = 0;
  std::uint64_t nf_scr_updates = 0;
  std::uint64_t nf_flows_live = 0;
  std::uint64_t nf_flows_peak = 0;
  std::uint64_t nf_flows_expired = 0;
  std::uint64_t nf_state_digest = 0;
  std::vector<std::pair<net::FlowId, nf::FlowState>> nf_state;

  // Tracing output (populated only when cfg.trace.enabled and tracing is
  // compiled in). `tracer` keeps the raw event buffers alive for exporters;
  // `phases` is the per-phase latency attribution over the measurement
  // window; `stats` is the counter/gauge registry snapshot — the uniform
  // stat surface benches read instead of the per-subsystem fields above.
  std::shared_ptr<trace::Tracer> tracer;
  trace::PhaseBreakdown phases;
  trace::Registry::Snapshot stats;

  double mean_latency_us() const { return latency.mean() / 1000.0; }
  double p50_latency_us() const {
    return static_cast<double>(latency.p50()) / 1000.0;
  }
  double p99_latency_us() const {
    return static_cast<double>(latency.p99()) / 1000.0;
  }
  /// Busy fraction of the busiest receiver core.
  double max_core_utilization() const;
  /// Std deviation of utilization across the given receiver cores
  /// (percent points, as the paper reports for Figure 12).
  double utilization_stddev_pct(int first_core, int count) const;
};

/// Run one scenario to completion and collect metrics.
ScenarioResult run_scenario(const ScenarioConfig& cfg);

/// Append the closed-form churn totals at tick time `now` (see
/// ScenarioConfig::ControlPlane::Churn). Exposed so benches and tests can
/// drive a control::Controller through the same churn source without a
/// full scenario run.
void append_churn_totals(const ScenarioConfig::ControlPlane::Churn& churn,
                         sim::Time now,
                         std::vector<control::Controller::FlowTotals>& out);

}  // namespace mflow::exp
