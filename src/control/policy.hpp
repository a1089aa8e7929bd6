// ScalingPolicy + Controller: the decision stage of the control plane
// (monitor -> classifier -> scaler) and the loop that drives all three.
//
// The policy maps (class, rate) to a split degree: mice get degree 0
// (stay on the arrival core — no split, no reassembly latency), elephants
// get enough micro-flow lanes to absorb their measured rate given a
// per-core service capacity, clamped to the target's core budget. The
// Controller keeps ONE control record per flow in one FlowTable — the
// flow's RateWindow (monitor.hpp), its Hysteresis (classifier.hpp) and its
// degree — so a tick samples, classifies and retargets a flow in a single
// probe, and expiry, eviction and erase drop the whole record at once. It
// pulls per-flow totals from a source callback on each tick and pushes
// degree changes into a control::CapacityTarget (capacity.hpp) — the one
// seam both engines implement, each via a single adapter
// (core::MflowCapacityAdapter; rt::EngineCapacityAdapter). max_degree()
// is the target's CURRENT active-worker budget, so when the Autoscaler
// shrinks capacity the Controller auto-clamps degrees on its next tick.
//
// Degree changes are NOT applied instantaneously by the data path: the
// splitter retargets only at batch boundaries and the reassembler holds
// post-unsplit packets until the old degree's in-flight batches drain
// (reusing the pre-split gate grace machinery) — the rescale-drain
// protocol documented in docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "control/capacity.hpp"
#include "control/classifier.hpp"
#include "control/flowtable.hpp"
#include "control/monitor.hpp"
#include "net/flow.hpp"
#include "sim/time.hpp"
#include "trace/registry.hpp"

namespace mflow::control {

struct ScalingParams {
  /// Packets/s one kernel lane is assumed to absorb; an elephant at rate R
  /// gets ceil(R / per_core_pps) lanes. Derive from 1/kernel-path-cost.
  double per_core_pps = 150'000.0;
  /// Floor for elephants (even a freshly promoted one gets this many).
  std::uint32_t min_elephant_degree = 1;
  /// Shrink deadband: an elephant's degree only drops to k when its rate
  /// fits k lanes with this much headroom (rate <= k * per_core_pps *
  /// shrink_margin). Without it a rate hovering at a ceil() boundary
  /// flaps the degree every tick — each flap pays the rescale-drain
  /// protocol for nothing. Growing is immediate (underprovisioning costs
  /// throughput now; shrinking can wait for certainty).
  double shrink_margin = 0.8;
};

class ScalingPolicy {
 public:
  explicit ScalingPolicy(ScalingParams params = {}) : params_(params) {}

  /// Desired split degree for one flow given its current degree, clamped
  /// to [0, max_degree]. `current_degree` anchors the shrink deadband (use
  /// 0 for a flow with no split history).
  std::uint32_t degree_for(FlowClass cls, double rate_pps,
                           std::uint32_t max_degree,
                           std::uint32_t current_degree = 0) const;

 private:
  ScalingParams params_;
};

struct ControllerParams {
  MonitorParams monitor;
  ClassifierParams classifier;
  ScalingParams scaling;
};

/// One committed degree change, for tests and the bench's transition plot.
struct RescaleEvent {
  sim::Time at = 0;
  net::FlowId flow = 0;
  std::uint32_t old_degree = 0;
  std::uint32_t new_degree = 0;
};

class Controller {
 public:
  /// Per-flow cumulative totals as counted at the split point. Pull-based:
  /// the controller invokes its source each tick so the data path never
  /// blocks on the control plane.
  struct FlowTotals {
    net::FlowId flow = 0;
    std::uint64_t segs = 0;
    std::uint64_t bytes = 0;
  };
  /// Appends this tick's totals to `out`, a vector the Controller owns and
  /// clears before each call, so a steady-state tick allocates nothing.
  using Source = std::function<void(std::vector<FlowTotals>& out)>;
  /// A source that returns a fresh vector each tick (and so allocates one
  /// each tick).
  using ValueSource = std::function<std::vector<FlowTotals>()>;

  Controller(ControllerParams params, Source source, CapacityTarget* target);
  Controller(ControllerParams params, ValueSource source,
             CapacityTarget* target);
  // The flow table's eviction callback holds `this`.
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// One control iteration: sample -> classify -> retarget. Only committed
  /// degree changes reach the target (no-op ticks are free).
  void tick(sim::Time now);

  const std::vector<RescaleEvent>& history() const { return history_; }
  std::uint64_t rescales() const { return history_.size(); }
  std::uint32_t degree_of(net::FlowId flow) const;
  /// Split flows whose committed class is elephant.
  std::uint64_t elephants() const;

  /// Window rates of one flow; 0 for an untracked flow or one with fewer
  /// than two samples.
  double rate_pps(net::FlowId flow) const;
  double rate_bps(net::FlowId flow) const;
  /// Sum of rate_pps over every tracked flow — the Autoscaler's load
  /// signal (aggregate offered load the active workers must absorb).
  double aggregate_rate_pps() const;
  /// Tracked flows in first-seen order.
  std::vector<net::FlowId> flows() const;
  /// Committed class (kMouse for an untracked flow).
  FlowClass classify(net::FlowId flow) const;
  /// Committed class changes so far (promotions + demotions) — flap meter.
  std::uint64_t transitions() const { return transitions_; }

  /// Flows with a live control record. Bounded by the flow table, not by
  /// cumulative arrivals.
  std::size_t tracked_flows() const { return flows_.size(); }
  std::size_t peak_tracked() const { return flows_.peak_size(); }
  /// Flows fully reclaimed by TTL expiry (control record + data-path
  /// state).
  std::uint64_t expired_flows() const { return expired_; }
  /// Expiry candidates whose release the target vetoed this tick (drain
  /// in flight); they stay tracked and retry.
  std::uint64_t release_retries() const { return release_retries_; }

  /// Drop one flow's control record now, without asking the target to
  /// release it. A still-split flow is demoted through the target first (a
  /// history event stamped at the last tick), so the data path never keeps
  /// a split the Controller has forgotten; capacity eviction takes the same
  /// path. Returns false if the flow was not tracked.
  bool erase(net::FlowId flow);
  /// erase() every tracked flow, in first-seen order.
  void clear();

  /// Publish control.elephants / control.active_lanes / control.rescales
  /// gauges+counters each tick, and per-flow `flow.<id>.rate_pps` /
  /// `flow.<id>.rate_bps` gauges on every sample (names are built once per
  /// flow, on its first sample with a registry attached, and retracted
  /// when its record goes). Pass nullptr to detach.
  void export_to(trace::Registry* reg) { registry_ = reg; }

 private:
  /// One flow's whole control state.
  struct FlowCtl {
    RateWindow rates;
    Hysteresis hysteresis;
    std::uint32_t degree = 0;  // committed split degree, 0 = unsplit
    std::uint64_t seq = 0;     // first-seen order for flows()
    std::string pps_name;      // cached gauge names, empty until a
    std::string bps_name;      // registry sees the flow
  };

  void expire_flows(sim::Time now);
  void publish_gauges(net::FlowId flow, FlowCtl& fc);
  /// Commit degree -> 0 for a split flow leaving its split.
  void demote(net::FlowId flow, std::uint32_t degree);
  /// A record leaving by eviction or erase: demote if split, retract
  /// gauges.
  void forget(net::FlowId flow, const FlowCtl& fc);
  void retract_gauges(const FlowCtl& fc);

  ControllerParams params_;
  Source source_;
  std::vector<FlowTotals> totals_;  // source_'s output, reused every tick
  CapacityTarget* target_;
  ScalingPolicy policy_;
  FlowTable<FlowCtl> flows_;
  std::vector<RescaleEvent> history_;
  std::vector<net::FlowId> idle_scratch_;
  sim::Time now_ = 0;  // the current (or last) tick
  std::uint64_t next_seq_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t release_retries_ = 0;
  trace::Registry* registry_ = nullptr;
};

}  // namespace mflow::control
