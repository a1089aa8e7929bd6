// FlowMonitor: per-flow rate estimation over sliding windows (control
// plane stage 1 of monitor -> classifier -> scaler).
//
// The monitor is pull-based and engine-agnostic: whoever drives the
// control loop periodically feeds it cumulative per-flow totals (wire
// segments + payload bytes, exactly what BatchAssigner already counts at
// the split point for every packet, mice included), and the monitor keeps
// a short ring of timestamped samples per flow. A rate query answers with
// the delta over the samples spanning the configured window — a sliding
// window average, robust to the sampling interval jittering.
//
// Per-flow state lives in a bounded, expiring FlowTable instead of a
// plain map: recency tracks *activity* (a sample whose totals advanced),
// not mere observation, so a dead flow that the source keeps reporting at
// frozen totals still goes idle and can be reclaimed. collect_idle() /
// erase() are the Controller's expiry hooks; erase also retracts the
// flow's registry gauges so exporters stop reporting it.
//
// When a trace::Registry is attached, every sample also publishes
// `flow.<id>.rate_pps` / `flow.<id>.rate_bps` gauges, so the classifier's
// inputs land in the same uniform stat surface the benches and exporters
// already read (names are built once per flow, on its first sample with a
// registry attached, and cached — no per-sample formatting, and none at
// all without a registry).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "control/flowtable.hpp"
#include "net/flow.hpp"
#include "sim/time.hpp"
#include "trace/registry.hpp"

namespace mflow::control {

struct MonitorParams {
  /// Sliding window the rates are averaged over. Short windows react fast
  /// but amplify sender burstiness; the classifier's hysteresis (dwell)
  /// compensates, so the default leans reactive.
  sim::Time window = sim::ms(1);
  /// Samples retained per flow; must cover window / sampling-interval.
  std::size_t max_samples = 32;
  /// Backing flow table: shard count, the hard occupancy bound, and the
  /// idle TTL after which a flow with no activity becomes expirable
  /// (table.ttl == 0 keeps the pre-expiry behaviour: flows live until
  /// clear()). The Controller reads this ttl as the flow-state lifetime.
  FlowTableParams table{};
};

class FlowMonitor {
 public:
  explicit FlowMonitor(MonitorParams params = {})
      : params_(params), flows_(params.table) {
    // Capacity eviction must retract gauges just like erase() does.
    flows_.set_reclaim([this](net::FlowId, PerFlow&& pf) {
      remove_gauges(pf);
    });
  }

  /// Feed one cumulative observation for `flow` at time `now`. Totals are
  /// monotonic (lifetime segments/bytes as counted at the split point);
  /// the monitor differentiates internally. Returns the flow's window rate
  /// after this sample (what rate_pps() would answer), so the control tick
  /// needs no second lookup.
  double record(net::FlowId flow, std::uint64_t total_segs,
                std::uint64_t total_bytes, sim::Time now);

  /// Average rate over the sliding window ending at the last sample.
  /// 0 until a flow has two samples.
  double rate_pps(net::FlowId flow) const;
  double rate_bps(net::FlowId flow) const;

  /// Sum of rate_pps over every tracked flow — the Autoscaler's load
  /// signal (aggregate offered load the active workers must absorb).
  double aggregate_rate_pps() const;

  /// Currently tracked flows in first-seen order (deterministic iteration
  /// for the classifier loop). Expired flows drop out.
  std::vector<net::FlowId> flows() const;

  std::uint64_t total_segs(net::FlowId flow) const;

  /// Flows with no activity for >= params.table.ttl at `now` — the
  /// Controller's expiry candidates. Non-destructive (the drain protocol
  /// may veto reclamation this tick).
  void collect_idle(sim::Time now, std::vector<net::FlowId>& out) const {
    flows_.collect_idle(now, out);
  }

  /// Drop one flow's samples and retract its registry gauges. Returns
  /// false if the flow was not tracked.
  bool erase(net::FlowId flow);

  std::size_t tracked_flows() const { return flows_.size(); }
  std::size_t peak_tracked() const { return flows_.peak_size(); }

  /// Publish per-flow rate gauges into `reg` on every record(). Pass
  /// nullptr to detach.
  void export_to(trace::Registry* reg) { registry_ = reg; }

  /// Drop all history (measurement-window boundary).
  void clear();

 private:
  struct Sample {
    sim::Time at = 0;
    std::uint64_t segs = 0;
    std::uint64_t bytes = 0;
  };
  struct PerFlow {
    std::deque<Sample> samples;
    std::string pps_name;  // cached gauge names ("flow.<id>.rate_pps"),
    std::string bps_name;  // empty until a registry sees the flow
    std::uint64_t seq = 0;  // first-seen order for flows()
  };

  double rate(net::FlowId flow, bool bytes) const;
  static double window_rate(const PerFlow& pf, bool bytes);
  void remove_gauges(const PerFlow& pf);

  MonitorParams params_;
  FlowTable<PerFlow> flows_;
  std::uint64_t next_seq_ = 0;
  trace::Registry* registry_ = nullptr;
};

}  // namespace mflow::control
