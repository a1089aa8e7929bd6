// control::Autoscaler — the elastic tier ABOVE the Controller.
//
// The Controller decides how traffic spreads over the workers it is given
// (per-flow split degrees); the Autoscaler decides how many workers exist
// at all. It reads one scalar — aggregate offered load in packets/s,
// normally Controller::aggregate_rate_pps() — sizes a worker count for it
// with provisioning headroom, and drives the engine's
// control::CapacityTarget::set_active_workers(). Capacity changes ride the
// same rescale-drain protocol as degree changes: a shrink that would
// retire lanes with in-flight batches is vetoed by the adapter and
// retried on a later tick.
//
// Policy is deliberately asymmetric (the openNetVM api_gateway scaler
// shape): scale-UP commits on the first tick that wants it (after the
// cooldown) because underprovisioning costs SLO now; scale-DOWN must see
// the lower demand persist for `down_dwell` before committing, because a
// transient dip that flaps capacity pays two drain protocols for nothing.
// A square-wave load whose half-period is shorter than down_dwell
// therefore holds capacity at the peak — the flap guard the tests pin.
//
// The scaler also meters what elasticity costs: core_seconds() integrates
// active_workers over time, so a scenario can report SLO attainment
// against core-seconds consumed and compare with a static full-capacity
// run (bench/ablate_elastic).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "control/capacity.hpp"
#include "sim/time.hpp"
#include "trace/registry.hpp"

namespace mflow::control {

struct AutoscalerParams {
  /// Packets/s one worker is assumed to absorb; demand D asks for
  /// ceil(D * headroom / per_worker_pps) workers. Keep consistent with
  /// ScalingParams::per_core_pps so the two tiers agree on lane capacity.
  double per_worker_pps = 150'000.0;
  /// Provisioning headroom multiplier (>= 1). 1.25 = size for 125% of the
  /// measured load, absorbing monitor lag on a rising edge.
  double headroom = 1.25;
  /// Minimum virtual time between two committed capacity changes, in
  /// either direction. A veto does not restart the cooldown — the change
  /// was already due.
  sim::Time cooldown = sim::ms(1);
  /// A scale-DOWN candidate must persist this long before committing
  /// (scale-up is immediate, modulo cooldown). The flap guard.
  sim::Time down_dwell = sim::ms(2);
  /// Never scale below this many workers.
  std::uint32_t min_workers = 1;
  /// Cap on workers; 0 = the target's worker_limit().
  std::uint32_t max_workers = 0;
};

/// One committed capacity change, for tests and the bench's timeline.
struct ScaleEvent {
  sim::Time at = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

class Autoscaler {
 public:
  /// Aggregate offered load in packets/s, sampled each tick. DES wires
  /// Controller::aggregate_rate_pps; rt benches feed the known offered
  /// rate or a synthetic curve.
  using LoadSource = std::function<double()>;

  Autoscaler(AutoscalerParams params, LoadSource source,
             CapacityTarget* target);

  /// One control iteration: integrate core-seconds, sample load, decide,
  /// maybe commit through the target. Safe to call at any cadence.
  void tick(sim::Time now);

  /// Close the core-seconds integral at `now` (end of run). Idempotent.
  void finalize(sim::Time now);

  /// Restart the core-seconds integral at `now` (measurement-window
  /// boundary); committed-event history and counters are NOT reset.
  void reset_accounting(sim::Time now);

  const std::vector<ScaleEvent>& history() const { return history_; }
  std::uint64_t scale_ups() const { return scale_ups_; }
  std::uint64_t scale_downs() const { return scale_downs_; }
  /// Shrinks the target refused (drain in flight); each is retried.
  std::uint64_t vetoes() const { return vetoes_; }
  /// The target's current view of active capacity.
  std::uint32_t active() const { return target_->active_workers(); }
  /// Integral of active workers over time since construction (or the last
  /// reset_accounting), in core-seconds.
  double core_seconds() const { return core_seconds_; }

  /// Publish elastic.active_workers / elastic.scale_ups / ... each tick.
  void export_to(trace::Registry* reg) { registry_ = reg; }

 private:
  std::uint32_t desired_for(double load_pps) const;
  void account(sim::Time now);

  AutoscalerParams params_;
  LoadSource source_;
  CapacityTarget* target_;
  std::vector<ScaleEvent> history_;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
  std::uint64_t vetoes_ = 0;
  double core_seconds_ = 0.0;
  sim::Time accounted_to_ = 0;
  bool accounting_started_ = false;
  sim::Time last_commit_ = 0;
  bool ever_committed_ = false;
  /// When the current scale-down candidate was first seen; <0 = none.
  sim::Time down_since_ = -1;
  trace::Registry* registry_ = nullptr;
};

}  // namespace mflow::control
