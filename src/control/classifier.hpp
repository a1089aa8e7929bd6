// Elephant/mouse classification with hysteresis (control plane stage 2).
//
// A flow crossing the rate threshold is not reclassified immediately:
// promotion and demotion use separate thresholds (a hysteresis band) AND
// the candidate state must persist for a dwell time before it commits.
// Both are needed — the band alone still flaps when a sender oscillates
// across the whole band, and dwell alone still flaps at exactly the
// threshold. Together a flow bouncing around the promote threshold stays
// put until it spends `dwell` continuously on the far side, which is what
// keeps the scaler from thrashing split degrees (every rescale costs a
// drain through the reassembler).
//
// Hysteresis is one flow's state as a value type: the Controller keeps it
// in the flow's control record (policy.hpp), so erasing the record is what
// makes a reused FlowId start fresh as a mouse.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace mflow::control {

enum class FlowClass : std::uint8_t { kMouse, kElephant };

inline const char* flow_class_name(FlowClass c) {
  return c == FlowClass::kElephant ? "elephant" : "mouse";
}

struct ClassifierParams {
  /// Rate at or above which a mouse becomes an elephant candidate.
  double promote_pps = 100'000.0;
  /// Rate at or below which an elephant becomes a mouse candidate. Must be
  /// < promote_pps for the band to exist.
  double demote_pps = 50'000.0;
  /// Continuous time a candidate state must hold before it commits.
  sim::Time dwell = sim::us(200);
};

struct Hysteresis {
  FlowClass committed = FlowClass::kMouse;
  FlowClass candidate = FlowClass::kMouse;
  sim::Time candidate_since = 0;

  /// Observe the flow at `rate_pps` at time `now`. Returns true when the
  /// committed class changed (a promotion or demotion); `committed` holds
  /// the class after the step. New flows start as mice.
  bool update(double rate_pps, sim::Time now, const ClassifierParams& p) {
    // What does the instantaneous rate argue for, given the hysteresis
    // band? Inside the band (demote_pps < rate < promote_pps) it argues for
    // the committed state — any pending candidate is cancelled.
    FlowClass wanted = committed;
    if (rate_pps >= p.promote_pps) {
      wanted = FlowClass::kElephant;
    } else if (rate_pps <= p.demote_pps) {
      wanted = FlowClass::kMouse;
    }
    if (wanted == committed) {
      candidate = committed;
      return false;
    }
    if (candidate != wanted) {
      candidate = wanted;
      candidate_since = now;
    }
    if (now - candidate_since < p.dwell) return false;
    committed = wanted;
    return true;
  }
};

}  // namespace mflow::control
