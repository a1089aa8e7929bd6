// RateWindow: one flow's rate estimate over a sliding window (control plane
// stage 1 of monitor -> classifier -> scaler).
//
// The monitor is pull-based and engine-agnostic: whoever drives the control
// loop periodically feeds it cumulative per-flow totals (wire segments +
// payload bytes, exactly what BatchAssigner already counts at the split
// point for every packet, mice included), and the window keeps a short ring
// of timestamped samples. A rate query answers with the delta over the
// samples spanning the configured window — a sliding window average, robust
// to the sampling interval jittering.
//
// RateWindow is a value type with no table of its own: the Controller keeps
// one inside each flow's control record (policy.hpp), next to the
// classifier's hysteresis and the split degree, so sampling, classifying and
// retargeting a flow is one flow-table probe. The ring is a util::Fifo, so
// an empty window owns no heap memory and a resident one stops allocating
// once it has reached its peak depth.
#pragma once

#include <cstdint>

#include "control/flowtable.hpp"
#include "sim/time.hpp"
#include "util/fifo.hpp"

namespace mflow::control {

struct MonitorParams {
  /// Sliding window the rates are averaged over. Short windows react fast
  /// but amplify sender burstiness; the classifier's hysteresis (dwell)
  /// compensates, so the default leans reactive.
  sim::Time window = sim::ms(1);
  /// Samples retained per flow; must cover window / sampling-interval.
  std::size_t max_samples = 32;
  /// The Controller's flow table: shard count, the hard occupancy bound,
  /// and the idle TTL after which a flow with no activity becomes
  /// expirable (table.ttl == 0 keeps flows until they are evicted). The
  /// Controller reads this ttl as the flow-state lifetime.
  FlowTableParams table{};
};

class RateWindow {
 public:
  /// Append one cumulative observation at `now` (totals are monotonic
  /// lifetime segments/bytes; the window differentiates internally) and
  /// trim. Returns true on ACTIVITY — the first sample, or totals that
  /// advanced — which is what the Controller's flow recency tracks: a
  /// source that keeps reporting a finished flow at frozen totals must not
  /// keep it alive, or nothing would ever expire.
  bool record(std::uint64_t total_segs, std::uint64_t total_bytes,
              sim::Time now, const MonitorParams& params) {
    const bool active = samples_.empty() ||
                        total_segs > samples_.back().segs ||
                        total_bytes > samples_.back().bytes;
    samples_.push_back(Sample{now, total_segs, total_bytes});
    // Trim so the RETAINED span (front..back) never exceeds the window —
    // comparing against the second sample here used to let the rate average
    // over up to window + one sampling interval, which kept a stale
    // pre-drop rate alive and delayed demotion dwell. Always keep at least
    // two samples so a sparse sampler (interval > window) still yields a
    // rate.
    while (samples_.size() > 2 &&
           (samples_.size() > params.max_samples ||
            now - samples_.front().at > params.window)) {
      samples_.pop_front();
    }
    return active;
  }

  /// Average rate over the retained samples. 0 until two samples.
  double rate_pps() const { return rate(/*bytes=*/false); }
  double rate_bps() const { return rate(/*bytes=*/true) * 8.0; }

  /// Lifetime segments at the last sample (0 before the first).
  std::uint64_t total_segs() const {
    return samples_.empty() ? 0 : samples_.back().segs;
  }
  bool empty() const { return samples_.empty(); }

 private:
  struct Sample {
    sim::Time at = 0;
    std::uint64_t segs = 0;
    std::uint64_t bytes = 0;
  };

  double rate(bool bytes) const {
    if (samples_.size() < 2) return 0.0;
    const Sample& first = samples_.front();
    const Sample& last = samples_.back();
    const sim::Time span = last.at - first.at;
    if (span <= 0) return 0.0;
    const std::uint64_t delta =
        bytes ? last.bytes - first.bytes : last.segs - first.segs;
    return static_cast<double>(delta) / sim::to_seconds(span);
  }

  util::Fifo<Sample> samples_;
};

}  // namespace mflow::control
