// Scalability profiler: per-stage stall/occupancy counters and contention
// attribution for the rt engine.
//
// "Runs on N cores" becomes "scales on N cores" only when lost throughput
// has a name. Every pipeline thread (generator, each worker, consumer)
// owns one cache-line-aligned `StageCounters` block and records, while the
// run is live:
//
//   - ring-EMPTY stalls: time spent spinning on a dry upstream ring
//     (a worker starving = the generator's serial section is the
//     bottleneck; the consumer starving = workers are);
//   - ring-FULL stalls: time spent spinning on a full downstream ring
//     (a worker blocked on its buffer ring = the merge/consumer side is
//     the bottleneck);
//   - pool-dry stalls (the generator found its stash, the return rings
//     and the pool's free list all empty): the slab return path as a
//     contention point of its own;
//   - sampled downstream-ring occupancy, the queue-pressure signal.
//
// Stall timing is episode-based: the clock is read once when a stage first
// fails to make progress and once when it succeeds again, so the happy
// path pays zero clock reads and the counters stay single-writer (folded
// after join — the same pattern as the engine's other per-worker blocks).
//
// `attribute_scaling()` turns the folded counters into a per-contention-
// point breakdown of lost throughput against the 1-worker anchor:
//
//   lost_pps(point) = stall_seconds(point) x busy-rate of that worker
//   slowdown residual = busy_seconds x (anchor_rate - busy_rate)
//
// which by construction sums to (ideal - measured) up to sampling error —
// the `coverage` field reports how much of the measured loss the named
// points explain, and bench/ablate_scaling enforces coverage within 10%
// on hosts with enough cores to run the pipeline unsliced
// (docs/SCALING.md §5 derives the model and its limits).
#pragma once

#include <cstdint>
#include <chrono>
#include <string>
#include <vector>

namespace mflow::trace {
class Registry;
}

namespace mflow::rt {

/// Per-thread stall/occupancy counters. Written only by the owning thread
/// while the run is live (own cache line — no false sharing), read by the
/// engine after join.
struct alignas(64) StageCounters {
  std::uint64_t items = 0;             // packets through this stage
  std::uint64_t input_dry_episodes = 0;   // upstream ring was empty
  std::uint64_t input_dry_ns = 0;
  std::uint64_t output_full_episodes = 0;  // downstream ring was full
  std::uint64_t output_full_ns = 0;
  std::uint64_t pool_dry_episodes = 0;  // generator: return rings+pool dry
  std::uint64_t pool_dry_ns = 0;
  std::uint64_t occupancy_sum = 0;      // sampled downstream-ring occupancy
  std::uint64_t occupancy_samples = 0;
  std::uint64_t active_ns = 0;          // thread wall time inside the run
  std::uint64_t batches = 0;            // count_batch() calls

  /// `n` items went through in one batch; every 32nd batch also samples
  /// the ring's occupancy, calling `ring_size()` only then.
  template <typename Size>
  void count_batch(std::uint64_t n, Size&& ring_size) {
    items += n;
    if ((++batches & 31) == 0) {
      occupancy_sum += ring_size();
      ++occupancy_samples;
    }
  }

  std::uint64_t stall_ns() const {
    return input_dry_ns + output_full_ns + pool_dry_ns;
  }
  double mean_occupancy() const {
    return occupancy_samples == 0
               ? 0.0
               : static_cast<double>(occupancy_sum) /
                     static_cast<double>(occupancy_samples);
  }
};

/// Episode-based stall stopwatch (see file header). Single-threaded; one
/// per stall kind per thread. All call sites are profiler-gated, so a
/// disabled profile pays nothing.
class StallClock {
 public:
  /// A progress attempt failed: arm the clock (first failure of the
  /// episode only — repeated calls while armed are free).
  void stall() {
    if (!armed_) {
      armed_ = true;
      t0_ = std::chrono::steady_clock::now();
    }
  }
  /// Progress resumed (or the stage gave up): close the episode into
  /// `episodes`/`ns`. No-op when not armed.
  void resolve(std::uint64_t& episodes, std::uint64_t& ns) {
    if (!armed_) return;
    armed_ = false;
    ++episodes;
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }
  bool armed() const { return armed_; }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point t0_;
};

/// The folded per-run profile (EngineResult::profile).
struct ProfileReport {
  bool enabled = false;
  std::size_t workers = 0;
  double wall_seconds = 0.0;
  StageCounters generator;
  StageCounters consumer;
  std::vector<StageCounters> worker;  // one per worker thread

  /// Element-wise sum over the worker blocks.
  StageCounters workers_total() const;
};

/// One named contention point and the throughput it cost.
struct ContentionPoint {
  std::string name;
  double stall_seconds = 0.0;  // summed over the threads it applies to
  double lost_pps = 0.0;       // estimated packets/s this point cost
  double share = 0.0;          // lost_pps / total attributed
};

struct ScalingAttribution {
  double ideal_pps = 0.0;       // workers x anchor
  double measured_pps = 0.0;
  double lost_pps = 0.0;        // max(0, ideal - measured)
  double attributed_pps = 0.0;  // sum over points
  /// attributed / lost; meaningful only when lost is a sizable fraction
  /// of ideal (tiny losses divide by ~0). 1.0 = the named points explain
  /// exactly the measured loss.
  double coverage = 0.0;
  std::vector<ContentionPoint> points;  // sorted, largest lost_pps first
};

/// Attribute the gap between `workers x anchor_pps_w1` and `measured_pps`
/// to named contention points (model in the file header / SCALING.md §5).
/// `anchor_pps_w1` is the same engine configuration measured at 1 worker.
ScalingAttribution attribute_scaling(const ProfileReport& report,
                                     double anchor_pps_w1,
                                     double measured_pps);

/// Export the profile as `rt.prof.<stage>.<counter>` registry counters
/// (and `rt.prof.<stage>.occupancy` gauges) — the uniform stat surface
/// scenario reports and the trace exporters already speak.
void export_profile(const ProfileReport& report, trace::Registry& registry);

/// Human-readable per-stage stall table, plus the attribution breakdown
/// when one is supplied.
std::string format_profile(const ProfileReport& report,
                           const ScalingAttribution* attr = nullptr);

}  // namespace mflow::rt
