// control::CapacityTarget — the ONE seam through which the control plane
// (Controller for split degrees, Autoscaler for worker capacity) drives a
// data-path engine.
//
// It subsumes the previously ad-hoc seams:
//   - the controller's split-degree retarget (set_flow_degree /
//     max_degree / release_flow),
//   - `core::MflowEngine`'s direct degree/release methods,
//   - the rt engine's epoch rescale messages (EngineConfig::rescales was
//     the only way to change the active worker set; now a live request can
//     be posted mid-run).
// and adds the capacity dimension: how many workers exist (worker_limit),
// how many currently serve traffic (active_workers), and a request to
// change that number (set_active_workers).
//
// Each engine implements the interface in exactly ONE adapter
// (core::MflowCapacityAdapter for the DES engine,
// rt::EngineCapacityAdapter for the rt engine); nothing outside those
// adapters calls the engines' degree/rescale entry points directly. The
// adapters also own the coupling rule between the two dimensions: the
// degree budget visible to the Controller (max_degree) is the CURRENT
// active worker count, not the physical limit, so shrinking capacity
// automatically demotes flows whose degree no longer fits.
//
// Capacity changes follow the same veto-and-retry contract as flow
// release: set_active_workers() may return false when the change cannot
// commit yet (a rescale drain is still in flight on the lanes being
// retired). The caller keeps its desired value and retries next tick —
// all-or-nothing, never half-applied.
#pragma once

#include <cstdint>

#include "net/flow.hpp"

namespace mflow::control {

class CapacityTarget {
 public:
  virtual ~CapacityTarget() = default;

  // --- flow dimension (per-flow split degree) ------------------------------
  /// Retarget one flow's split degree. Degree 0 = unsplit (mouse path:
  /// deliver on the arrival core); degree k in [1, max_degree()] = split
  /// round-robin over the first k active lanes. Takes effect at the flow's
  /// next batch boundary; the reassembler runs the rescale-drain protocol
  /// for the transition.
  virtual void set_flow_degree(net::FlowId flow, std::uint32_t degree) = 0;

  /// Degree budget available to the flow dimension RIGHT NOW. For an
  /// elastic target this is the active worker count, so the Controller
  /// self-clamps to capacity; for a fixed target it equals worker_limit().
  virtual std::uint32_t max_degree() const = 0;

  /// Flow-state expiry handshake: forget everything held for an idle flow
  /// (split-point counters, degree overrides, reassembly bookkeeping,
  /// cached fast-path entries). Return false to veto — e.g. a rescale
  /// drain is still in flight — and the caller keeps the flow's control
  /// state and retries next tick, so reclamation is all-or-nothing: a
  /// reused FlowId can never meet a half-forgotten flow. Targets with no
  /// per-flow state accept by default.
  virtual bool release_flow(net::FlowId flow) {
    (void)flow;
    return true;
  }

  // --- capacity dimension (worker add/remove) ------------------------------
  /// Physical ceiling on workers (splitting cores in DES, spawned threads
  /// in rt). Fixed for the life of the engine. Defaults to max_degree()
  /// so degree-only targets (tests' fakes, the pre-elastic engines) need
  /// not override anything.
  virtual std::uint32_t worker_limit() const { return max_degree(); }

  /// Workers currently serving traffic, in [1, worker_limit()].
  virtual std::uint32_t active_workers() const { return worker_limit(); }

  /// Request `workers` active workers (clamped to [1, worker_limit()]).
  /// Growing commits immediately — the lanes already exist, the flow
  /// dimension starts using them on its next tick. Shrinking may return
  /// false (veto) while in-flight batches still occupy the retiring lanes;
  /// the caller retries. Fixed-capacity targets veto everything by
  /// default.
  virtual bool set_active_workers(std::uint32_t workers) {
    (void)workers;
    return false;
  }
};

}  // namespace mflow::control
