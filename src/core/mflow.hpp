// MflowEngine: installs MFLOW onto a Machine.
//
// Ties together the three mechanisms:
//   splitting   — FlowSplitter hook at a stage transition, or IrqSplitter
//                 replacing the driver poll (per MflowConfig::split_point);
//   steering    — per-core splitting queues + optional per-branch pipeline
//                 (the caller installs steer::PairedPipelineSteering);
//   reassembling— a Reassembler per socket, plugged into the socket's
//                 packet-delivery thread (merge at recvmsg).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "control/capacity.hpp"
#include "control/policy.hpp"
#include "core/irq_split.hpp"
#include "core/splitter.hpp"

namespace mflow::core {

class MflowEngine final {
 public:
  MflowEngine(stack::Machine& machine, MflowConfig config);
  ~MflowEngine();

  const MflowConfig& config() const { return config_; }

  /// Live-tunable configuration: the splitters hold a reference to this
  /// instance, so changes (e.g. batch_size from the adaptive controller)
  /// apply from the next micro-flow boundary onward.
  MflowConfig& mutable_config() { return config_; }

  /// Create this socket's reassembler and plug it into the socket's reader.
  /// Must be called for every socket receiving split traffic.
  void attach_socket(std::uint16_t port, stack::Socket& socket);

  /// Install the configured splitting mechanism. Call after Machine::start()
  /// and after all attach_socket() calls.
  void install();

  Reassembler* reassembler_for_port(std::uint16_t port);

  // --- data-path entry points for MflowCapacityAdapter ---------------------
  // The control plane never calls these directly: it goes through a
  // control::CapacityTarget, implemented for this engine by
  // MflowCapacityAdapter below (the one place allowed to call them).
  /// Retarget one flow's split degree on every installed splitting
  /// mechanism. Effective from the flow's next packet; micro-flow targets
  /// change only at batch boundaries, and the reassemblers run the
  /// rescale-drain protocol for the transition.
  void set_flow_degree(net::FlowId flow, std::uint32_t degree);
  std::uint32_t max_degree() const {
    return static_cast<std::uint32_t>(config_.splitting_cores.size());
  }
  /// Flow-state expiry (control-plane TTL): forget the flow everywhere —
  /// split-point counters + degree override, reassembly ledgers, cached
  /// fast-path entries — IF no reassembler holds in-flight work for it;
  /// otherwise refuse (the Controller retries after the drain). All-or-
  /// nothing so a reused FlowId never meets half-stale state.
  bool release_flow(net::FlowId flow);

  /// Append the cumulative per-flow split-point totals across all
  /// splitters to `out` — the pull source for the control plane's
  /// Controller.
  void flow_totals(std::vector<control::Controller::FlowTotals>& out) const;

  // --- aggregate statistics ------------------------------------------------
  std::uint64_t ooo_arrivals() const;
  std::uint64_t batches_merged() const;
  std::uint64_t packets_merged() const;
  std::uint64_t drops_recovered() const;
  std::uint64_t evictions() const;
  std::uint64_t late_deliveries() const;
  /// True if any socket's reassembler holds a wedged flow (buffered or
  /// outstanding work with nothing ready).
  bool any_flow_blocked() const;
  /// Every reassembler fully drained (rescale-drain completion).
  bool drained() const;
  util::RunningStats recovery_latency_ns() const;
  void reset_stats();

 private:
  stack::Machine& machine_;
  MflowConfig config_;
  std::unordered_map<std::uint16_t, std::unique_ptr<Reassembler>>
      reassemblers_;
  std::unique_ptr<FlowSplitter> splitter_;
  std::vector<std::unique_ptr<IrqSplitter>> irq_splitters_;
};

/// The DES engine's single control::CapacityTarget implementation.
///
/// Flow dimension: forwards degree/release calls to the engine, deduping
/// no-op degree reissues (each engine-level set_flow_degree invalidates
/// fast-path cache entries, so a redundant call is not free) and clamping
/// every degree to the active-worker budget.
///
/// Capacity dimension: `active` is the worker budget in [1, worker_limit]
/// (worker_limit = the engine's splitting-core count). max_degree()
/// reports the CURRENT budget, so the Controller self-clamps on its next
/// tick. Growing commits immediately. Shrinking first demotes every
/// tracked flow whose degree exceeds the new budget (opening the normal
/// rescale-drain protocol on each), then VETOES the commit until every
/// reassembler reports drained() — the retiring lanes may still carry
/// in-flight micro-flow batches until then. The Autoscaler retries; the
/// shrink target is re-derived fresh on each attempt.
class MflowCapacityAdapter final : public control::CapacityTarget {
 public:
  explicit MflowCapacityAdapter(MflowEngine& engine,
                                std::uint32_t initial_workers = 0);

  void set_flow_degree(net::FlowId flow, std::uint32_t degree) override;
  std::uint32_t max_degree() const override { return active_; }
  bool release_flow(net::FlowId flow) override;

  std::uint32_t worker_limit() const override {
    return engine_.max_degree();
  }
  std::uint32_t active_workers() const override { return active_; }
  bool set_active_workers(std::uint32_t workers) override;

 private:
  std::uint32_t clamp_workers(std::uint32_t workers) const;

  MflowEngine& engine_;
  std::uint32_t active_ = 1;
  /// Mirror of the degrees the adapter has committed to the engine
  /// (split flows only), for dedup and shrink-time demotion.
  std::unordered_map<net::FlowId, std::uint32_t> degrees_;
};

}  // namespace mflow::core
