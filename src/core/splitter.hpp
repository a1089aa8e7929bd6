// Flow splitting (paper §III-A).
//
// BatchAssigner implements the micro-flow policy shared by both splitting
// mechanisms: consecutive runs of `batch_size` packets form micro-flows,
// each micro-flow is assigned a splitting core round-robin, and the
// micro-flow ID (its position in the original flow) rides in the skb.
//
// FlowSplitter is the stage-transition mechanism: installed as the
// TransitionHook on the edge *into* a heavyweight device (e.g. VXLAN), it
// re-purposes the transition function to enqueue each micro-flow onto its
// target core's per-core, per-device splitting queue and raise a softirq
// there via IPI — instead of the default same-core enqueue.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "control/flowtable.hpp"
#include "control/policy.hpp"
#include "core/config.hpp"
#include "core/reassembler.hpp"
#include "stack/machine.hpp"

namespace mflow::core {

class BatchAssigner {
 public:
  explicit BatchAssigner(const MflowConfig& config)
      : config_(config), flows_(config.flow_table) {}

  struct Assignment {
    std::uint64_t microflow_id = 0;  // 0 => flow not split (mouse flow)
    int target_core = -1;
    bool new_batch = false;  // first packet of its micro-flow
    /// Flow just started (or resumed) splitting with this packet;
    /// microflow_id is the first batch of the new split period.
    bool first_split = false;
    /// Flow just stopped splitting: this packet takes the default path but
    /// earlier micro-flow batches may still be in flight behind it.
    bool unsplit = false;
    /// Default-path segments the flow had sent before (re)splitting — they
    /// may still be in flight, so the new period's first batch must wait
    /// behind them.
    std::uint64_t prior_segs = 0;
  };

  /// The leading packets of a same-flow run that share one assignment.
  struct Run {
    /// What assign() returns for the run's first packet. Its flags belong
    /// to that packet alone: the rest continue its micro-flow (or the
    /// default path) with every flag clear.
    Assignment first;
    std::uint32_t taken = 0;  // packets placed, >= 1
  };

  /// Classify + assign one packet of `flow`. `segs` counts the wire
  /// segments the skb carries (1 before GRO); `bytes` its payload size
  /// (rate-monitoring input, 0 when unknown).
  Assignment assign(net::FlowId flow, std::uint32_t segs,
                    std::uint32_t bytes = 0) {
    return assign_run(flow, 1, segs,
                      [bytes](std::uint32_t) { return bytes; })
        .first;
  }

  /// Classify + assign the leading packets of a run of `pkts` (>= 1)
  /// consecutive packets of `flow`, each carrying `segs` wire segments;
  /// `bytes_at(i)` is packet i's payload size. Places packets while they
  /// would get the first one's micro-flow and core: the run stops at a
  /// batch boundary, where the flow crosses the elephant threshold or
  /// flips between split and unsplit. The state afterwards, recency
  /// included, is what `taken` assign() calls leave, for one flow-table
  /// probe (plus one touch restamping the run at its last op).
  template <typename BytesAt>
  Run assign_run(net::FlowId flow, std::uint32_t pkts, std::uint32_t segs,
                 BytesAt&& bytes_at) {
    Run run;
    flows_.upsert_apply(flow, static_cast<sim::Time>(ops_ + 1),
                        [&](PerFlow& st) {
                          run = place(st, flow, pkts, segs);
                          for (std::uint32_t i = 0; i < run.taken; ++i)
                            st.seen_bytes += bytes_at(i);
                          return true;
                        });
    ops_ += run.taken;
    if (run.taken > 1) flows_.touch(flow, static_cast<sim::Time>(ops_));
    return run;
  }

  /// Runtime degree override from the control plane: 0 forces the default
  /// (unsplit) path, k splits round-robin over the first k splitting cores.
  /// Takes effect on the flow's next packet; targets change only at batch
  /// boundaries. Overrides win over the static elephant threshold.
  void set_flow_degree(net::FlowId flow, std::uint32_t degree);
  /// Current override (0 = none set or forced-mouse).
  std::uint32_t flow_degree(net::FlowId flow) const;

  /// Packets observed for a flow so far (elephant classification input).
  std::uint64_t observed(net::FlowId flow) const;

  /// The op (the table's clock: one tick per packet or degree change) that
  /// last refreshed the flow's recency; 0 if untracked. Expiry and capacity
  /// eviction reclaim flows in this order.
  std::uint64_t last_op(net::FlowId flow) const {
    return static_cast<std::uint64_t>(flows_.last_seen(flow).value_or(0));
  }

  /// Cumulative per-flow totals in first-seen order — the pull source the
  /// control plane's Controller differentiates into rates.
  void append_totals(std::vector<control::Controller::FlowTotals>& out) const;

  /// Forget one flow entirely — counters, batch cursor AND degree override
  /// (flow-state expiry). Without this an expired elephant's override
  /// would resurrect on the first packet of an unrelated flow that reuses
  /// the FlowId. Returns false if the flow was not tracked.
  bool erase_flow(net::FlowId flow) { return flows_.erase(flow); }

  std::size_t tracked_flows() const { return flows_.size(); }
  std::size_t peak_tracked() const { return flows_.peak_size(); }

 private:
  struct PerFlow {
    std::uint64_t seen_segs = 0;
    std::uint64_t seen_bytes = 0;
    std::uint64_t default_segs = 0;  // segments sent via the default path
    std::uint64_t batch = 0;       // current micro-flow id (1-based)
    std::uint32_t in_batch = 0;    // segments already placed in it
    std::size_t rr = 0;            // next splitting-core index
    int target = -1;
    bool split_active = false;     // currently in a splitting period
    /// Control-plane degree override rides in the same entry as the batch
    /// cursor so expiry reclaims both atomically.
    std::uint32_t override_degree = 0;
    bool has_override = false;
    std::uint64_t seq = 0;  // first-seen order for append_totals
    bool known = false;     // rr and seq set (a fresh entry is all zero)
  };

  /// The split and batch decision for a run of `pkts` packets of `segs`
  /// segments each (everything but the byte count), on the flow's entry.
  Run place(PerFlow& st, net::FlowId flow, std::uint32_t pkts,
            std::uint32_t segs);
  /// Staggers a new entry's first splitting core and gives it its
  /// first-seen rank; a no-op on a known one.
  void init_entry(PerFlow& st, net::FlowId flow);

  const MflowConfig& config_;
  control::FlowTable<PerFlow> flows_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t ops_ = 0;  // monotone packet counter = the table's clock
  // append_totals' (first-seen rank, totals) rows, reused every call.
  mutable std::vector<std::pair<std::uint64_t, control::Controller::FlowTotals>>
      totals_scratch_;
};

class FlowSplitter final : public stack::TransitionHook {
 public:
  /// `reassembler_for` maps a packet to the reassembler of its destination
  /// socket (so dispatch bookkeeping lands where merging happens).
  using ReassemblerLookup =
      std::function<Reassembler*(const net::Packet&)>;

  FlowSplitter(stack::Machine& machine, const MflowConfig& config,
               ReassemblerLookup lookup)
      : machine_(machine),
        config_(config),
        assigner_(config_),
        lookup_(std::move(lookup)) {}

  void on_forward(net::PacketPtr pkt, std::size_t next_index,
                  int from_core) override;

  std::uint64_t packets_split() const { return split_; }
  std::uint64_t packets_passed() const { return passed_; }
  const BatchAssigner& assigner() const { return assigner_; }
  BatchAssigner& assigner() { return assigner_; }

 private:
  stack::Machine& machine_;
  const MflowConfig& config_;
  BatchAssigner assigner_;
  ReassemblerLookup lookup_;
  std::uint64_t split_ = 0;
  std::uint64_t passed_ = 0;
};

}  // namespace mflow::core
