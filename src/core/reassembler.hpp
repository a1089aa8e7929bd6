// Batch-based flow reassembling (paper §III-B), made loss-tolerant.
//
// Packets of each micro-flow arrive FIFO into that micro-flow's buffer
// queue; a global (per-flow) *merging counter* tracks which micro-flow is
// currently being merged. The reader keeps consuming the current queue until
// the batch is exhausted, then advances the counter — re-ordering at batch
// granularity, which is why it is so much cheaper than the kernel's
// per-packet out-of-order queue.
//
// Batch completion: the splitter registers every dispatch (note_dispatch)
// and the currently-open batch (note_batch_open); a batch is complete when
// its consumed + retracted segment count covers dispatched segments AND the
// splitter has moved past it. Everything already dispatched is always
// consumable in order, so merging never stalls behind a partially-filled
// batch.
//
// Divergence from the paper: the paper's prototype assumes the handoff
// between splitting cores and the merge point is lossless, so a packet lost
// in flight would wedge the merging counter forever. Here every loss is
// survivable:
//  - known losses are retracted synchronously via note_drop (ring overruns,
//    fault-injected drops at the splitting queue);
//  - unknown losses (checksum drops of corrupted packets, packets delayed
//    beyond usefulness) are reclaimed by a sim-time eviction reaper: a flow
//    whose merge head makes no progress for `eviction_timeout` has its head
//    batch's missing segments charged as recovered drops and the counter
//    advanced.
// Both paths feed `drops_recovered`, so at quiescence
//     segs_dispatched == segs_merged + drops_recovered.
// Packets arriving for a batch the counter already passed (duplicates,
// too-late arrivals of evicted batches) are delivered out of order through
// the passthrough queue and counted as `late_deliveries` — the kernel's
// per-packet ofo queue / datagram semantics absorb them above us.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "stack/costs.hpp"
#include "stack/socket.hpp"
#include "util/fifo.hpp"
#include "util/stats.hpp"

namespace mflow::core {

struct ReassemblerParams {
  /// Merge-head stall duration after which the head batch's missing
  /// segments are evicted. 0 disables eviction (the paper's lossless
  /// assumption); requires a Simulator to be supplied.
  sim::Time eviction_timeout = 0;
  /// Upper bound on the pre-split ordering gate (see note_flow_split):
  /// past this, batch 1 stops waiting for straggling default-path packets.
  /// 0 means the gate is count-only (unit tests); requires a Simulator.
  sim::Time gate_grace = 0;
};

class Reassembler final : public stack::MergeBuffer {
 public:
  explicit Reassembler(const stack::CostModel& costs,
                       sim::Simulator* sim = nullptr,
                       ReassemblerParams params = {})
      : costs_(costs), sim_(sim), params_(params) {}

  // --- splitter side ---------------------------------------------------------
  /// A packet carrying `segs` wire segments was dispatched into `batch_id`.
  void note_dispatch(net::FlowId flow, std::uint64_t batch_id,
                     std::uint32_t segs);
  /// The splitter opened `batch_id` (all batches below it are closed).
  void note_batch_open(net::FlowId flow, std::uint64_t batch_id);

  /// A dispatched packet was lost before reaching the merge point (e.g.
  /// request-ring overrun, injected fault): retract it so merging does not
  /// stall. Idempotent against eviction: segments of batches the merge
  /// counter already passed are not recovered twice. `ahead` counts the
  /// segments a run-granular note_dispatch registered for packets still
  /// behind this one: the retraction treats them as not yet dispatched,
  /// as a per-packet dispatch would have left them.
  void note_drop(net::FlowId flow, std::uint64_t batch_id,
                 std::uint32_t segs, std::uint32_t ahead = 0);

  /// The flow just started (or resumed) splitting: `prior_segs` default-path
  /// segments were forwarded before micro-flow `first_batch` was opened.
  /// Batches >= first_batch are gated until that many passthrough segments
  /// have been deposited, so split packets can never overtake in-flight
  /// default-path packets. Earlier batches (previous split periods) keep
  /// flowing.
  void note_flow_split(net::FlowId flow, std::uint64_t prior_segs,
                       std::uint64_t first_batch = 1);

  /// The flow just stopped splitting (control-plane demotion): batches up to
  /// the currently open one may still be in flight, so the flow's subsequent
  /// default-path packets are held and released only once those batches have
  /// fully drained — or after gate_grace, whichever comes first (the same
  /// deadline tradeoff as the pre-split gate). The other half of the
  /// rescale-drain protocol.
  void note_flow_unsplit(net::FlowId flow);

  /// Invoked whenever retraction/eviction turns a stalled flow ready while
  /// no deposit is happening (so the socket reader can be re-raised).
  void set_ready_callback(std::function<void()> cb) {
    ready_cb_ = std::move(cb);
  }

  // --- stack::MergeBuffer ------------------------------------------------------
  void deposit(net::PacketPtr pkt, int from_core) override;
  net::PacketPtr pop_ready() override;
  bool pop_ready_available() const override;
  bool has_buffered() const override;
  sim::Time take_pending_charge() override;

  // --- statistics --------------------------------------------------------------
  /// Packets that arrived at the merge point out of original flow order
  /// (i.e. would have been delivered out of order without reassembly).
  std::uint64_t ooo_arrivals() const { return ooo_arrivals_; }
  std::uint64_t batches_merged() const { return batches_merged_; }
  std::uint64_t packets_merged() const { return packets_merged_; }
  std::size_t buffered_packets() const { return buffered_; }
  std::size_t max_buffered_packets() const { return max_buffered_; }
  /// Wire segments registered by note_dispatch / consumed by the merge.
  std::uint64_t segs_dispatched() const { return segs_dispatched_; }
  std::uint64_t segs_merged() const { return segs_merged_; }
  /// Dispatched segments written off as lost (note_drop + eviction).
  std::uint64_t drops_recovered() const { return drops_recovered_; }
  /// Eviction events (head-batch timeouts + forgiven pre-split gates).
  std::uint64_t evictions() const { return evictions_; }
  /// Packets delivered out of order because their batch had already been
  /// merged past (duplicates, post-eviction stragglers).
  std::uint64_t late_deliveries() const { return late_deliveries_; }
  /// Unsplit-hold releases forced by the grace timer instead of a clean
  /// drain (counted into evictions() as well).
  std::uint64_t forced_hold_releases() const { return forced_hold_releases_; }
  /// Nothing buffered and every dispatched segment accounted for — the
  /// rescale-drain protocol's completion condition.
  bool drained() const;
  /// Stall-detection -> eviction latency samples (ns).
  const util::RunningStats& recovery_latency_ns() const {
    return recovery_ns_;
  }
  /// True if some flow has work buffered or outstanding but nothing ready —
  /// with eviction disabled this is a permanent wedge once inputs stop.
  bool any_flow_blocked() const;

  // --- flow-state expiry -------------------------------------------------------
  /// True when the reassembler holds no in-flight work for `flow`: no
  /// buffered packets, no unsplit hold, every dispatched segment consumed
  /// or written off. Untracked flows are trivially quiesced. The safety
  /// predicate for forget_flow().
  bool flow_quiesced(net::FlowId flow) const;
  /// Drop all per-flow merge state — merge counter, batch ledgers AND the
  /// passthrough-segment credit feeding the pre-split gate. Only call when
  /// flow_quiesced(); a reused FlowId then starts from a clean slate
  /// (merge counter 1, gate credit 0) consistent with a fresh assigner.
  void forget_flow(net::FlowId flow);

  void reset_stats();

 private:
  struct FlowMerge {
    net::FlowId id = 0;
    std::uint64_t merge_counter = 1;  // batch currently being merged
    std::uint64_t open_batch = 0;     // splitter's current batch
    std::map<std::uint64_t, std::uint32_t> dispatched;  // batch -> segs
    std::map<std::uint64_t, std::uint32_t> consumed;
    std::map<std::uint64_t, std::uint32_t> dropped;  // retracted/evicted
    std::map<std::uint64_t, std::deque<net::PacketPtr>> queues;
    std::uint64_t max_wire_seen = 0;
    bool any_seen = false;
    /// Pre-split gate: batches >= gate_batch are held until prior_expected
    /// default-path segments of the flow have passed through (see
    /// passthrough_segs_), or until gate_grace elapses from split_at —
    /// whichever comes first. gate_batch > 1 after a re-split (earlier
    /// periods' batches keep flowing).
    std::uint64_t prior_expected = 0;
    std::uint64_t gate_batch = 1;
    sim::Time split_at = 0;
    /// Unsplit hold: default-path packets deposited after a demotion are
    /// parked here until batches <= hold_barrier have drained (or the
    /// grace timer force-releases them).
    util::Fifo<net::PacketPtr> hold;
    std::uint64_t hold_barrier = 0;
    bool holding = false;
    /// Eviction mark-and-sweep: set by the reaper on a blocked flow,
    /// cleared by any merge progress; a still-marked blocked flow on the
    /// next sweep is evicted.
    bool stall_marked = false;
    sim::Time stall_marked_at = 0;
  };

  FlowMerge& flow_state(net::FlowId flow);
  /// Try to pop the next in-order packet for one flow. Advances the merge
  /// counter over completed batches.
  net::PacketPtr try_pop_flow(FlowMerge& fm, bool charge);
  bool flow_has_ready(const FlowMerge& fm) const;
  bool gate_open_at(const FlowMerge& fm, std::uint64_t batch) const;
  bool gate_open(const FlowMerge& fm) const;
  /// Batches from before the flow's demotion (<= hold_barrier) are fully
  /// merged / written off.
  bool old_work_drained(const FlowMerge& fm) const;
  /// Move the unsplit hold into passthrough_ once old work drained (or
  /// unconditionally when `force`), crediting passthrough_segs_ — which is
  /// what lets a subsequent re-split's gate open.
  void flush_hold(FlowMerge& fm, bool force);
  /// Pending work (buffered or outstanding dispatched segments) with
  /// nothing ready: the state eviction exists to clear.
  bool flow_blocked(const FlowMerge& fm) const;
  /// One eviction step on a blocked flow; returns false when no further
  /// forced progress is possible.
  bool evict_step(FlowMerge& fm);
  void ensure_reaper();
  void reap();
  void notify_ready_if_available();

  const stack::CostModel& costs_;
  sim::Simulator* sim_ = nullptr;
  ReassemblerParams params_;
  std::unordered_map<net::FlowId, FlowMerge> flows_;
  std::vector<net::FlowId> flow_order_;  // deterministic round-robin
  std::size_t rr_ = 0;
  bool reaper_scheduled_ = false;
  std::function<void()> ready_cb_;

  /// Unsplit traffic (microflow_id == 0) and late/duplicate split packets
  /// pass straight through.
  util::Fifo<net::PacketPtr> passthrough_;
  /// Default-path segments deposited per flow — the supply side of the
  /// pre-split ordering gate.
  std::unordered_map<net::FlowId, std::uint64_t> passthrough_segs_;

  sim::Time pending_charge_ = 0;
  std::uint64_t ooo_arrivals_ = 0;
  std::uint64_t batches_merged_ = 0;
  std::uint64_t packets_merged_ = 0;
  std::uint64_t segs_dispatched_ = 0;
  std::uint64_t segs_merged_ = 0;
  std::uint64_t drops_recovered_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t late_deliveries_ = 0;
  std::uint64_t forced_hold_releases_ = 0;
  util::RunningStats recovery_ns_;
  std::size_t buffered_ = 0;
  std::size_t max_buffered_ = 0;
};

}  // namespace mflow::core
