// ScalingPolicy + Controller: the decision stage of the control plane
// (monitor -> classifier -> scaler) and the loop that drives all three.
//
// The policy maps (class, rate) to a split degree: mice get degree 0
// (stay on the arrival core — no split, no reassembly latency), elephants
// get enough micro-flow lanes to absorb their measured rate given a
// per-core service capacity, clamped to the target's core budget. The
// Controller keeps ONE dense control record per flow — the flow's
// RateWindow (monitor.hpp), its Hysteresis (classifier.hpp) and its
// degree — in an array kept in first-seen order, which is also the order
// the sources report in, so a tick is one forward pass over the records.
// It pulls per-flow totals from a source callback on each tick and pushes
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
#include <limits>
#include <optional>
#include <utility>
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
  /// to [0, max_degree] — the deadband included, so a budget that shrank
  /// below the current degree always lowers it. `current_degree` anchors
  /// the shrink deadband (use 0 for a flow with no split history).
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
  // The records' sample rings belong to this Controller's pool.
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// One control iteration: sample -> classify -> retarget. Only committed
  /// degree changes reach the target (no-op ticks are free). `now` never
  /// decreases from one tick to the next. The source should report flows
  /// in a stable first-seen order, as both engines' sources do: the tick
  /// then finds each flow at the record after the previous one. A flow
  /// reported out of that order costs one hash lookup, never a different
  /// result.
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
  std::size_t tracked_flows() const { return live_; }
  std::size_t peak_tracked() const { return peak_; }
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
  /// `flow.<id>.rate_bps` gauges on every sample (retracted when the
  /// flow's record goes). Pass nullptr to detach.
  void export_to(trace::Registry* reg) { registry_ = reg; }

 private:
  /// One flow's whole control state, 96 bytes. Its key and its recency
  /// sit in parallel arrays (keys_, recency_): the tick's cursor test and
  /// the expiry scan read them without loading the record.
  struct FlowCtl {
    RateWindow rates;
    Hysteresis hysteresis;
    std::uint32_t degree = 0;  // committed split degree, 0 = unsplit
    std::uint32_t shard = 0;   // recency shard (FlowTableParams::shards)
  };

  /// Recency, exactly as a FlowTable keeps it: `last_seen` is the stamp of
  /// the insert or of the last touch that moved it forward, and `order`
  /// counts those stamps across all flows, so within one shard the record
  /// with the smallest `order` is the one at the head of that shard's
  /// recency chain. Tick times never decrease, so that chain is sorted by
  /// last_seen and every idle record is an expiry candidate. A dead record
  /// holds the kDead sentinels.
  struct Recency {
    sim::Time last_seen;
    std::uint64_t order;
  };

  /// Open-addressing map from flow to record position (linear probing,
  /// backward-shift deletion, load factor at most 1/2).
  class PositionIndex {
   public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /// `hash` is detail::mix64(flow), which also picks the flow's shard.
    std::uint32_t find(net::FlowId flow, std::uint64_t hash) const;
    std::uint32_t find(net::FlowId flow) const {
      return find(flow, detail::mix64(flow));
    }
    /// `flow` must be absent.
    void insert(net::FlowId flow, std::uint64_t hash, std::uint32_t pos);
    /// `flow` must be present.
    void move(net::FlowId flow, std::uint32_t pos);
    void erase(net::FlowId flow);

   private:
    struct Entry {
      net::FlowId flow;
      std::uint32_t pos;  // kNone: empty
    };
    std::size_t slot_of(net::FlowId flow, std::uint64_t hash) const;
    void grow();

    std::vector<Entry> entries_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
  };

  static constexpr sim::Time kDeadStamp =
      std::numeric_limits<sim::Time>::max();
  static constexpr std::uint64_t kDeadOrder =
      std::numeric_limits<std::uint64_t>::max();

  bool live(std::size_t i) const { return recency_[i].order != kDeadOrder; }
  /// Append a record for a new flow, first evicting the LRU record of its
  /// shard when the shard is full (the victim goes to `evicted`, to be
  /// forgotten after the new flow's sample, as a FlowTable reclaims).
  std::uint32_t insert(net::FlowId flow, std::uint64_t hash, sim::Time now,
                       std::optional<std::pair<net::FlowId, std::uint32_t>>&
                           evicted);
  /// Drop record i: its key, its ring and its recency. Leaves a
  /// tombstone until compact().
  void kill(std::size_t i);
  /// Squeeze the tombstones out, keeping first-seen order. Runs once they
  /// reach half the live records, so the arrays stay within 1.5x the live
  /// flows and each tombstone costs O(1) amortized.
  void compact();
  /// A record's place in its shard's recency chain: sorting by it gives
  /// FlowTable's (shard, oldest-first) order.
  struct ChainKey {
    std::uint32_t shard;
    std::uint32_t pos;
    std::uint64_t order;
    bool operator<(const ChainKey& o) const {
      return shard != o.shard ? shard < o.shard : order < o.order;
    }
  };
  ChainKey chain_key(std::uint32_t pos) const {
    return {records_[pos].shard, pos, recency_[pos].order};
  }
  /// Put `keys` in chain order: a counting sort by shard keeps each
  /// shard's keys in first-seen order, which is mostly recency order
  /// already, so most shards need no comparison sort.
  void sort_by_chain(std::vector<ChainKey>& keys) const;
  /// A full shard's records sorted by `order`, taken when it first evicts
  /// and consumed from the front. Stamps only grow, so an entry whose
  /// record still holds the same `order` is older than every record
  /// stamped since: the first such entry is the shard's LRU record.
  struct LruSnapshot {
    std::vector<ChainKey> keys;
    std::size_t next = 0;
  };
  /// The position of the shard's LRU record, the head of its recency
  /// chain. Sorting a snapshot of n records happens only after n
  /// evictions, touches or erases have spent the last one (or after a
  /// compact()), so it costs O(log n) per such event.
  std::uint32_t lru_of(std::uint32_t shard);
  /// A lower bound of last_seen over each block of kBlock records, so the
  /// expiry scan skips blocks with nothing idle. Touches only raise
  /// last_seen and a dead record's is kDeadStamp, so a bound only goes
  /// stale on the safe side; expiry and compact() make it exact again.
  static constexpr std::size_t kBlock = 64;
  /// Fold the stamp of the record appended at `pos` into its block's
  /// bound.
  void bound_block(std::size_t pos, sim::Time stamp);
  void expire_flows(sim::Time now);
  void publish_gauges(net::FlowId flow, const RateWindow& rates);
  /// Commit degree -> 0 for a split flow leaving its split.
  void demote(net::FlowId flow, std::uint32_t degree);
  /// A record leaving by eviction or erase: demote if split, retract
  /// gauges.
  void forget(net::FlowId flow, std::uint32_t degree);
  void retract_gauges(net::FlowId flow);

  ControllerParams params_;
  Source source_;
  std::vector<FlowTotals> totals_;  // source_'s output, reused every tick
  CapacityTarget* target_;
  ScalingPolicy policy_;
  SamplePool samples_;  // declared before the records that point into it
  // The records, in first-seen order, tombstones included: position i of
  // each array belongs to one flow.
  std::vector<net::FlowId> keys_;
  std::vector<Recency> recency_;
  std::vector<FlowCtl> records_;
  PositionIndex index_;
  std::vector<std::uint32_t> shard_live_;  // live records per shard
  std::uint32_t shard_mask_ = 0;
  std::size_t shard_capacity_ = 0;  // FlowTable's per-shard bound
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t next_order_ = 0;
  std::vector<sim::Time> block_min_;  // one per kBlock records
  std::vector<ChainKey> idle_scratch_;
  mutable std::vector<ChainKey> order_scratch_;
  mutable std::vector<ChainKey> bucket_scratch_;  // never shrinks
  mutable std::vector<std::uint32_t> shard_start_scratch_;
  std::vector<RescaleEvent> history_;
  sim::Time now_ = 0;  // the current (or last) tick
  std::uint64_t transitions_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t release_retries_ = 0;
  trace::Registry* registry_ = nullptr;
  std::vector<LruSnapshot> lru_;  // per shard, empty until it evicts
};

}  // namespace mflow::control
