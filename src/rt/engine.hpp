// Real-thread MFLOW pipeline engine.
//
// Executes the paper's split/process/merge structure with actual threads
// and lock-free rings, on pooled packets whose per-packet cost is
// calibrated busy-work:
//
//   generator (caller thread)
//        | acquires a pool slab per packet, assigns micro-flow batches
//        | round-robin, pushes CHUNKS into the splitting rings
//        v
//   per-worker SPSC splitting rings                    (1:N fan-out)
//        |            (worker threads: process a chunk in its ring
//        |             slots, spinning cost_ns_per_packet per packet,
//        |             deposit the chunk, then commit its NF state)
//        v
//   per-worker SPSC buffer rings                       (N:1 fan-in)
//        |            (consumer thread: batched in-order merge across the
//        |             fan-in rings — batch ownership is implied by the
//        |             splitter's round-robin, so N workers deposit
//        |             concurrently with no global lock anywhere)
//        v
//   in-order output, verified against the generator's sequence.
//
// In engine.cpp one run is a file-local Pipeline: its constructor builds
// every ring, table and counter block before a thread spawns, and each
// thread runs one of its bodies — generate() on the caller thread, work(w)
// on worker w, consume() on the consumer — before fold() gathers the
// results after join. Every worker runs the same per-packet loop whatever
// the config: overlay decap, cost spin, injected fault, the NF chain's byte
// work (NAT rewrite), each step a no-op when its feature is off. After the
// chunk's deposit the worker commits NF state once per run of equal (flow,
// micro-flow) among the packets the merge ring accepted.
//
// Slab return is itself a fan-in fabric. The pool belongs to the generator
// thread alone, so every slab another thread retires goes home over an
// SPSC return ring: delivered slabs over the consumer's, slabs dropped
// mid-pipeline (injected faults, shed on backpressure) over their worker's.
// Each ring is sized past the pool, so a return never fails
// (EngineResult::recycle_* count the two ways a slab reaches the
// generator).
//
// Steady-state processing performs ZERO heap allocations: every packet
// lives in a pre-sized rt::PacketPool slab, every thread works on packets
// in their ring slots and a hop moves the RAII handle once, and recycling
// is ring-based. tests/test_pool.cpp enforces this
// with an allocation-counting guard; docs/PERFORMANCE.md documents the
// slab lifecycle.
//
// With workers == 1 this degenerates to the vanilla single-core pipeline,
// giving the 1-worker anchor for the scaling-efficiency curves in
// bench/ablate_scaling. NOTE: on a single-CPU host the engine is validated
// for *correctness* (ordering, conservation, no deadlock); wall-clock
// speedup requires real cores — docs/SCALING.md covers the threading
// model, the topology-aware core assignment (EngineConfig::topology), and
// the scalability profiler (EngineConfig::profile) end to end.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "control/capacity.hpp"
#include "nf/nf.hpp"
#include "rt/pool.hpp"
#include "rt/profiler.hpp"
#include "rt/reassembler.hpp"

namespace mflow::rt {

struct EngineConfig {
  /// Worker (processing) thread count, excluding generator and consumer.
  std::size_t workers = 2;
  /// Packets per micro-flow batch (the paper's split granularity).
  std::uint32_t batch_size = 256;
  /// Depth of every SPSC ring (power of two — SpscRing enforces this).
  std::size_t ring_capacity = 1024;
  /// Calibrated busy-work per packet; 0 measures pure framework overhead.
  std::uint32_t cost_ns_per_packet = 300;
  /// Backpressure bound: a full SPSC ring (or an exhausted pool) is
  /// retried (with yield) at most this many times before the packet is
  /// dropped and recovered — the pipeline degrades instead of spinning
  /// behind a stalled consumer. 0 retries forever (lossless).
  std::uint32_t max_push_spins = 1u << 16;
  /// Injected loss probability at the worker->merger deposit, to exercise
  /// the drop-and-recover path under real concurrency.
  double fault_drop_rate = 0.0;
  std::uint64_t fault_seed = 0x5eed;
  /// Packet-pool slabs for this run. 0 auto-sizes to cover every ring plus
  /// a chunk per thread, so a lossless run can never exhaust the pool.
  /// Deliberately small values exercise pool backpressure (the generator
  /// waits for recycled slabs instead of allocating).
  std::size_t pool_capacity = 0;
  /// Runtime rescale: once `after_packets` packets have been generated, the
  /// stream's split degree changes to `active_workers` (clamped to
  /// [1, workers]) — the control plane's decision replayed as a
  /// deterministic schedule. Applied at the next micro-flow boundary via an
  /// epoch message on the merger's internal SPSC ring (allocation-free, no
  /// stall: old-epoch batches drain under the old worker mapping while new
  /// ones fill under the new). When several entries fall due at one
  /// boundary, only the latest counts. A full epoch ring (possible only in
  /// a lossy run) defers the change to a later boundary; it is never
  /// dropped. Entries must be ascending in after_packets (the Engine
  /// constructor throws otherwise).
  struct Rescale {
    std::uint64_t after_packets = 0;
    std::size_t active_workers = 0;
  };
  std::vector<Rescale> rescales;
  /// Overlay mode: the generator builds REAL VXLAN-encapsulated bytes into
  /// every slab (inner Eth/IPv4/UDP + 50-byte outer stack; built once per
  /// micro-flow as a template and copied into each slab) and the workers
  /// decapsulate them — the rt twin of the DES overlay path. With `cache`
  /// on, each worker keeps a direct-mapped per-flow table (sized before
  /// thread spawn, so the no-alloc invariant holds): a hit validates the
  /// cached outer-header template against the packet's bytes and splices
  /// the outer stack off in one pull; a miss or a rescale-epoch mismatch
  /// runs the full validating decap and (re)installs the entry.
  struct OverlayConfig {
    bool enabled = false;
    bool cache = false;
    /// Distinct inner flows; each micro-flow batch belongs to one flow
    /// (batch % flows), so flow churn scales with this.
    std::uint32_t flows = 16;
    /// Per-worker direct-mapped cache slots (power of two). Values below
    /// `flows` force conflict evictions — the rt miss-storm knob.
    std::size_t cache_slots = 256;
    std::uint32_t vni = 42;
  };
  OverlayConfig overlay;
  /// Flow-state plane (churn mode): the generator registers each batch's
  /// flow in a control::FlowTable and sweeps out idle flows — the rt twin
  /// of the control plane's expiring flow table. The table's clock is the
  /// BATCH INDEX, not wall time. Only the generator thread reads or writes
  /// the table, so peak/expired/live counts are deterministic despite real
  /// threads.
  struct FlowTableConfig {
    bool enabled = false;
    /// Resident-entry bound (occupancy stays under it by construction).
    std::size_t capacity = 1 << 14;
    /// Batches of inactivity after which a flow expires.
    std::uint64_t ttl_batches = 1024;
    /// Expiry-sweep cadence, in batches.
    std::uint64_t sweep_every = 256;
    /// Without overlay mode, a fresh FlowId starts every this many batches
    /// (the churn generator). Overlay mode keeps its `batch % flows`
    /// identity and this knob is ignored.
    std::uint64_t flow_lifetime_batches = 8;
  };
  FlowTableConfig flow_table;
  /// Stateful NF plane: every worker runs the configured nf:: chain over
  /// each packet it delivers, with per-flow state held per `strategy` —
  /// kSharedLock: one state table and one engine mutex that every worker
  /// takes around each packet's upsert_apply (the lock every split packet
  /// serializes on); kScr / kFlowAffinity: one PRIVATE table per worker,
  /// folded into the merged state after join (exact, because
  /// nf::FlowState is a lattice). State is committed after the chunk's
  /// deposit, over the packets the merge ring accepted: a private table
  /// takes one upsert and one nf::commit per run of equal (flow, batch);
  /// the shared table keeps one locked update per packet. In overlay mode
  /// the NAT stage rewrites the real decapsulated header bytes of every
  /// packet before its deposit. Tables are built before thread spawn and a
  /// table grows only when its owner first sees a flow, so the no-alloc
  /// steady state holds once every live flow has reached every worker, as
  /// long as `state_capacity` covers the live flows.
  struct NfConfig {
    bool enabled = false;
    nf::Strategy strategy = nf::Strategy::kScr;
    nf::ChainConfig chain;
    /// Resident-flow bound per table. Eviction past it DROPS that flow's
    /// replica contribution (reclaim is not wired here), so size it to
    /// cover the flow population when digest equality matters.
    std::size_t state_capacity = 1 << 14;
  };
  NfConfig nf;
  /// Scalability profiler (rt/profiler.hpp): every pipeline thread records
  /// per-stage stall episodes (ring empty/full, pool dry) and sampled ring
  /// occupancy into its own cache-line-aligned counter block, folded into
  /// EngineResult::profile after join. Timing is episode-based (clock
  /// reads only when a stage is already blocked), so the happy path is
  /// untouched; off (the default) the counters are never written at all.
  bool profile = false;
  /// Cache/NUMA-topology-aware core assignment (rt/topology.hpp). With
  /// `pin_threads`, the engine discovers the host topology and pins
  /// workers to distinct physical cores first (SMT siblings only when
  /// cores run out) with generator+consumer co-located on the remaining
  /// cores of the same NUMA node — or leaves everything unpinned when the
  /// host cannot give each pipeline thread its own logical CPU. Explicit
  /// fields override the plan per thread (-1 / missing = use the plan).
  /// The generator (caller) thread's affinity is restored after run().
  struct TopologyConfig {
    bool pin_threads = false;
    int generator_cpu = -1;
    int consumer_cpu = -1;
    std::vector<int> worker_cpus;
  };
  TopologyConfig topology;
};

struct EngineResult {
  std::uint64_t packets = 0;          // delivered (survivors)
  std::uint64_t packets_dropped = 0;  // backpressure + injected drops
  /// `packets_dropped` by reason, each counted by the thread that gave up
  /// on the packet and summed after join; they always add up to it.
  struct DropReasons {
    std::uint64_t pool_dry = 0;    // generator: no slab within the budget
    std::uint64_t split_ring = 0;  // generator: split-ring push budget
    std::uint64_t merge_ring = 0;  // worker: merge-ring deposit budget
    std::uint64_t fault = 0;       // worker: injected (fault_drop_rate)
  };
  DropReasons drops;
  std::uint64_t batches_merged = 0;
  double wall_seconds = 0.0;
  /// Survivor seqs strictly increasing AND delivered + dropped == total
  /// (without drops this is exactly "output seq is 0..packets-1").
  bool in_order = false;
  /// Pool telemetry for the run (see rt::PacketPool counters).
  std::uint64_t pool_acquired = 0;
  std::uint64_t pool_recycled = 0;
  std::uint64_t pool_exhausted = 0;
  /// Epoch changes announced to the merger: at most one per micro-flow
  /// boundary whose wanted worker count (latest due EngineConfig::rescales
  /// entry, then the live request) differs from the current mapping.
  /// Same-degree requests announce nothing.
  std::uint64_t rescales_applied = 0;
  /// Overlay-mode accounting (all zero unless overlay.enabled), summed
  /// over the workers after join.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Cache entries discarded because the packet carried a newer rescale
  /// epoch than the entry was installed under.
  std::uint64_t cache_invalidations = 0;
  std::uint64_t decap_failures = 0;
  /// Flow-table telemetry (zero unless flow_table.enabled), nested under
  /// one domain following the `domain.metric` naming convention the
  /// scenario results and bench cases share. Peak is the high-water
  /// resident count — bounded by live flows, not cumulative.
  struct FlowTableStats {
    std::uint64_t peak = 0;
    std::uint64_t expired = 0;
    std::uint64_t live = 0;
  };
  FlowTableStats flow_table;
  /// NF-plane accounting (zero unless nf.enabled). `nf_packets`, the
  /// merged state and its digest (seeded 0, folded in flow-id order — same
  /// convention as nf::NfLayer::state_digest) cover only DELIVERED packets,
  /// so they are equal across all three strategies and equal to the
  /// single-threaded oracle over the same delivered stream.
  std::uint64_t nf_packets = 0;
  std::uint64_t nf_nat_rewrites = 0;
  std::uint64_t nf_nat_rewrite_failures = 0;
  std::uint64_t nf_lock_acquires = 0;
  std::uint64_t nf_flows = 0;
  std::uint64_t nf_state_digest = 0;
  std::vector<std::pair<net::FlowId, nf::FlowState>> nf_state;
  /// Recycle-fabric accounting (always on — plain per-thread counters).
  /// `recycle_ring_returns`: slabs the consumer (delivered) and the
  /// workers (dropped) sent home to the generator over the return rings.
  /// `recycle_cas_fallbacks`: the generator's free-list draws, slabs it
  /// took from the pool itself instead — the cold start, plus re-draws of
  /// slabs the generator shed itself.
  std::uint64_t recycle_ring_returns = 0;
  std::uint64_t recycle_cas_fallbacks = 0;
  /// Threads actually pinned under EngineConfig::topology (0 when pinning
  /// is off or the plan came back unpinned).
  std::uint32_t threads_pinned = 0;
  /// Active workers when the stream ended (differs from config.workers
  /// only if a rescale schedule entry or a live capacity request applied).
  std::uint32_t active_workers_final = 0;
  /// Per-stage stall/occupancy profile (enabled == EngineConfig::profile;
  /// feed to rt::attribute_scaling / rt::export_profile).
  ProfileReport profile;
  double packets_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(packets) / wall_seconds
                            : 0.0;
  }
};

/// Live capacity-request channel between an EngineCapacityAdapter and a
/// running Engine::run(). `requested` is the desired active worker count
/// (0 = no request); the generator samples it at micro-flow boundaries
/// only — the same place the deterministic rescale schedule applies — and
/// runs the identical epoch-announce + ring-flush protocol, then publishes
/// the applied value into `active`. Requests are therefore never torn:
/// between boundaries the old mapping keeps draining untouched. A posted
/// request stays wanted until it applies: if the merger's epoch ring is
/// full at a boundary, `active` keeps its value until a later one.
struct CapacityControl {
  std::atomic<std::uint32_t> requested{0};
  std::atomic<std::uint32_t> active{0};
};

class Engine {
 public:
  /// Throws std::invalid_argument for a config no run could serve: no
  /// workers, empty micro-flows (batch_size 0), or a rescale schedule that
  /// is not ascending in after_packets.
  explicit Engine(EngineConfig config);

  const EngineConfig& config() const { return config_; }

  /// Live capacity channel (see CapacityControl); normally driven through
  /// an EngineCapacityAdapter rather than directly.
  CapacityControl& capacity() { return capacity_; }
  const CapacityControl& capacity() const { return capacity_; }

  /// Push `total` packets through the split/process/merge pipeline.
  /// `on_output` (optional) observes every merged packet in order; the
  /// packet's skb is still attached at that point and is recycled right
  /// after the callback returns (copy-to-user is the end of skb life,
  /// exactly as in the kernel).
  EngineResult run(std::uint64_t total,
                   const std::function<void(const RtPacket&)>& on_output = {});

 private:
  EngineConfig config_;
  CapacityControl capacity_;
};

/// The rt engine's single control::CapacityTarget implementation. The rt
/// pipeline processes ONE generated stream, so the flow dimension reduces
/// to the capacity dimension: a degree-d retarget asks for d active
/// workers. Capacity requests post to the engine's CapacityControl and
/// are applied by the generator at the next micro-flow boundary via the
/// epoch rescale protocol — no veto needed, the epoch machinery IS the
/// drain ordering (old-epoch batches finish under the old mapping).
/// Requests may be posted before run() starts (applied at the first
/// boundary, deterministically) or from any thread mid-run.
class EngineCapacityAdapter final : public control::CapacityTarget {
 public:
  explicit EngineCapacityAdapter(Engine& engine) : engine_(engine) {}

  void set_flow_degree(net::FlowId, std::uint32_t degree) override {
    set_active_workers(std::max<std::uint32_t>(degree, 1));
  }
  std::uint32_t max_degree() const override { return active_workers(); }
  std::uint32_t worker_limit() const override {
    return static_cast<std::uint32_t>(engine_.config().workers);
  }
  std::uint32_t active_workers() const override {
    const std::uint32_t a =
        engine_.capacity().active.load(std::memory_order_acquire);
    return a != 0 ? a : worker_limit();
  }
  bool set_active_workers(std::uint32_t workers) override {
    engine_.capacity().requested.store(
        std::clamp<std::uint32_t>(workers, 1, worker_limit()),
        std::memory_order_release);
    return true;
  }

 private:
  Engine& engine_;
};

}  // namespace mflow::rt
