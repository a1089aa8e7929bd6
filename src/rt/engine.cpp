#include "rt/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>

#include "control/flowtable.hpp"
#include "rt/calibrate.hpp"
#include "rt/topology.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace mflow::rt {

namespace {

using Clock = std::chrono::steady_clock;

/// Packets staged per ring operation. Amortizes one acquire-load plus one
/// release-store across the whole chunk; small enough that a chunk never
/// approaches the default ring depth.
constexpr std::size_t kChunk = 128;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Thread-local trace buffer for the rt engine. Each thread appends to its
/// own vector while running and hands the whole batch to the tracer with
/// absorb() before the engine joins it — no shared mutable state while the
/// workers are live, which keeps the tsan preset quiet.
class ThreadTrace {
 public:
  ThreadTrace(trace::Tracer* tr, Clock::time_point t0, int core)
      : tr_(tr), t0_(t0), core_(static_cast<std::int16_t>(core)) {}

  ~ThreadTrace() { flush(); }

  void event(trace::EventKind kind, std::uint64_t seq,
             std::uint64_t microflow, std::uint64_t aux = 0,
             sim::Time dur = 0) {
    if (tr_ == nullptr || !tr_->sampled(seq)) return;
    trace::TraceEvent ev;
    ev.ts = static_cast<sim::Time>(ns_since(t0_));
    ev.dur = dur;
    ev.seq = seq;
    ev.microflow = microflow;
    ev.aux = aux;
    ev.kind = kind;
    ev.core = core_;
    buf_.push_back(ev);
  }

  void flush() {
    if (tr_ != nullptr && !buf_.empty()) tr_->absorb(std::move(buf_));
    buf_.clear();
  }

 private:
  trace::Tracer* tr_;
  Clock::time_point t0_;
  std::int16_t core_;
  std::vector<trace::TraceEvent> buf_;
};

/// One per-worker direct-mapped overlay cache slot: the resolved decap
/// decision for a flow, plus the outer-header template bytes a hit is
/// validated against (the outer UDP source port is the only outer field
/// that varies per flow — RFC 7348 entropy — so matching it proves the
/// cached template still describes this packet's outer stack).
struct CacheSlot {
  std::uint64_t flow_id = 0;
  std::uint32_t epoch = 0;  // rescale epoch the entry was installed under
  std::uint8_t sport_hi = 0;
  std::uint8_t sport_lo = 0;
  bool valid = false;
};

/// Offset of the outer UDP source port in an encapsulated packet:
/// Eth(14) + IPv4(20).
constexpr std::size_t kOuterSportOff =
    net::EthernetHeader::kSize + net::Ipv4Header::kSize;

/// Overlay mode's encapsulated header image for the micro-flow being
/// generated: inner Eth/IPv4/UDP plus the 50-byte VXLAN outer stack.
struct OverlayTemplate {
  net::PacketPtr pkt;
  std::uint64_t batch = 0;  // micro-flow `pkt` was built for (0 = none)
};

/// The generator's inner 5-tuple for flow `fid`: distinct per flow, so the
/// NF bindings (NAT port, LB backend) are per-flow functions.
net::FlowKey generated_flow(std::uint64_t fid) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                      static_cast<std::uint16_t>(40000 + (fid & 0x3FFF)),
                      5000, net::Ipv4Header::kProtoUdp};
}

// The generator fills a chunk where the split ring holds it: slabs and
// RtPacket metadata first, never writing through a slab, then one
// out-of-line stamp pass per mode. A recycled slab was last written by a
// worker, so stamping it is a cross-core ownership miss; two passes let the
// overlay stamp write-prefetch ahead of the copy (docs/PERFORMANCE.md §5).
// The plain stamp stays out of line too: inline in the slab loop it cost
// rt-forward more than half its throughput.

/// Prefetch for write what a pass (the overlay stamp, a worker) at `at`,
/// with `left` packets to go, touches next: every line of the slab
/// kPrefetch packets ahead, header bytes included, since a slab is one
/// line-aligned block (net::Packet).
constexpr std::size_t kPrefetch = 8;
[[gnu::always_inline]] inline void prefetch_ahead(const RtPacket* at,
                                                  std::size_t left) {
  if (kPrefetch >= left || !at[kPrefetch].skb) return;
  const auto* p = reinterpret_cast<const char*>(at[kPrefetch].skb.get());
  for (std::size_t line = 0; line < sizeof(net::Packet) / 64; ++line)
    __builtin_prefetch(p + 64 * line, 1);
}

/// Plain-mode stamp, the way the splitter stamps real packets: every packet
/// of the chunk belongs to flow `flow_id` and carries its 5-tuple when
/// `keyed` (the NF plane is on).
[[gnu::noinline]] void stamp_plain_chunk(RtPacket* pkts, std::size_t n,
                                         net::FlowId flow_id, bool keyed) {
  const net::FlowKey key = generated_flow(flow_id);
  for (std::size_t k = 0; k < n; ++k) {
    net::Packet& skb = *pkts[k].skb;
    skb.flow_id = flow_id;
    skb.wire_seq = pkts[k].seq;
    skb.microflow_id = pkts[k].batch;
    skb.payload_len = net::kTcpMss;
    if (keyed) skb.flow = key;
  }
}

/// Overlay-mode stamp: REAL encapsulated bytes. Every packet of a
/// micro-flow belongs to one inner flow (batch % flows), so the header
/// image is built once per batch and copy-assigned into each slab, header
/// bytes and all, since they live inline in the Packet. The
/// slabs are write-prefetched: on x86-64 the builtin emits prefetchw only
/// with prfchw enabled, and the read prefetch it emits otherwise measured
/// about a fifth slower.
#if defined(__x86_64__)
[[gnu::target("prfchw")]]
#endif
[[gnu::noinline]] void stamp_overlay_chunk(RtPacket* pkts, std::size_t n,
                                           OverlayTemplate& tmpl,
                                           std::uint64_t batch,
                                           std::uint64_t flows,
                                           std::uint32_t vni) {
  if (tmpl.batch != batch) {
    const std::uint64_t fidx = batch % flows;
    tmpl.pkt = net::make_udp_datagram(std::move(tmpl.pkt),
                                      generated_flow(fidx), net::kTcpMss);
    net::vxlan_encap(*tmpl.pkt, net::Ipv4Addr(192, 168, 1, 2),
                     net::Ipv4Addr(192, 168, 1, 3), vni);
    tmpl.pkt->flow_id = static_cast<net::FlowId>(fidx + 1);
    tmpl.pkt->microflow_id = batch;
    tmpl.batch = batch;
  }
  for (std::size_t k = 0; k < n; ++k) {
    prefetch_ahead(pkts + k, n - k);
    net::Packet& skb = *pkts[k].skb;
    skb = *tmpl.pkt;
    skb.wire_seq = pkts[k].seq;
  }
}

/// The NF plane is on and its chain runs `kind`.
bool nf_runs(const EngineConfig& cfg, nf::Kind kind) {
  const auto& chain = cfg.nf.chain.chain;
  return cfg.nf.enabled &&
         std::find(chain.begin(), chain.end(), kind) != chain.end();
}

/// A return ring is sized past the pool, so finding one full is a broken
/// invariant.
[[noreturn]] void return_ring_full() {
  std::fprintf(stderr, "rt::Engine: slab return ring full\n");
  std::abort();
}

/// One worker's counters: on its own stack while it runs, stored once at
/// exit, so no per-packet increment writes a line another worker writes.
struct WorkerCounts {
  std::uint64_t hits = 0, misses = 0, invals = 0, fails = 0;  // overlay
  std::uint64_t nf_pkts = 0, rewrites = 0, rewrite_fails = 0, locks = 0;
  std::uint64_t ring_returns = 0;  // dropped slabs sent home
  std::uint64_t fault_drops = 0, merge_sheds = 0;  // packets lost, by reason
};

/// What a surviving packet of a worker's chunk adds to its flow's NF state,
/// kept for the commit after the deposit has moved the packet on.
struct NfTally {
  bool on = false;  // the packet carries bytes the NF chain ran over
  net::FlowId flow = 0;
  std::uint64_t batch = 0;
  nf::PacketView view;
};

/// kSharedLock's one state table and the one lock every worker takes
/// around each packet's update of it.
struct SharedNfTable {
  explicit SharedNfTable(std::size_t capacity) : table({1, capacity, 0}) {}
  std::mutex mu;
  control::FlowTable<nf::FlowState> table;
};

/// A worker thread's private state, on that thread's stack.
struct Lane {
  std::size_t w;
  std::vector<CacheSlot>& cache;  // this worker's overlay cache
  util::Rng faults;
  ThreadTrace trace;
  WorkerCounts counts{};
  std::vector<NfTally> tally = std::vector<NfTally>(kChunk);
  // Open run of equal (flow, batch) if head.on: first packet, and fold.
  NfTally head{};
  nf::RunFold run{};
  nf::NatPortMemo nat_port{};
};

/// One Engine::run, on the caller's stack: its threads' bodies and state,
/// all built before any thread spawns so the steady state is
/// allocation-free. What one thread writes while the others run sits on
/// cache lines of its own, or on that thread's stack until it exits.
struct Pipeline {
  const EngineConfig& cfg;
  CapacityControl& capacity;
  const std::uint64_t total;
  const std::function<void(const RtPacket&)>& on_output;
  const std::size_t W = cfg.workers;
  // Auto-sizing covers every split- and merge-ring slot plus a chunk per
  // thread, so lossless runs never see pool exhaustion.
  const std::size_t pool_cap =
      cfg.pool_capacity != 0
          ? cfg.pool_capacity
          : cfg.ring_capacity * (2 * W + 2) + (W + 3) * kChunk;

  // The pool is declared FIRST so it is destroyed LAST: every ring below
  // holds PacketPtrs whose destructors recycle into it.
  PacketPool pool{{.slabs = pool_cap}};
  std::vector<std::unique_ptr<SpscRing<RtPacket>>> split_rings;
  // Epochs not yet reached by the merge head belong to unmerged
  // micro-flows. In a lossless run every micro-flow strictly between the
  // merge head and the one being opened holds all its slabs, so at most
  // pool_cap / batch_size + 2 are unmerged and an epoch ring that deep
  // never refuses an announcement; a lossy run may defer one to a later
  // boundary.
  RtReassembler merger{W, cfg.ring_capacity,
                       std::bit_ceil(pool_cap / cfg.batch_size + 2)};
  // Slab return fan-in: the pool belongs to the generator, so every slab
  // another thread retires goes home over an SPSC ring — ring 0 from the
  // consumer (delivered slabs), ring 1 + w from worker w (dropped ones).
  // Each ring has more slots than the pool has slabs and a ring only ever
  // holds distinct slabs of this pool (the generator releases the slots it
  // drew slabs from before it publishes them), so a return cannot fail.
  std::vector<std::unique_ptr<SpscRing<net::PacketPtr>>> return_rings;

  // Scalability profiler: one cache-line-aligned counter block per
  // pipeline thread, written only by its owner while running and folded
  // after join (rt/profiler.hpp). Untouched unless cfg.profile.
  ProfileReport profile{
      .generator = {}, .consumer = {}, .worker = std::vector<StageCounters>(W)};

  CorePlan plan;
  std::atomic<std::uint32_t> threads_pinned{0};

  const bool overlay_on = cfg.overlay.enabled;
  const std::uint64_t overlay_flows =
      std::max<std::uint32_t>(cfg.overlay.flows, 1);
  std::vector<std::vector<CacheSlot>> caches =
      std::vector<std::vector<CacheSlot>>(W);
  OverlayTemplate ov_tmpl;

  // Churn-plane flow table: batches registered per flow.
  std::unique_ptr<control::FlowTable<std::uint64_t>> ftable;
  const std::uint64_t flow_life =
      std::max<std::uint64_t>(cfg.flow_table.flow_lifetime_batches, 1);

  const bool nf_on = cfg.nf.enabled && !cfg.nf.chain.chain.empty();
  const bool nf_shared =
      nf_on && cfg.nf.strategy == nf::Strategy::kSharedLock;
  const bool nf_has_nat = nf_runs(cfg, nf::Kind::kNat);
  const nf::MaglevTable nf_maglev =
      nf_runs(cfg, nf::Kind::kLoadBalancer)
          ? nf::MaglevTable::build(cfg.nf.chain.lb_backends,
                                   cfg.nf.chain.lb_table_size,
                                   cfg.nf.chain.lb_seed)
          : nf::MaglevTable{};
  std::unique_ptr<SharedNfTable> nf_shared_table;
  std::vector<std::unique_ptr<control::FlowTable<nf::FlowState>>> nf_tables;

  std::atomic<bool> produce_done{false};
  // Per-worker exit flags, set after the worker's last deposit: an exited
  // worker with an empty buffer ring proves the micro-flow it owns at the
  // merge head is complete.
  std::vector<std::atomic<bool>> worker_exited =
      std::vector<std::atomic<bool>>(W);
  // Packets lost to backpressure (retry budget exhausted) or injected
  // faults. The consumer terminates on consumed + dropped == total, so
  // every loss must be counted by whoever gave up on the packet.
  std::atomic<std::uint64_t> dropped{0};

  // Captured once before any thread spawns; the spawn happens-before makes
  // the pointer safely visible to every thread without atomics.
  trace::Tracer* const tr = trace::active();
  Clock::time_point t0;

  // Written only by the thread that owns them, read by fold() after join:
  // the consumer's on a cache line of their own, the workers' once, at exit.
  alignas(64) std::uint64_t consumed = 0;
  bool in_order = true;
  std::uint64_t consumer_ring_returns = 0;
  std::vector<WorkerCounts> worker_counts = std::vector<WorkerCounts>(W);

  // The generator's state (the caller thread only), on cache lines of its
  // own. Runtime rescale: the active workers are the prefix [0, w_active),
  // mapped round-robin from batch epoch_first on and re-evaluated only at
  // micro-flow boundaries.
  alignas(64) std::uint64_t next_seq = 0;
  std::uint64_t batch = 0;                  // micro-flow being generated
  std::uint32_t in_batch = cfg.batch_size;  // its packets generated so far
  std::size_t target = 0;                   // the worker that owns it
  std::size_t w_active = W, wanted = W;
  std::uint64_t epoch_first = 1;
  std::size_t rescale_idx = 0;  // next schedule entry not yet due
  std::uint64_t rescales_applied = 0;
  // Split ring w carried a batch since its last epoch-flush marker.
  std::vector<char> unmarked = std::vector<char>(W, 0);
  // Return ring ret_r's front span, drawn from in place: the slabs not yet
  // taken, and how many were taken since its last release.
  std::span<net::PacketPtr> ret;
  std::size_t ret_r = 0, ret_taken = 0;
  std::uint64_t gen_free_list_draws = 0;  // slabs drawn off the pool itself
  std::uint64_t pool_dry_drops = 0, split_sheds = 0;  // packets lost, by reason
  StageCounters* const gen_prof = cfg.profile ? &profile.generator : nullptr;
  StallClock pool_dry, out_full;

  Pipeline(const EngineConfig& config, CapacityControl& capacity_control,
           std::uint64_t total_packets,
           const std::function<void(const RtPacket&)>& output)
      : cfg(config),
        capacity(capacity_control),
        total(total_packets),
        on_output(output) {
    for (std::size_t w = 0; w < W; ++w)
      split_rings.push_back(
          std::make_unique<SpscRing<RtPacket>>(cfg.ring_capacity));
    for (std::size_t r = 0; r <= W; ++r)
      return_rings.push_back(std::make_unique<SpscRing<net::PacketPtr>>(
          std::bit_ceil(pool_cap + 1)));

    // Topology-aware core assignment: auto-plan from the discovered
    // topology, then apply any explicit per-thread overrides. Every
    // pipeline thread pins itself when its body starts.
    plan.workers.assign(W, -1);
    if (cfg.topology.pin_threads) {
      plan = plan_cores(CpuTopology::discover(), W);
      if (cfg.topology.generator_cpu >= 0)
        plan.generator = cfg.topology.generator_cpu;
      if (cfg.topology.consumer_cpu >= 0)
        plan.consumer = cfg.topology.consumer_cpu;
      for (std::size_t i = 0; i < cfg.topology.worker_cpus.size() && i < W;
           ++i)
        if (cfg.topology.worker_cpus[i] >= 0)
          plan.workers[i] = cfg.topology.worker_cpus[i];
    }

    // Overlay mode: one direct-mapped cache per worker (only its owner
    // touches it) and the generator's header template.
    if (overlay_on && cfg.overlay.cache) {
      const std::size_t slots =
          std::bit_ceil(std::max<std::size_t>(cfg.overlay.cache_slots, 1));
      for (auto& c : caches) c.resize(slots);
    }
    if (overlay_on) ov_tmpl.pkt = net::make_packet();

    // Flow-state plane (churn mode): one FlowTable that only the generator
    // touches — it inserts, stamps and sweeps; workers never see it.
    if (cfg.flow_table.enabled) {
      ftable = std::make_unique<control::FlowTable<std::uint64_t>>(
          control::FlowTableParams{
              .capacity = cfg.flow_table.capacity,
              .ttl = static_cast<sim::Time>(
                  std::max<std::uint64_t>(cfg.flow_table.ttl_batches, 1))});
    }

    // NF plane: kSharedLock's one table sits behind its own mutex; the
    // private tables are strictly single-writer (only their owning worker
    // touches them while threads run; folded after join).
    if (nf_shared) {
      nf_shared_table = std::make_unique<SharedNfTable>(cfg.nf.state_capacity);
    } else if (nf_on) {
      for (std::size_t w = 0; w < W; ++w)
        nf_tables.push_back(
            std::make_unique<control::FlowTable<nf::FlowState>>(
                control::FlowTableParams{1, cfg.nf.state_capacity, 0}));
    }
    t0 = Clock::now();
  }

  /// Generator (the caller thread): round-robin micro-flow batches, as the
  /// splitting mechanisms do, in chunks that never cross a micro-flow, so
  /// each chunk goes to one worker in one publish.
  void generate() {
    const bool pinned =
        plan.generator >= 0 && pin_current_thread(plan.generator);
    if (pinned) threads_pinned.fetch_add(1, std::memory_order_relaxed);
    ThreadTrace gt(tr, t0, static_cast<int>(W) + 1);
    capacity.active.store(static_cast<std::uint32_t>(W),
                          std::memory_order_release);
    while (next_seq < total) {
      if (in_batch >= cfg.batch_size) open_microflow();
      split_chunk(gt);
    }
    produce_done.store(true, std::memory_order_release);
    gt.flush();
    if (gen_prof != nullptr) gen_prof->active_ns = ns_since(t0);
    // Slabs left in the return span go back to the pool's free list.
    for (net::PacketPtr& slab : ret) slab.reset();
    return_rings[ret_r]->release(ret.size());
    if (pinned) unpin_current_thread();
  }

  /// The flow micro-flow `b` belongs to: overlay mode cycles through its
  /// inner flows, with the flow table on a new flow starts every
  /// flow_lifetime_batches (churn), and otherwise each is its own flow.
  net::FlowId flow_of(std::uint64_t b) const {
    if (overlay_on) return static_cast<net::FlowId>(b % overlay_flows + 1);
    return static_cast<net::FlowId>(ftable != nullptr ? b / flow_life + 1 : b);
  }

  /// Open the next micro-flow. The latest due schedule entry, then the
  /// live capacity request (rt::EngineCapacityAdapter), which wins as the
  /// operator's latest word, set the wanted worker count; at most one
  /// epoch is announced per boundary.
  void open_microflow() {
    ++batch;
    in_batch = 0;
    while (rescale_idx < cfg.rescales.size() &&
           next_seq >= cfg.rescales[rescale_idx].after_packets)
      wanted = cfg.rescales[rescale_idx++].active_workers;
    if (const std::uint32_t req =
            capacity.requested.load(std::memory_order_acquire);
        req != 0)
      wanted = req;
    apply_wanted();
    target = static_cast<std::size_t>((batch - epoch_first) % w_active);
    unmarked[target] = 1;
    if (ftable == nullptr) return;
    // Register the batch's flow before any of its packets are pushed. The
    // clock is the batch index.
    const auto now = static_cast<sim::Time>(batch);
    const net::FlowId fid = flow_of(batch);
    ++ftable->upsert(fid, now);
    ftable->touch(fid, now);
    if (batch % std::max<std::uint64_t>(cfg.flow_table.sweep_every, 1) == 0)
      ftable->expire_idle(now);
  }

  /// Epoch-change protocol, run at a boundary when the wanted worker count
  /// differs from the mapping: open a new epoch at the batch being opened
  /// and announce it to the merger before any packet of that batch is
  /// pushed, so the push's release/acquire chain carries the epoch to the
  /// consumer. Then close every previously-active ring with an epoch-flush
  /// marker so the consumer can prove its final old-epoch batch is complete
  /// — after a shrink no later batch would ever arrive there to provide the
  /// FIFO evidence. A ring that carried no batch since its last marker
  /// already has that evidence; marking it again would pile markers onto a
  /// ring the merge head may never visit until they fill it.
  ///
  /// A full epoch ring defers the change: mapping and rings stay as they
  /// are and `wanted` is retried at the next boundary. The generator never
  /// blocks on the ring, since in a lossy run the merge head may be waiting
  /// for a batch only the generator can still push.
  void apply_wanted() {
    const std::size_t nw = std::clamp<std::size_t>(wanted, 1, W);
    if (nw == w_active ||
        !merger.announce_epoch({batch, static_cast<std::uint32_t>(nw)}))
      return;
    ++rescales_applied;
    for (std::size_t w = 0; w < w_active; ++w) {
      if (!unmarked[w]) continue;
      RtPacket mark;
      mark.batch = batch;
      mark.marker = true;
      YieldRetry retry(cfg.max_push_spins);
      bool pushed;
      // A shed marker is fine: end-of-stream force_advance covers the tail.
      while (!(pushed = split_rings[w]->try_push(std::move(mark))) &&
             retry.again()) {
      }
      unmarked[w] = !pushed;
    }
    w_active = nw;
    epoch_first = batch;
    capacity.active.store(static_cast<std::uint32_t>(nw),
                          std::memory_order_release);
  }

  /// Build the open micro-flow's next chunk in its worker's split-ring
  /// slots and publish it. Room is awaited within the shared budget before
  /// any slab is drawn (past it the chunk is shed whole); a packet that
  /// gets no slab is shed.
  void split_chunk(ThreadTrace& gt) {
    std::uint64_t want = std::min<std::uint64_t>(
        {kChunk, cfg.batch_size - in_batch, total - next_seq});
    auto& ring = *split_rings[target];
    std::span<RtPacket> room;
    YieldRetry retry(cfg.max_push_spins);
    while ((room = ring.reserve(want)).empty()) {
      if (gen_prof != nullptr) out_full.stall();
      if (!retry.again()) break;
    }
    if (gen_prof != nullptr)
      out_full.resolve(gen_prof->output_full_episodes,
                       gen_prof->output_full_ns);
    if (room.empty()) {
      dropped.fetch_add(want, std::memory_order_release);
      split_sheds += want;
      for (; want != 0; --want, ++next_seq, ++in_batch) {
        gt.event(trace::EventKind::kSplitDeposit, next_seq, batch,
                 static_cast<std::uint64_t>(target));
        gt.event(trace::EventKind::kDrop, next_seq, batch);
      }
      return;
    }
    const auto epoch = static_cast<std::uint32_t>(rescales_applied);
    std::size_t staged = 0;
    for (std::size_t k = 0; k < room.size(); ++k, ++next_seq, ++in_batch) {
      RtPacket& pkt = room[staged];
      const bool drawn = draw_slab(pkt.skb);
      if (gen_prof != nullptr)
        pool_dry.resolve(gen_prof->pool_dry_episodes, gen_prof->pool_dry_ns);
      gt.event(trace::EventKind::kSplitDeposit, next_seq, batch,
               static_cast<std::uint64_t>(target));
      if (!drawn) {
        // Pool stayed dry past the retry budget: shed the packet here
        // rather than wedging the generator.
        dropped.fetch_add(1, std::memory_order_release);
        ++pool_dry_drops;
        gt.event(trace::EventKind::kDrop, next_seq, batch);
        continue;
      }
      pkt.seq = next_seq;
      pkt.batch = batch;
      pkt.epoch = epoch;
      pkt.last = next_seq + 1 == total;
      pkt.marker = pkt.batch_end = false;
      ++staged;
    }
    // Free the return slots drawn from before their slabs can come home.
    return_rings[ret_r]->release(std::exchange(ret_taken, 0));
    // A chunk never crosses a micro-flow, so a micro-flow's final packet is
    // the last of its final chunk (unless it was shed).
    if (staged != 0 && room[staged - 1].seq + 1 == next_seq &&
        (in_batch == cfg.batch_size || next_seq == total))
      room[staged - 1].batch_end = true;
    if (overlay_on) {
      stamp_overlay_chunk(room.data(), staged, ov_tmpl, batch, overlay_flows,
                          cfg.overlay.vni);
    } else {
      stamp_plain_chunk(room.data(), staged, flow_of(batch), nf_on);
    }
    ring.publish(staged);
    // Sampled fan-out pressure on the split ring just written to.
    if (gen_prof != nullptr)
      gen_prof->count_batch(staged, [&] { return ring.size(); });
  }

  /// Draw a slab into `into`, an empty split-ring slot: off the front span
  /// of a return ring in place (the consumer's first: the merge side's
  /// fan-in shape), else the pool's free list, else bounded yield-retry.
  /// False when the pool stays dry.
  bool draw_slab(net::PacketPtr& into) {
    YieldRetry retry(cfg.max_push_spins);
    for (;;) {
      for (std::size_t r = 0; ret.empty() && r <= W; ++r) {
        return_rings[ret_r]->release(std::exchange(ret_taken, 0));
        ret = return_rings[ret_r = r]->front(kChunk);
      }
      if (!ret.empty()) {
        into = std::move(ret.front());
        ret = ret.subspan(1);
        ++ret_taken;
        return true;
      }
      if ((into = pool.acquire())) {
        ++gen_free_list_draws;
        return true;
      }
      if (gen_prof != nullptr) pool_dry.stall();
      if (!retry.again()) return false;
    }
  }

  /// Worker `w`: run each packet of the chunk at its split ring's front
  /// through process() in its slot, deposit the survivors into its buffer
  /// ring in one batch, fold the NF state of those the ring accepted, then
  /// release the slots (held while a full buffer ring blocks the deposit;
  /// docs/PERFORMANCE.md §2 says why the merge cannot wait on them).
  void work(std::size_t w) {
    if (plan.workers[w] >= 0 && pin_current_thread(plan.workers[w]))
      threads_pinned.fetch_add(1, std::memory_order_relaxed);
    auto& in = *split_rings[w];
    Lane lane{w, caches[w], util::Rng(cfg.fault_seed + 0x9e37 * (w + 1)),
              ThreadTrace(tr, t0, static_cast<int>(w))};
    StageCounters* const pc = cfg.profile ? &profile.worker[w] : nullptr;
    StallClock input_dry;
    const auto start = Clock::now();
    bool saw_last = false;
    while (true) {
      const std::span<RtPacket> slots = in.front(kChunk);
      const std::size_t n = slots.size();
      if (n == 0) {
        if (saw_last ||
            (produce_done.load(std::memory_order_acquire) && in.empty()))
          break;
        if (pc != nullptr) input_dry.stall();
        std::this_thread::yield();
        continue;
      }
      if (pc != nullptr) {
        input_dry.resolve(pc->input_dry_episodes, pc->input_dry_ns);
        // Sampled queue pressure on this worker's input ring (consumer-
        // side size() is exact for already-published items).
        pc->count_batch(n, [&] { return in.size(); });
      }
      // Process in the ring slots; compact survivors to the front of the
      // chunk so one deposit_batch moves them all into the buffer ring. A
      // lost packet's slab has gone home, so every slot is empty by the
      // time it is released.
      std::size_t m = 0;
      for (std::size_t i = 0; i < n; ++i) {
        RtPacket& pkt = slots[i];
        if (overlay_on) prefetch_ahead(&pkt, n - i);
        saw_last = saw_last || pkt.last;
        if (!process(lane, pkt, lane.tally[m])) continue;
        if (m != i) slots[m] = std::move(pkt);
        ++m;
      }
      const std::size_t ok =
          merger.deposit_batch(w, slots.data(), m, cfg.max_push_spins, pc);
      // Scalar metadata survives the move into the buffer ring, so tracing
      // off the split slots after deposit_batch is safe.
      for (std::size_t i = 0; i < ok; ++i) {
        lane.trace.event(trace::EventKind::kReasmHold, slots[i].seq,
                         slots[i].batch);
        if (lane.tally[i].on) fold_nf(lane, lane.tally[i]);
      }
      for (std::size_t i = ok; i < m; ++i)
        drop(lane, slots[i], lane.counts.merge_sheds);
      in.release(n);
    }
    commit_run(lane);
    lane.trace.flush();
    worker_counts[w] = lane.counts;
    if (pc != nullptr) {
      input_dry.resolve(pc->input_dry_episodes, pc->input_dry_ns);
      pc->active_ns = ns_since(start);
    }
    worker_exited[w].store(true, std::memory_order_release);
  }

  /// The worker's steps for one packet, in order. Returns false when the
  /// packet was lost and leaves nothing in its place; a survivor leaves in
  /// `tally` what it adds to the NF state.
  bool process(Lane& lane, RtPacket& pkt, NfTally& tally) {
    lane.trace.event(trace::EventKind::kRingDequeue, pkt.seq, pkt.batch);
    const bool carries = !pkt.marker && pkt.skb;
    if (overlay_on && carries) decap(lane, pkt);
    const std::uint32_t cost_ns = pkt.marker ? 0 : cfg.cost_ns_per_packet;
    if (cost_ns > 0) spin_ns(cost_ns);
    lane.trace.event(trace::EventKind::kStageExit, pkt.seq, pkt.batch,
                     /*aux=*/0xFF, static_cast<sim::Time>(cost_ns));
    tally.on = false;
    if (!pkt.marker && cfg.fault_drop_rate > 0.0 &&
        lane.faults.chance(cfg.fault_drop_rate))
      return fault_drop(lane, pkt);
    if (nf_on && carries) apply_nf(lane, pkt, tally);
    return true;
  }

  /// Strip the VXLAN outer stack off the packet's real bytes: splice it off
  /// on a valid cache hit, else run the full validating decap and
  /// (re)install the entry with this packet's outer template and epoch.
  void decap(Lane& lane, const RtPacket& pkt) {
    net::Packet& skb = *pkt.skb;
    if (!lane.cache.empty()) {
      CacheSlot& slot = lane.cache[skb.flow_id & (lane.cache.size() - 1)];
      if (slot.valid && slot.flow_id == skb.flow_id) {
        if (slot.epoch != pkt.epoch) {
          // Rescale epoch advanced past the entry: the decision is stale
          // by protocol, even though the bytes still match.
          slot.valid = false;
          ++lane.counts.invals;
        } else {
          const auto bytes = skb.buf.data();
          if (bytes.size() >= net::kVxlanOverhead &&
              bytes[kOuterSportOff] == slot.sport_hi &&
              bytes[kOuterSportOff + 1] == slot.sport_lo &&
              net::vxlan_splice_decap(skb, cfg.overlay.vni)) {
            ++lane.counts.hits;
            return;
          }
        }
      }
    }
    const auto bytes = skb.buf.data();
    std::uint8_t hi = 0, lo = 0;
    if (bytes.size() > kOuterSportOff + 1) {
      hi = bytes[kOuterSportOff];
      lo = bytes[kOuterSportOff + 1];
    }
    const net::DecapResult res = net::vxlan_decap(skb);
    if (!res.ok || res.vni != cfg.overlay.vni) {
      ++lane.counts.fails;
    } else if (!lane.cache.empty()) {
      ++lane.counts.misses;
      lane.cache[skb.flow_id & (lane.cache.size() - 1)] =
          CacheSlot{skb.flow_id, pkt.epoch, hi, lo, true};
    }
  }

  /// An injected fault lost the packet. A micro-flow's final packet
  /// completes it at the merge, so a lost one leaves a marker for the next
  /// micro-flow in its place; returns whether that marker was left.
  bool fault_drop(Lane& lane, RtPacket& pkt) {
    drop(lane, pkt, lane.counts.fault_drops);
    if (!pkt.batch_end) return false;
    ++pkt.batch;
    pkt.marker = true;
    pkt.batch_end = false;
    return true;
  }

  /// The NF chain's per-packet work: source-NAT the real header bytes with
  /// the flow's pure port binding, and tally the packet for fold_nf().
  void apply_nf(Lane& lane, const RtPacket& pkt, NfTally& tally) {
    net::Packet& skb = *pkt.skb;
    nf::view_into(skb, tally.view);
    tally.flow = skb.flow_id;
    tally.batch = pkt.batch;
    tally.on = true;
    lane.trace.event(trace::EventKind::kNfApply, pkt.seq, pkt.batch);
    if (!nf_has_nat || !overlay_on || skb.encapsulated) return;
    if (const auto port = lane.nat_port(cfg.nf.chain, skb.flow); port != 0)
      ++(nf::nat_rewrite(cfg.nf.chain, skb, port) ? lane.counts.rewrites
                                                  : lane.counts.rewrite_fails);
  }

  /// Fold a delivered packet into the open run of equal (flow, batch),
  /// committing the run it ends first. kSharedLock commits every packet on
  /// its own: one locked update each, the serialization it stands for.
  void fold_nf(Lane& lane, const NfTally& t) {
    ++lane.counts.nf_pkts;
    const NfTally& h = lane.head;
    if (h.on && (t.flow != h.flow || t.batch != h.batch)) commit_run(lane);
    if (!h.on) lane.head = t;
    lane.run.add(t.view);
    if (nf_shared) commit_run(lane);
  }

  /// Commit the open run: one upsert and one fold. The recency clock is the
  /// batch index, as for the churn flow table (ttl 0: it orders evictions).
  void commit_run(Lane& lane) {
    if (!lane.head.on) return;
    const auto now = static_cast<sim::Time>(lane.head.batch);
    const auto update = [&](nf::FlowState& st) {
      nf::commit(cfg.nf.chain, &nf_maglev, lane.head.view.flow, lane.run, st);
    };
    if (nf_shared) {
      ++lane.counts.locks;
      std::lock_guard lock(nf_shared_table->mu);
      nf_shared_table->table.upsert_apply(lane.head.flow, now, update);
    } else {
      update(nf_tables[lane.w]->upsert(lane.head.flow, now));
    }
    lane.head.on = false;
    lane.run = {};
  }

  /// Give up on a packet: a lost one at the fault site, or the deposit's
  /// unaccepted tail. A shed marker loses no packet (a lost batch_end was
  /// counted when its marker replaced it). Anything else is counted, so
  /// the consumer's conservation check still terminates, and its slab goes
  /// home through the worker's return ring.
  void drop(Lane& lane, RtPacket& pkt, std::uint64_t& reason) {
    if (pkt.marker) return;
    dropped.fetch_add(1, std::memory_order_release);
    ++reason;
    lane.trace.event(trace::EventKind::kDrop, pkt.seq, pkt.batch);
    if (!pkt.skb) return;
    if (!return_rings[lane.w + 1]->try_push(std::move(pkt.skb)))
      return_ring_full();
    ++lane.counts.ring_returns;
  }

  /// Consumer: batched in-order merge plus order verification. Gap-tolerant:
  /// a drop leaves a hole in the seq space, so "in order" means survivor
  /// seqs strictly increase (exactly 0..N-1 when nothing drops).
  void consume() {
    if (plan.consumer >= 0 && pin_current_thread(plan.consumer))
      threads_pinned.fetch_add(1, std::memory_order_relaxed);
    StageCounters* const cc = cfg.profile ? &profile.consumer : nullptr;
    StallClock merge_dry;
    const auto start = Clock::now();
    ThreadTrace ct(tr, t0, static_cast<int>(W));  // track one past workers
    auto& home = *return_rings[0];
    std::uint64_t next_seq_floor = 0;
    while (consumed + dropped.load(std::memory_order_acquire) < total) {
      // Each packet is merged, checked and observed in its buffer-ring
      // slot, and its slab moved straight into the return ring's slots.
      const std::span<net::PacketPtr> slabs = home.reserve(kChunk);
      if (slabs.empty()) return_ring_full();
      std::size_t s = 0;
      const std::size_t n =
          merger.drain_ready(slabs.size(), [&](RtPacket& pkt) {
            if (pkt.seq < next_seq_floor) in_order = false;
            next_seq_floor = pkt.seq + 1;
            ct.event(trace::EventKind::kReasmRelease, pkt.seq, pkt.batch);
            if (on_output) on_output(pkt);
            if (pkt.skb) slabs[s++] = std::move(pkt.skb);
          });
      if (n == 0) {
        // The flag is read before the owner is looked up again and before
        // the ring: an exited worker has seen every epoch announcement, so
        // the second lookup is not stale, and an empty ring behind a set
        // flag has seen the owner's every deposit. The dry micro-flow —
        // whether never filled or emptied by drops — can be skipped.
        const std::size_t owner = merger.merge_owner();
        if (worker_exited[owner].load(std::memory_order_acquire) &&
            merger.merge_owner() == owner && merger.ring_empty(owner)) {
          merger.force_advance();
        } else {
          if (cc != nullptr) merge_dry.stall();
          std::this_thread::yield();
        }
        continue;
      }
      consumed += n;
      // Copy-to-user done: send the slabs home with one release store.
      home.publish(s);
      consumer_ring_returns += s;
      if (cc != nullptr) {
        merge_dry.resolve(cc->input_dry_episodes, cc->input_dry_ns);
        // Sampled fan-in backlog (sum of all buffer-ring sizes) — the
        // merge-side queue-pressure signal.
        cc->count_batch(n, [&] { return merger.occupancy(); });
      }
    }
    if (cc != nullptr) {
      merge_dry.resolve(cc->input_dry_episodes, cc->input_dry_ns);
      cc->active_ns = ns_since(start);
    }
  }

  /// Fold every thread's results into `res`; called right after join.
  void fold(EngineResult& res) {
    res.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    res.packets = consumed;
    res.packets_dropped = dropped.load(std::memory_order_acquire);
    res.batches_merged = merger.batches_merged();
    res.in_order = in_order && consumed + res.packets_dropped == total;
    res.pool_acquired = pool.acquired();
    res.pool_recycled = pool.recycled();
    res.pool_exhausted = pool.exhausted();
    res.rescales_applied = rescales_applied;
    res.active_workers_final = static_cast<std::uint32_t>(w_active);
    res.recycle_ring_returns = consumer_ring_returns;
    res.recycle_cas_fallbacks = gen_free_list_draws;
    res.drops = {pool_dry_drops, split_sheds, 0, 0};
    for (const WorkerCounts& c : worker_counts) {
      res.drops.merge_ring += c.merge_sheds;
      res.drops.fault += c.fault_drops;
      res.cache_hits += c.hits;
      res.cache_misses += c.misses;
      res.cache_invalidations += c.invals;
      res.decap_failures += c.fails;
      res.nf_packets += c.nf_pkts;
      res.nf_nat_rewrites += c.rewrites;
      res.nf_nat_rewrite_failures += c.rewrite_fails;
      res.nf_lock_acquires += c.locks;
      res.recycle_ring_returns += c.ring_returns;
    }
    if (const auto& d = res.drops; d.pool_dry + d.split_ring + d.merge_ring +
                                       d.fault != res.packets_dropped) {
      std::fprintf(stderr, "rt::Engine: drop reasons do not add up\n");
      std::abort();
    }
    if (ftable != nullptr) {
      res.flow_table.peak = ftable->peak_size();
      res.flow_table.expired = ftable->expirations();
      res.flow_table.live = ftable->size();
    }
    if (nf_on) {
      // Fold every table (shared, or one replica per worker) into the
      // merged per-flow state; the fold is exact because nf::FlowState is
      // a lattice.
      std::map<net::FlowId, nf::FlowState> merged;
      const auto fold_table = [&merged](net::FlowId fid,
                                        const nf::FlowState& st) {
        nf::merge(merged[fid], st);
      };
      if (nf_shared_table) nf_shared_table->table.for_each(fold_table);
      for (const auto& t : nf_tables) t->for_each(fold_table);
      res.nf_flows = merged.size();
      std::uint64_t h = 0;
      res.nf_state.reserve(merged.size());
      for (const auto& [fid, st] : merged) {
        h = nf::fold_digest(h, fid, st);
        res.nf_state.emplace_back(fid, st);
      }
      res.nf_state_digest = h;
    }
    res.threads_pinned = threads_pinned.load(std::memory_order_acquire);
    if (cfg.profile) {
      res.profile = std::move(profile);
      res.profile.enabled = true;
      res.profile.workers = W;
      res.profile.wall_seconds = res.wall_seconds;
    }
  }
};

}  // namespace

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  if (config_.workers == 0)
    throw std::invalid_argument("rt::Engine: workers must be at least 1");
  if (config_.batch_size == 0)
    throw std::invalid_argument("rt::Engine: batch_size must be at least 1");
  if (!std::is_sorted(config_.rescales.begin(), config_.rescales.end(),
                      [](const auto& a, const auto& b) {
                        return a.after_packets < b.after_packets;
                      }))
    throw std::invalid_argument(
        "rt::Engine: rescales must be ascending in after_packets");
}

EngineResult Engine::run(
    std::uint64_t total,
    const std::function<void(const RtPacket&)>& on_output) {
  Pipeline p(config_, capacity_, total, on_output);
  {
    std::vector<std::jthread> workers;
    workers.reserve(p.W);
    for (std::size_t w = 0; w < p.W; ++w)
      workers.emplace_back([&p, w] { p.work(w); });
    std::jthread consumer([&p] { p.consume(); });
    p.generate();
  }  // joins the consumer, then the workers
  EngineResult res;
  p.fold(res);
  return res;
}

}  // namespace mflow::rt
