#include "rt/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <map>
#include <memory>

#include "control/flowtable.hpp"
#include "rt/calibrate.hpp"
#include "rt/topology.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace mflow::rt {

namespace {

/// Packets staged per ring operation. Amortizes one acquire-load plus one
/// release-store across the whole chunk; small enough that a chunk never
/// approaches the default ring depth.
constexpr std::size_t kChunk = 128;

/// Thread-local trace buffer for the rt engine. Each thread appends to its
/// own vector while running and hands the whole batch to the tracer with
/// absorb() before the engine joins it — no shared mutable state while the
/// workers are live, which keeps the tsan preset quiet.
class ThreadTrace {
 public:
  ThreadTrace(trace::Tracer* tr,
              std::chrono::steady_clock::time_point t0, int core)
      : tr_(tr), t0_(t0), core_(static_cast<std::int16_t>(core)) {}

  ~ThreadTrace() { flush(); }

  void event(trace::EventKind kind, std::uint64_t seq,
             std::uint64_t microflow, std::uint64_t aux = 0,
             sim::Time dur = 0) {
    if (tr_ == nullptr || !tr_->sampled(seq)) return;
    trace::TraceEvent ev;
    ev.ts = static_cast<sim::Time>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
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
  std::chrono::steady_clock::time_point t0_;
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

// The generator stages a chunk first (slab acquisition only, never writing
// through a slab) and then stamps the whole chunk in one out-of-line pass
// per mode. A recycled slab's lines were last written by a worker (decap,
// NAT), so stamping one is a cross-core ownership miss; staging first lets
// the overlay pass write-prefetch slabs ahead of the copy. On a 4-vCPU
// Xeon that took rt-overlay-nf from about 11 to 16 Mpps, while the two
// passes without the prefetch ran 20% slower than the old one-pass loop
// (docs/PERFORMANCE.md §5). Both modes stamp out of line: leaving the
// plain stamp inline in the acquisition loop cost rt-forward more than
// half its throughput.

/// Prefetch distances of the overlay stamp, in packets: the slab's Packet
/// lines far ahead, then its buffer (whose address lives in those lines)
/// once they have arrived.
constexpr std::size_t kPrefetchSlab = 8;
constexpr std::size_t kPrefetchBuf = 4;

/// Plain-mode stamp, the way the splitter stamps real packets: every packet
/// of the chunk belongs to flow `flow_id` and carries its 5-tuple when
/// `keyed` (the NF plane is on).
[[gnu::noinline]] void stamp_plain_chunk(RtPacket* stage, std::size_t n,
                                         net::FlowId flow_id, bool keyed) {
  const net::FlowKey key = generated_flow(flow_id);
  for (std::size_t k = 0; k < n; ++k) {
    net::Packet& skb = *stage[k].skb;
    skb.flow_id = flow_id;
    skb.wire_seq = stage[k].seq;
    skb.microflow_id = stage[k].batch;
    skb.payload_len = net::kTcpMss;
    if (keyed) skb.flow = key;
  }
}

/// Overlay-mode stamp: REAL encapsulated bytes. Every packet of a
/// micro-flow belongs to one inner flow (batch % flows), so the header
/// image is built once per batch and copy-assigned into each slab; the
/// copy stays within the slab's reserved buffer and never allocates. The
/// slabs are write-prefetched: on x86-64 the builtin emits prefetchw only
/// with prfchw enabled, and the read prefetch it emits otherwise measured
/// about a fifth slower.
#if defined(__x86_64__)
[[gnu::target("prfchw")]]
#endif
[[gnu::noinline]] void stamp_overlay_chunk(RtPacket* stage, std::size_t n,
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
    if (k + kPrefetchSlab < n) {
      const char* p =
          reinterpret_cast<const char*>(stage[k + kPrefetchSlab].skb.get());
      __builtin_prefetch(p, 1);
      __builtin_prefetch(p + 64, 1);
      __builtin_prefetch(p + 128, 1);
    }
    if (k + kPrefetchBuf < n) {
      // Start of the slab's byte storage, where the header copy lands.
      const net::PacketBuffer& buf = stage[k + kPrefetchBuf].skb->buf;
      const std::uint8_t* b = buf.data().data() - buf.headroom();
      __builtin_prefetch(b, 1);
      __builtin_prefetch(b + 64, 1);
    }
    net::Packet& skb = *stage[k].skb;
    skb = *tmpl.pkt;
    skb.wire_seq = stage[k].seq;
  }
}

}  // namespace

EngineResult Engine::run(
    std::uint64_t total,
    const std::function<void(const RtPacket&)>& on_output) {
  const std::size_t W = config_.workers;

  // Pool is declared FIRST so it is destroyed LAST: every ring below holds
  // PacketPtrs whose destructors recycle into it. Auto-sizing covers every
  // ring slot plus per-thread chunk staging, so lossless runs never see
  // pool exhaustion.
  const std::size_t pool_cap =
      config_.pool_capacity != 0
          ? config_.pool_capacity
          : config_.ring_capacity * (2 * W + 2) + (W + 3) * kChunk;
  PacketPool pool({.slabs = pool_cap});

  std::vector<std::unique_ptr<SpscRing<RtPacket>>> split_rings;
  for (std::size_t i = 0; i < W; ++i)
    split_rings.push_back(
        std::make_unique<SpscRing<RtPacket>>(config_.ring_capacity));
  // Epochs not yet reached by the merge head belong to unmerged micro-flows.
  // In a lossless run every micro-flow strictly between the merge head and
  // the one being opened holds all its slabs, so at most
  // pool_cap / batch_size + 2 are unmerged and an epoch ring that deep never
  // refuses an announcement; a lossy run may defer one to a later boundary.
  const std::size_t batch_size =
      std::max<std::uint32_t>(config_.batch_size, 1);
  RtReassembler merger(W, config_.ring_capacity,
                       std::bit_ceil(pool_cap / batch_size + 2));

  // Consumer -> generator slab return path. Ring-based recycling keeps the
  // steady state free of pool CAS traffic (the Treiber free list is only
  // the fallback when this ring is full/empty — e.g. around drops).
  SpscRing<net::PacketPtr> recycle_ring(std::bit_ceil(pool_cap + 1));

  // Worker -> generator drop-return fan-in: one small SPSC ring per worker
  // so slabs dropped mid-pipeline (injected faults, deposit backpressure)
  // return without CAS-contending on the pool free list — under fan-in, N
  // droppers hammering one Treiber head is a real contention point. The
  // generator batch-drains these only when the main recycle ring is dry;
  // overflow falls back to the CAS list (the PacketPtr destructor).
  std::vector<std::unique_ptr<SpscRing<net::PacketPtr>>> drop_rings;
  for (std::size_t i = 0; i < W; ++i)
    drop_rings.push_back(std::make_unique<SpscRing<net::PacketPtr>>(
        std::bit_ceil(2 * kChunk)));
  struct RecycleCounts {
    std::uint64_t ring_returns = 0, cas_fallbacks = 0;
  };
  std::vector<RecycleCounts> rec_counts(W);
  std::uint64_t consumer_ring_returns = 0;   // consumer-thread private,
  std::uint64_t consumer_cas_fallbacks = 0;  // read only after join

  // Scalability profiler: one cache-line-aligned counter block per
  // pipeline thread, written only by its owner while running and folded
  // after join (rt/profiler.hpp). Null pointers when profiling is off, so
  // the default path never touches them.
  const bool prof_on = config_.profile;
  std::vector<StageCounters> prof_workers(W);
  StageCounters prof_generator, prof_consumer;

  // Topology-aware core assignment: auto-plan from the discovered
  // topology, then apply any explicit per-thread overrides. Worker and
  // consumer threads pin themselves on startup; the generator (caller)
  // thread is pinned here and restored before returning.
  CorePlan plan;
  plan.workers.assign(W, -1);
  std::atomic<std::uint32_t> threads_pinned{0};
  if (config_.topology.pin_threads) {
    plan = plan_cores(CpuTopology::discover(), W);
    if (config_.topology.generator_cpu >= 0)
      plan.generator = config_.topology.generator_cpu;
    if (config_.topology.consumer_cpu >= 0)
      plan.consumer = config_.topology.consumer_cpu;
    for (std::size_t i = 0;
         i < config_.topology.worker_cpus.size() && i < W; ++i)
      if (config_.topology.worker_cpus[i] >= 0)
        plan.workers[i] = config_.topology.worker_cpus[i];
  }
  const bool generator_pinned =
      plan.generator >= 0 && pin_current_thread(plan.generator);
  if (generator_pinned) threads_pinned.fetch_add(1);

  // Overlay-mode state, all sized BEFORE any thread spawns so the steady
  // state stays allocation-free: one direct-mapped cache per worker (only
  // its owner touches it), one counter block per worker (written once,
  // at worker exit; read after join), and the generator's header template
  // with its buffer reserved like a pool slab's.
  const bool overlay_on = config_.overlay.enabled;
  const std::uint64_t overlay_flows =
      std::max<std::uint32_t>(config_.overlay.flows, 1);
  std::vector<std::vector<CacheSlot>> caches(W);
  if (overlay_on && config_.overlay.cache) {
    const std::size_t slots =
        std::bit_ceil(std::max<std::size_t>(config_.overlay.cache_slots, 1));
    for (auto& c : caches) c.resize(slots);
  }
  struct OverlayCounts {
    std::uint64_t hits = 0, misses = 0, invals = 0, fails = 0;
  };
  std::vector<OverlayCounts> ov_counts(W);
  OverlayTemplate ov_tmpl;
  if (overlay_on) {
    ov_tmpl.pkt = net::make_packet();
    ov_tmpl.pkt->buf.reserve(pool.config().buffer_bytes);
  }

  // Flow-state plane (churn mode): one shared FlowTable, created before
  // thread spawn. The generator inserts/sweeps; workers only touch() —
  // which never allocates — so the no-alloc steady state holds for them.
  struct FlowStat {
    std::uint64_t batches = 0;
  };
  std::unique_ptr<control::FlowTable<FlowStat>> ftable_storage;
  if (config_.flow_table.enabled) {
    ftable_storage = std::make_unique<control::FlowTable<FlowStat>>(
        control::FlowTableParams{
            config_.flow_table.shards, config_.flow_table.capacity,
            static_cast<sim::Time>(
                std::max<std::uint64_t>(config_.flow_table.ttl_batches, 1))});
  }
  control::FlowTable<FlowStat>* const ftable = ftable_storage.get();
  const std::uint64_t flow_life =
      std::max<std::uint64_t>(config_.flow_table.flow_lifetime_batches, 1);

  // NF plane: Maglev table and every state table built BEFORE thread spawn.
  // The shared table's shard mutex is the kSharedLock lock; the private
  // tables are strictly single-writer (only their owning worker touches
  // them while threads run; folded after join).
  const bool nf_on = config_.nf.enabled && !config_.nf.chain.chain.empty();
  const bool nf_shared =
      nf_on && config_.nf.strategy == nf::Strategy::kSharedLock;
  const bool nf_has_nat =
      nf_on && std::find(config_.nf.chain.chain.begin(),
                         config_.nf.chain.chain.end(),
                         nf::Kind::kNat) != config_.nf.chain.chain.end();
  const bool nf_has_lb =
      nf_on && std::find(config_.nf.chain.chain.begin(),
                         config_.nf.chain.chain.end(),
                         nf::Kind::kLoadBalancer) !=
                   config_.nf.chain.chain.end();
  const nf::MaglevTable nf_maglev =
      nf_has_lb ? nf::MaglevTable::build(config_.nf.chain.lb_backends,
                                         config_.nf.chain.lb_table_size,
                                         config_.nf.chain.lb_seed)
                : nf::MaglevTable{};
  const nf::MaglevTable* const nf_lb = nf_has_lb ? &nf_maglev : nullptr;
  std::unique_ptr<control::FlowTable<nf::FlowState>> nf_shared_table;
  std::vector<std::unique_ptr<control::FlowTable<nf::FlowState>>> nf_tables;
  if (nf_shared) {
    nf_shared_table = std::make_unique<control::FlowTable<nf::FlowState>>(
        control::FlowTableParams{config_.nf.shared_shards,
                                 config_.nf.state_capacity, 0});
  } else if (nf_on) {
    for (std::size_t wi = 0; wi < W; ++wi)
      nf_tables.push_back(
          std::make_unique<control::FlowTable<nf::FlowState>>(
              control::FlowTableParams{1, config_.nf.state_capacity, 0}));
  }
  struct NfCounts {
    std::uint64_t pkts = 0, rewrites = 0, rewrite_fails = 0, locks = 0;
  };
  std::vector<NfCounts> nf_counts(W);

  std::atomic<bool> produce_done{false};
  // Per-worker exit flags, set after the worker's last deposit: an exited
  // worker with an empty buffer ring proves the micro-flow it owns at the
  // merge head is complete.
  std::vector<std::atomic<bool>> worker_exited(W);
  // Packets lost to backpressure (retry budget exhausted) or injected
  // faults. The consumer terminates on consumed + dropped == total, so
  // every loss must be counted by whoever gave up on the packet.
  std::atomic<std::uint64_t> dropped{0};

  const auto t0 = std::chrono::steady_clock::now();
  // Captured once before any thread spawns; the spawn happens-before makes
  // the pointer safely visible to every worker without atomics.
  trace::Tracer* tr = trace::active();

  // Worker threads: pop a chunk from their splitting ring, "process" each
  // packet (calibrated spin), deposit the surviving chunk into their
  // buffer ring.
  std::vector<std::jthread> workers;
  workers.reserve(W);
  for (std::size_t w = 0; w < W; ++w) {
    workers.emplace_back([&, w] {
      if (plan.workers[w] >= 0 && pin_current_thread(plan.workers[w]))
        threads_pinned.fetch_add(1, std::memory_order_relaxed);
      auto& in = *split_rings[w];
      auto& drop_ring = *drop_rings[w];
      RecycleCounts& rc = rec_counts[w];
      // Drop-site slab return: per-worker SPSC ring first, CAS list only
      // on overflow (try_push moves only on success, so the fallback
      // reset() still owns the slab).
      const auto return_slab = [&](net::PacketPtr&& skb) {
        if (!skb) return;
        if (drop_ring.try_push(std::move(skb))) {
          ++rc.ring_returns;
        } else {
          skb.reset();
          ++rc.cas_fallbacks;
        }
      };
      StageCounters* const pc = prof_on ? &prof_workers[w] : nullptr;
      StallClock input_dry;
      std::uint64_t chunks_seen = 0;
      const auto w_start = std::chrono::steady_clock::now();
      util::Rng faults(config_.fault_seed + 0x9e37 * (w + 1));
      ThreadTrace wt(tr, t0, static_cast<int>(w));
      std::vector<RtPacket> chunk(kChunk);
      bool saw_last = false;
      // Pure-forwarding configuration (no tracer, no synthetic cost, no
      // fault injection, no overlay bytes to decapsulate): nothing in the
      // per-packet loop below would fire, so whole chunks can be forwarded
      // straight to the merger.
      const bool forward_only = tr == nullptr &&
                                config_.cost_ns_per_packet == 0 &&
                                config_.fault_drop_rate <= 0.0 &&
                                !overlay_on && ftable == nullptr && !nf_on;
      auto& cache = caches[w];
      const std::size_t slot_mask = cache.empty() ? 0 : cache.size() - 1;
      OverlayCounts ov;
      NfCounts nc;
      // Replica-table NF state of the current run of equal (flow, batch):
      // resolved once per run, since a chunk never crosses a micro-flow.
      // Only this worker mutates its table while threads run, so the entry
      // stays put until this worker's next upsert.
      nf::FlowState* run_state = nullptr;
      net::FlowId run_flow = 0;
      std::uint64_t run_batch = 0;
      while (true) {
        const std::size_t n = in.try_pop_batch(chunk.data(), kChunk);
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
          pc->items += n;
          // Sampled queue pressure on this worker's input ring (consumer-
          // side size() is exact for already-published items).
          if ((++chunks_seen & 31) == 0) {
            pc->occupancy_sum += in.size();
            ++pc->occupancy_samples;
          }
        }
        if (forward_only) {
          // The end-of-stream packet is always the final element of its
          // chunk (the generator emits in seq order).
          saw_last = saw_last || chunk[n - 1].last;
          const std::size_t ok = merger.deposit_batch(
              w, chunk.data(), n, config_.max_push_spins, pc);
          for (std::size_t i = ok; i < n; ++i) {
            if (chunk[i].marker) continue;  // shed marker: no packet lost
            dropped.fetch_add(1, std::memory_order_release);
            return_slab(std::move(chunk[i].skb));
          }
          continue;
        }
        // Process in place; compact survivors to the front of the chunk so
        // one deposit_batch publishes them all.
        std::size_t m = 0;
        std::uint64_t last_touched = 0;  // flow ids are >= 1 when tracked
        for (std::size_t i = 0; i < n; ++i) {
          RtPacket& pkt = chunk[i];
          saw_last = saw_last || pkt.last;
          wt.event(trace::EventKind::kRingDequeue, pkt.seq, pkt.batch);
          if (ftable != nullptr && !pkt.marker && pkt.skb &&
              pkt.skb->flow_id != last_touched) {
            // Replay the flow's own batch index: monotone against the
            // generator's stamp, so this keeps recency live without ever
            // perturbing the deterministic expiry order.
            ftable->touch(pkt.skb->flow_id,
                          static_cast<sim::Time>(pkt.batch));
            last_touched = pkt.skb->flow_id;
          }
          if (overlay_on && !pkt.marker && pkt.skb) {
            net::Packet& skb = *pkt.skb;
            bool spliced = false;
            if (!cache.empty()) {
              CacheSlot& slot = cache[skb.flow_id & slot_mask];
              if (slot.valid && slot.flow_id == skb.flow_id) {
                if (slot.epoch != pkt.epoch) {
                  // Rescale epoch advanced past the entry: the decision is
                  // stale by protocol, even though the bytes still match.
                  slot.valid = false;
                  ++ov.invals;
                } else {
                  const auto bytes = skb.buf.data();
                  if (bytes.size() >= net::kVxlanOverhead &&
                      bytes[kOuterSportOff] == slot.sport_hi &&
                      bytes[kOuterSportOff + 1] == slot.sport_lo &&
                      net::vxlan_splice_decap(skb, config_.overlay.vni)) {
                    ++ov.hits;
                    spliced = true;
                  }
                }
              }
            }
            if (!spliced) {
              // Slow path: full validating decap, then (re)install the
              // entry with this packet's outer template + epoch.
              const auto bytes = skb.buf.data();
              std::uint8_t hi = 0, lo = 0;
              if (bytes.size() > kOuterSportOff + 1) {
                hi = bytes[kOuterSportOff];
                lo = bytes[kOuterSportOff + 1];
              }
              const net::DecapResult res = net::vxlan_decap(skb);
              if (!res.ok || res.vni != config_.overlay.vni) {
                ++ov.fails;
              } else if (!cache.empty()) {
                ++ov.misses;
                cache[skb.flow_id & slot_mask] =
                    CacheSlot{skb.flow_id, pkt.epoch, hi, lo, true};
              }
            }
          }
          if (pkt.cost_ns > 0) spin_ns(pkt.cost_ns);
          wt.event(trace::EventKind::kStageExit, pkt.seq, pkt.batch,
                   /*aux=*/0xFF, static_cast<sim::Time>(pkt.cost_ns));
          const bool lost = !pkt.marker && config_.fault_drop_rate > 0.0 &&
                            faults.chance(config_.fault_drop_rate);
          if (lost) {
            dropped.fetch_add(1, std::memory_order_release);
            wt.event(trace::EventKind::kDrop, pkt.seq, pkt.batch);
            return_slab(std::move(pkt.skb));  // recycle the slab now
            // A micro-flow's final packet completes it at the merge; a lost
            // one leaves a marker for the next micro-flow in its place.
            if (!pkt.batch_end) continue;
            ++pkt.batch;
            pkt.marker = true;
            pkt.batch_end = false;
          } else if (nf_on && !pkt.marker && pkt.skb) {
            // NF chain over SURVIVORS only, so the merged state counts
            // exactly the delivered stream (drops upstream of here never
            // enter it). The recency clock is the batch index, as for the
            // churn flow table; ttl is 0 so it only orders evictions.
            net::Packet& skb = *pkt.skb;
            const nf::PacketView view = nf::view_of(skb);
            ++nc.pkts;
            std::uint16_t ext_port = 0;
            auto update = [&](nf::FlowState& st) {
              for (nf::Kind k : config_.nf.chain.chain)
                nf::apply(config_.nf.chain, nf_lb, k, view, st);
              ext_port = st.nat.ext_port;
            };
            if (nf_shared) {
              ++nc.locks;
              nf_shared_table->upsert_apply(
                  skb.flow_id, static_cast<sim::Time>(pkt.batch), update);
            } else {
              if (run_state == nullptr || skb.flow_id != run_flow ||
                  pkt.batch != run_batch) {
                run_state = &nf_tables[w]->upsert(
                    skb.flow_id, static_cast<sim::Time>(pkt.batch));
                run_flow = skb.flow_id;
                run_batch = pkt.batch;
              }
              update(*run_state);
            }
            if (nf_has_nat && overlay_on && !skb.encapsulated &&
                ext_port != 0) {
              if (nf::nat_rewrite(config_.nf.chain, skb, ext_port))
                ++nc.rewrites;
              else
                ++nc.rewrite_fails;
            }
            wt.event(trace::EventKind::kNfApply, pkt.seq, pkt.batch);
          }
          if (m != i)
            chunk[m++] = std::move(pkt);
          else
            ++m;
        }
        const std::size_t ok = merger.deposit_batch(
            w, chunk.data(), m, config_.max_push_spins, pc);
        // Scalar metadata survives the move into the ring, so tracing off
        // the staged entries after deposit_batch is safe.
        for (std::size_t i = 0; i < ok; ++i)
          wt.event(trace::EventKind::kReasmHold, chunk[i].seq,
                   chunk[i].batch);
        for (std::size_t i = ok; i < m; ++i) {
          // A shed marker loses no packet (a lost batch_end was counted
          // when its marker replaced it).
          if (chunk[i].marker) continue;
          dropped.fetch_add(1, std::memory_order_release);
          wt.event(trace::EventKind::kDrop, chunk[i].seq, chunk[i].batch);
          return_slab(std::move(chunk[i].skb));
        }
      }
      wt.flush();
      ov_counts[w] = ov;  // single writes, read only after join
      nf_counts[w] = nc;
      if (pc != nullptr) {
        input_dry.resolve(pc->input_dry_episodes, pc->input_dry_ns);
        pc->recycle_cas_fallbacks = rc.cas_fallbacks;
        pc->active_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - w_start)
                .count());
      }
      worker_exited[w].store(true, std::memory_order_release);
    });
  }

  // Consumer thread: batch-based merge + order verification. Gap-tolerant:
  // a drop leaves a hole in the seq space, so "in order" means survivor
  // seqs strictly increase (equivalent to exact 0..N-1 when nothing drops).
  std::uint64_t consumed = 0;
  std::uint64_t next_seq_floor = 0;
  bool in_order = true;
  std::jthread consumer([&] {
    if (plan.consumer >= 0 && pin_current_thread(plan.consumer))
      threads_pinned.fetch_add(1, std::memory_order_relaxed);
    StageCounters* const cc = prof_on ? &prof_consumer : nullptr;
    StallClock merge_dry;
    std::uint64_t pops_seen = 0;
    const auto c_start = std::chrono::steady_clock::now();
    ThreadTrace ct(tr, t0, static_cast<int>(W));  // track one past workers
    std::vector<RtPacket> out(kChunk);
    std::vector<net::PacketPtr> spent(kChunk);
    while (consumed + dropped.load(std::memory_order_acquire) < total) {
      const std::size_t n = merger.pop_ready_batch(out.data(), kChunk);
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
      if (cc != nullptr) {
        merge_dry.resolve(cc->input_dry_episodes, cc->input_dry_ns);
        cc->items += n;
        // Sampled fan-in backlog (sum of all buffer-ring sizes) — the
        // merge-side queue-pressure signal.
        if ((++pops_seen & 31) == 0) {
          cc->occupancy_sum += merger.occupancy();
          ++cc->occupancy_samples;
        }
      }
      std::size_t s = 0;
      for (std::size_t k = 0; k < n; ++k) {
        RtPacket& pkt = out[k];
        if (pkt.seq < next_seq_floor) in_order = false;
        next_seq_floor = pkt.seq + 1;
        ++consumed;
        ct.event(trace::EventKind::kReasmRelease, pkt.seq, pkt.batch);
        if (on_output) on_output(pkt);
        if (pkt.skb) spent[s++] = std::move(pkt.skb);
      }
      // Copy-to-user done: hand the slabs back to the generator through the
      // recycle ring in one batched push. Overflow is fine — the handle's
      // destructor recycles through the pool free list instead.
      const std::size_t pushed = recycle_ring.try_push_batch(spent.data(), s);
      consumer_ring_returns += pushed;
      for (std::size_t k = pushed; k < s; ++k) {
        spent[k].reset();
        ++consumer_cas_fallbacks;
      }
    }
    if (cc != nullptr) {
      merge_dry.resolve(cc->input_dry_episodes, cc->input_dry_ns);
      cc->recycle_cas_fallbacks = consumer_cas_fallbacks;
      cc->active_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - c_start)
              .count());
    }
  });

  // Generator (this thread): round-robin micro-flow batches, as the
  // splitting mechanisms do. Packets are staged in chunks (never crossing
  // a micro-flow boundary, so a chunk targets exactly one worker) and
  // pushed with one batched ring operation.
  //
  // Runtime rescale: the active worker set is a prefix [0, w_active) of the
  // workers, re-evaluated only at micro-flow boundaries.
  std::uint64_t batch = 0;
  std::uint32_t in_batch = config_.batch_size;
  std::size_t target = 0;
  std::size_t w_active = W;
  std::size_t wanted = W;
  std::uint64_t epoch_first = 1;
  std::size_t rescale_idx = 0;
  std::uint64_t rescales_applied = 0;
  // Split ring w carried a batch since its last epoch-flush marker.
  std::vector<char> unmarked(W, 0);
  capacity_.active.store(static_cast<std::uint32_t>(W),
                         std::memory_order_release);
  // Epoch-change protocol, run at a boundary when the wanted worker count
  // differs from the mapping: open a new epoch at the batch being opened
  // and announce it to the merger before any packet of that batch is
  // pushed, so the push's release/acquire chain carries the epoch to the
  // consumer. Then close every previously-active ring with an epoch-flush
  // marker so the consumer can prove its final old-epoch batch is complete
  // — after a shrink no later batch would ever arrive there to provide the
  // FIFO evidence. A ring that carried no batch since its last marker
  // already has that evidence; marking it again would pile markers onto a
  // ring the merge head may never visit until they fill it.
  //
  // A full epoch ring defers the change: mapping and rings stay as they
  // are and `wanted` is retried at the next boundary. The generator never
  // blocks on the ring, since in a lossy run the merge head may be waiting
  // for a batch only the generator can still push.
  const auto apply_wanted = [&] {
    const std::size_t nw = std::clamp<std::size_t>(wanted, 1, W);
    if (nw == w_active ||
        !merger.announce_epoch({batch, static_cast<std::uint32_t>(nw)}))
      return;
    ++rescales_applied;
    for (std::size_t w2 = 0; w2 < w_active; ++w2) {
      if (!unmarked[w2]) continue;
      RtPacket mark;
      mark.batch = batch;
      mark.marker = true;
      auto& ring2 = *split_rings[w2];
      std::uint32_t spins2 = 0;
      bool pushed;
      while (!(pushed = ring2.try_push(std::move(mark)))) {
        if (config_.max_push_spins != 0 && ++spins2 >= config_.max_push_spins)
          break;  // shed: end-of-stream force_advance covers the tail
        std::this_thread::yield();
      }
      unmarked[w2] = !pushed;
    }
    w_active = nw;
    epoch_first = batch;
    capacity_.active.store(static_cast<std::uint32_t>(w_active),
                           std::memory_order_release);
  };
  ThreadTrace gt(tr, t0, static_cast<int>(W) + 1);  // generator track
  std::vector<RtPacket> stage(kChunk);
  std::vector<net::PacketPtr> stash(kChunk);  // slabs popped off recycle ring
  std::size_t stash_n = 0, stash_i = 0;
  StageCounters* const gc = prof_on ? &prof_generator : nullptr;
  StallClock pool_dry, out_full;
  std::uint64_t gen_chunks = 0;
  std::uint64_t gen_cas_acquires = 0;  // slabs drawn off the pool CAS list
  std::uint64_t i = 0;
  while (i < total) {
    if (in_batch >= config_.batch_size) {
      ++batch;
      in_batch = 0;
      // The latest due schedule entry, then the live capacity request
      // (rt::EngineCapacityAdapter), which wins as the operator's latest
      // word. At most one epoch is announced per boundary.
      while (rescale_idx < config_.rescales.size() &&
             i >= config_.rescales[rescale_idx].after_packets)
        wanted = config_.rescales[rescale_idx++].active_workers;
      if (const std::uint32_t req =
              capacity_.requested.load(std::memory_order_acquire);
          req != 0)
        wanted = req;
      apply_wanted();
      target = static_cast<std::size_t>((batch - epoch_first) % w_active);
      unmarked[target] = 1;
      if (ftable != nullptr) {
        // Register the batch's flow before any of its packets are pushed,
        // so worker touches can never race an unregistered flow into
        // being missed. The clock is the batch index.
        const net::FlowId fid =
            overlay_on ? static_cast<net::FlowId>(batch % overlay_flows + 1)
                       : static_cast<net::FlowId>(batch / flow_life + 1);
        FlowStat& fs =
            ftable->upsert(fid, static_cast<sim::Time>(batch));
        fs.batches += 1;
        ftable->touch(fid, static_cast<sim::Time>(batch));
        if (batch % std::max<std::uint64_t>(
                        config_.flow_table.sweep_every, 1) ==
            0)
          ftable->expire_idle(static_cast<sim::Time>(batch));
      }
    }
    const std::uint64_t room_in_batch = config_.batch_size - in_batch;
    const std::uint64_t want =
        std::min<std::uint64_t>({kChunk, room_in_batch, total - i});

    // Stage `want` packets, acquiring one slab each: recycle ring first
    // (batched pop into the stash), pool free list second, bounded
    // spin-wait third. A packet that never gets a slab is shed here.
    std::size_t staged = 0;
    for (std::uint64_t k = 0; k < want; ++k, ++i, ++in_batch) {
      net::PacketPtr skb;
      std::uint32_t spins = 0;
      for (;;) {
        if (stash_i == stash_n) {
          stash_n = recycle_ring.try_pop_batch(stash.data(), kChunk);
          stash_i = 0;
          // Top up from the per-worker drop-return rings on EVERY refill
          // (not just when the main ring is dry): the drop rings are small,
          // so sweeping them each refill keeps them from overflowing to
          // the pool's CAS list. One consumer (this thread) over N SPSC
          // rings — same fan-in shape as the merge side; an empty ring
          // costs one cached-index check.
          for (std::size_t w2 = 0; stash_n < kChunk && w2 < W; ++w2)
            stash_n += drop_rings[w2]->try_pop_batch(stash.data() + stash_n,
                                                     kChunk - stash_n);
        }
        if (stash_i < stash_n) {
          skb = std::move(stash[stash_i++]);
          break;
        }
        if ((skb = pool.acquire())) {
          ++gen_cas_acquires;
          break;
        }
        if (gc != nullptr) pool_dry.stall();
        if (config_.max_push_spins != 0 &&
            ++spins >= config_.max_push_spins)
          break;
        std::this_thread::yield();
      }
      if (gc != nullptr)
        pool_dry.resolve(gc->pool_dry_episodes, gc->pool_dry_ns);
      gt.event(trace::EventKind::kSplitDeposit, i, batch,
               static_cast<std::uint64_t>(target));
      if (!skb) {
        // Pool stayed dry past the retry budget: shed the packet here
        // rather than wedging the generator.
        dropped.fetch_add(1, std::memory_order_release);
        gt.event(trace::EventKind::kDrop, i, batch);
        continue;
      }
      stage[staged++] = RtPacket{i, batch, config_.cost_ns_per_packet,
                                 static_cast<std::uint32_t>(rescales_applied),
                                 i + 1 == total, std::move(skb)};
    }
    // A chunk never crosses a micro-flow, so a micro-flow's final packet is
    // the last of its final chunk (unless it was shed above).
    if (staged != 0 && stage[staged - 1].seq + 1 == i &&
        (in_batch == config_.batch_size || i == total))
      stage[staged - 1].batch_end = true;
    if (overlay_on) {
      stamp_overlay_chunk(stage.data(), staged, ov_tmpl, batch, overlay_flows,
                          config_.overlay.vni);
    } else {
      // With the flow table on, flow identity follows the churn generator
      // (a new flow every flow_lifetime_batches) instead of being per-batch.
      stamp_plain_chunk(stage.data(), staged,
                        ftable != nullptr
                            ? static_cast<net::FlowId>(batch / flow_life + 1)
                            : static_cast<net::FlowId>(batch),
                        nf_on);
    }

    // Push the staged chunk; a full ring is retried (with yield) within
    // the shared budget, then the unpushed tail is shed.
    auto& ring = *split_rings[target];
    std::size_t done = 0;
    std::uint32_t spins = 0;
    while (done < staged) {
      const std::size_t n =
          ring.try_push_batch(stage.data() + done, staged - done);
      done += n;
      if (done == staged) break;
      if (n == 0) {
        if (gc != nullptr) out_full.stall();
        if (config_.max_push_spins != 0 &&
            ++spins >= config_.max_push_spins)
          break;
        std::this_thread::yield();
      }
    }
    for (std::size_t k = done; k < staged; ++k) {
      dropped.fetch_add(1, std::memory_order_release);
      gt.event(trace::EventKind::kDrop, stage[k].seq, stage[k].batch);
      stage[k].skb.reset();
    }
    if (gc != nullptr) {
      out_full.resolve(gc->output_full_episodes, gc->output_full_ns);
      gc->items += done;
      // Sampled fan-out pressure on the split ring just written to.
      if ((++gen_chunks & 31) == 0) {
        gc->occupancy_sum += ring.size();
        ++gc->occupancy_samples;
      }
    }
  }
  produce_done.store(true, std::memory_order_release);
  gt.flush();
  if (gc != nullptr) {
    gc->recycle_cas_fallbacks = gen_cas_acquires;
    gc->active_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  // Slabs parked in the stash go back to the pool before the consumer's
  // recycle pushes are cut off.
  for (std::size_t k = stash_i; k < stash_n; ++k) stash[k].reset();

  consumer.join();
  workers.clear();  // join all
  const auto t1 = std::chrono::steady_clock::now();
  if (generator_pinned) unpin_current_thread();

  EngineResult res;
  res.packets = consumed;
  res.packets_dropped = dropped.load(std::memory_order_acquire);
  res.batches_merged = merger.batches_merged();
  res.wall_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  res.in_order = in_order && consumed + res.packets_dropped == total;
  res.pool_acquired = pool.acquired();
  res.pool_recycled = pool.recycled();
  res.pool_exhausted = pool.exhausted();
  res.rescales_applied = rescales_applied;
  res.active_workers_final = static_cast<std::uint32_t>(w_active);
  for (const auto& ov : ov_counts) {
    res.cache_hits += ov.hits;
    res.cache_misses += ov.misses;
    res.cache_invalidations += ov.invals;
    res.decap_failures += ov.fails;
  }
  if (ftable != nullptr) {
    res.flow_table.peak = ftable->peak_size();
    res.flow_table.expired = ftable->expirations();
    res.flow_table.live = ftable->size();
  }
  if (nf_on) {
    for (const auto& nc : nf_counts) {
      res.nf_packets += nc.pkts;
      res.nf_nat_rewrites += nc.rewrites;
      res.nf_nat_rewrite_failures += nc.rewrite_fails;
      res.nf_lock_acquires += nc.locks;
    }
    // Fold every table (shared, or one replica per worker) into the merged
    // per-flow state; the fold is exact because nf::FlowState is a lattice.
    std::map<net::FlowId, nf::FlowState> merged;
    const auto fold = [&merged](net::FlowId fid, const nf::FlowState& st) {
      nf::merge(merged[fid], st);
    };
    if (nf_shared_table) nf_shared_table->for_each(fold);
    for (const auto& t : nf_tables) t->for_each(fold);
    res.nf_flows = merged.size();
    std::uint64_t h = 0;
    res.nf_state.reserve(merged.size());
    for (const auto& [fid, st] : merged) {
      h = nf::fold_digest(h, fid, st);
      res.nf_state.emplace_back(fid, st);
    }
    res.nf_state_digest = h;
  }
  // Recycle-fabric split: ring-path returns vs CAS-list fallbacks, summed
  // over every thread that touched a slab return path.
  for (const auto& rc : rec_counts) {
    res.recycle_ring_returns += rc.ring_returns;
    res.recycle_cas_fallbacks += rc.cas_fallbacks;
  }
  res.recycle_ring_returns += consumer_ring_returns;
  res.recycle_cas_fallbacks += consumer_cas_fallbacks + gen_cas_acquires;
  res.threads_pinned = threads_pinned.load(std::memory_order_acquire);
  if (prof_on) {
    res.profile.enabled = true;
    res.profile.workers = W;
    res.profile.wall_seconds = res.wall_seconds;
    res.profile.generator = prof_generator;
    res.profile.consumer = prof_consumer;
    res.profile.worker = std::move(prof_workers);
  }
  return res;
}

}  // namespace mflow::rt
