// Real-thread batch-based reassembler.
//
// Mirrors core/reassembler.hpp with real concurrency: each worker deposits
// into its own SPSC buffer ring; the consumer thread walks micro-flows in ID
// order, consuming from the owning worker's ring. Batch ownership is
// implied by the splitter's round-robin, so the consumer needs no shared
// mutable state beyond the rings themselves — the "global merging counter"
// is consumer-private, exactly as recvmsg-context merging is in the paper.
// A rescale changes that implied ownership from a given batch on: the
// generator announces an epoch on a small SPSC ring, and the consumer
// retires it once the merge head reaches that batch, so only the epoch
// governing the head and those still ahead of it are ever stored.
//
// Packets are MOVE-ONLY: each RtPacket carries its pooled skb
// (net::PacketPtr, see rt/pool.hpp), so a deposit transfers slab ownership
// worker → consumer and a dropped deposit recycles the slab automatically.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "rt/profiler.hpp"
#include "rt/spsc_ring.hpp"

namespace mflow::rt {

/// One unit of work flowing splitter -> worker -> merger. Move-only once an
/// skb is attached (PacketPtr), but remains an aggregate so tests can brace-
/// initialize metadata-only packets (skb == nullptr is legal everywhere).
/// Every split-ring, merge-ring and worker-chunk slot holds one, so it is
/// kept to 40 bytes: the flags are packed, and the per-packet processing
/// cost is EngineConfig::cost_ns_per_packet, the same for every packet.
struct RtPacket {
  std::uint64_t seq = 0;    // position in the original flow
  std::uint64_t batch = 0;  // micro-flow id (1-based)
  /// Rescale epoch the generator stamped this packet with (count of worker
  /// mapping changes applied at staging time, from EngineConfig::rescales
  /// and live capacity requests alike). The overlay fast path keys
  /// cache validity on it: a worker seeing a newer epoch than its cached
  /// entry re-resolves through the full decap, so a split-degree change
  /// never applies a stale decision.
  std::uint32_t epoch = 0;
  bool last : 1 = false;  // end-of-stream marker
  /// Epoch-flush marker (never delivered): `batch` holds the NEW epoch's
  /// first batch id, and its position in a worker's FIFO proves every
  /// older batch on that ring is fully deposited. Closes the completion
  /// gap on rings a shrink leaves inactive — without it the consumer could
  /// never distinguish "last batch done" from "more packets in flight".
  bool marker : 1 = false;
  /// Final packet of its micro-flow (set by the generator). Popping it
  /// completes the micro-flow at the merge without waiting for FIFO
  /// evidence: a micro-flow larger than the rings would otherwise stall
  /// the merge until the next batch on the same ring or its worker's exit,
  /// while the next micro-flow's worker blocks on a full buffer ring.
  bool batch_end : 1 = false;
  net::PacketPtr skb;  // pooled packet buffer (may be null)
};
static_assert(sizeof(RtPacket) == 40);

class RtReassembler {
 public:
  /// Batch-ownership epoch: batches >= first_batch round-robin over the
  /// first `workers` buffer rings. Epochs are how the engine rescales its
  /// active worker set at runtime — a control message on an internal SPSC
  /// ring, never a shared mutable mapping.
  struct Epoch {
    std::uint64_t first_batch = 1;
    std::uint32_t workers = 0;
  };

  /// `workers` buffer rings, each `ring_capacity_pow2` deep, and an epoch
  /// ring holding up to `epoch_capacity_pow2` announcements the merge head
  /// has not reached yet (both powers of two, enforced by SpscRing's
  /// constructor). Epochs retire as the merge head reaches them, so the
  /// number announced over the merger's life is unbounded.
  RtReassembler(std::size_t workers, std::size_t ring_capacity_pow2,
                std::size_t epoch_capacity_pow2 = 64);

  /// Worker `w` deposits `count` packets from `pkts` in order; returns how
  /// many were accepted (a prefix — the rest are left intact, skb and all,
  /// for the caller to retry or drop). Amortizes ring atomics across the
  /// batch. A full ring is retried (with yield) at most `max_spins` times;
  /// 0 means retry forever. A caller that gives up on the tail owns the
  /// loss and must account for it so the consumer's conservation check
  /// still terminates.
  ///
  /// `prof` (optional): full-ring stall episodes inside the deposit are
  /// charged to `prof->output_full_*` — the fan-in fabric's
  /// merge-backpressure signal (rt::StageCounters; nullptr = no telemetry,
  /// no clock reads).
  [[nodiscard]] std::size_t deposit_batch(std::size_t w, RtPacket* pkts,
                                          std::size_t count,
                                          std::uint32_t max_spins = 0,
                                          StageCounters* prof = nullptr);

  /// Consumer: call `f(RtPacket&)` on up to `max` in-order packets while
  /// each still sits in its buffer-ring slot, crossing micro-flow
  /// boundaries when the next micro-flow's head has already arrived.
  /// Returns how many `f` saw; 0 means the merge head is dry. `f` must move
  /// the packet's skb out (or the whole packet): the slot is released right
  /// after, and the worker's next deposit assigns over it. One release
  /// store per contiguous run of a ring.
  template <typename F>
  std::size_t drain_ready(std::size_t max, F&& f);

  /// Consumer: pop up to `max` in-order packets into `out` (drain_ready,
  /// moving each packet out). Returns how many were written.
  std::size_t pop_ready_batch(RtPacket* out, std::size_t max);

  /// Consumer side: buffer ring owning the micro-flow under merge. Retires
  /// every announced epoch the merge head has reached on the way, so the
  /// epoch ring only ever holds epochs still ahead of the head.
  std::size_t merge_owner();

  /// Buffer ring `w` holds nothing right now. Exact once worker `w` has
  /// exited: nothing can be deposited there any more.
  bool ring_empty(std::size_t w) const { return rings_[w]->empty(); }

  /// Micro-flows fully merged so far (consumer-private counter).
  std::uint64_t batches_merged() const { return batches_merged_; }

  /// Skip a micro-flow whose ring is dry after its worker exited (a batch
  /// boundary that will never see more input).
  void force_advance();

  /// Producer side (the splitter/generator thread): all batches from
  /// `first_batch` on round-robin over the first `e.workers` rings
  /// (1 <= workers <= ring count). Announcements must come in ascending
  /// `first_batch` order, and an epoch MUST be announced before any packet
  /// of `first_batch` is pushed toward the workers — the consumer observes
  /// packets only through an acquire/release chain rooted at that push, and
  /// looks the owner up again before it takes a later batch at a ring's
  /// head as proof that the micro-flow under merge is complete.
  /// Returns false when the epoch ring is full of epochs the merge head has
  /// not reached; the caller then keeps its mapping and retries later.
  [[nodiscard]] bool announce_epoch(Epoch e) {
    return epoch_ring_.try_push(e);
  }

  /// Total packets currently buffered across all fan-in rings. Approximate
  /// from any thread (each ring's size is a racy-but-monotone snapshot);
  /// the scalability profiler samples it as the merge-side queue-pressure
  /// signal.
  std::size_t occupancy() const;

 private:
  std::vector<std::unique_ptr<SpscRing<RtPacket>>> rings_;
  std::uint64_t merge_counter_ = 1;  // consumer-private
  std::uint64_t batches_merged_ = 0;

  SpscRing<Epoch> epoch_ring_;  // announced, not yet reached by the head
  Epoch current_;               // governs the merge head (consumer-private)
};

template <typename F>
std::size_t RtReassembler::drain_ready(std::size_t max, F&& f) {
  std::size_t got = 0;
  while (got < max) {
    const std::size_t w = merge_owner();
    auto& ring = *rings_[w];
    const std::span<RtPacket> ready = ring.front(max - got);
    if (ready.empty()) break;  // merge head dry — caller yields/advances
    std::size_t n = 0;
    bool end = false;
    for (; n < ready.size(); ++n) {
      RtPacket& p = ready[n];
      if (p.batch != merge_counter_ || p.marker) break;
      end = p.batch_end;
      f(p);
      assert(!p.skb && "drain_ready: f left a live skb in its slot");
      if (end) {
        ++n;
        break;
      }
    }
    ring.release(n);
    got += n;
    if (end) {
      // The micro-flow's final packet: complete, whatever the ring holds.
      ++merge_counter_;
      ++batches_merged_;
      continue;
    }
    // Span used up (more of this micro-flow may sit past the wrap or have
    // arrived since): look again.
    if (n == ready.size()) continue;
    const RtPacket& head = ready[n];
    if (head.batch > merge_counter_) {
      // A later batch (or its epoch-flush marker) at the head: this
      // micro-flow is complete (FIFO per worker), advance and keep
      // draining. Unless the owner lookup was stale: a batch_end moves the
      // head onto a batch whose epoch may have been announced after that
      // packet was pushed. The head just read was pushed after any such
      // announcement, so a second lookup sees it and, if the micro-flow
      // lives elsewhere, retries there.
      if (merge_owner() != w) continue;
      ++merge_counter_;
      ++batches_merged_;
      continue;
    }
    // Spent epoch-flush marker (it carries no skb): discard and re-examine.
    ring.release(1);
  }
  return got;
}

}  // namespace mflow::rt
