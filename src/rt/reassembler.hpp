// Real-thread batch-based reassembler.
//
// Mirrors core/reassembler.hpp with real concurrency: each worker deposits
// into its own SPSC buffer ring; the consumer thread walks micro-flows in ID
// order, consuming from the owning worker's ring. Batch ownership is
// implied by the splitter's round-robin, so the consumer needs no shared
// mutable state beyond the rings themselves — the "global merging counter"
// is consumer-private, exactly as recvmsg-context merging is in the paper.
//
// Packets are MOVE-ONLY: each RtPacket carries its pooled skb
// (net::PacketPtr, see rt/pool.hpp), so a deposit transfers slab ownership
// worker → consumer and a dropped deposit recycles the slab automatically.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "rt/profiler.hpp"
#include "rt/spsc_ring.hpp"

namespace mflow::rt {

/// One unit of work flowing splitter -> worker -> merger. Move-only once an
/// skb is attached (PacketPtr), but remains an aggregate so tests can brace-
/// initialize metadata-only packets (skb == nullptr is legal everywhere).
struct RtPacket {
  std::uint64_t seq = 0;       // position in the original flow
  std::uint64_t batch = 0;     // micro-flow id (1-based)
  std::uint32_t cost_ns = 0;   // synthetic per-packet processing cost
  /// Rescale epoch the generator stamped this packet with (count of applied
  /// EngineConfig::rescales at staging time). The overlay fast path keys
  /// cache validity on it: a worker seeing a newer epoch than its cached
  /// entry re-resolves through the full decap, so a split-degree change
  /// never applies a stale decision.
  std::uint32_t epoch = 0;
  bool last = false;           // end-of-stream marker
  net::PacketPtr skb;          // pooled packet buffer (may be null)
  /// Epoch-flush marker (never delivered): `batch` holds the NEW epoch's
  /// first batch id, and its position in a worker's FIFO proves every
  /// older batch on that ring is fully deposited. Closes the completion
  /// gap on rings a shrink leaves inactive — without it the consumer could
  /// never distinguish "last batch done" from "more packets in flight".
  bool marker = false;
  /// Final packet of its micro-flow (set by the generator). Popping it
  /// completes the micro-flow at the merge without waiting for FIFO
  /// evidence: a micro-flow larger than the rings would otherwise stall
  /// the merge until the next batch on the same ring or its worker's exit,
  /// while the next micro-flow's worker blocks on a full buffer ring.
  bool batch_end = false;
};

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

  /// `workers` buffer rings, each `ring_capacity_pow2` deep (power of two,
  /// enforced by SpscRing's constructor). Up to `max_epochs` rescale
  /// announcements are accepted over the reassembler's lifetime (storage is
  /// pre-reserved so applying them allocates nothing).
  RtReassembler(std::size_t workers, std::size_t ring_capacity_pow2,
                std::size_t max_epochs = 64);

  /// Worker `w` deposits a processed packet (SPSC per worker).
  /// A full ring is retried (with yield) at most `max_spins` times;
  /// 0 means retry forever. Returns false when the retry budget is
  /// exhausted — `pkt` is then left INTACT (its skb is not consumed), and
  /// the caller owns the loss and must account for it so the consumer's
  /// conservation check still terminates.
  [[nodiscard]] bool deposit(std::size_t w, RtPacket&& pkt,
                             std::uint32_t max_spins = 0);

  /// Deposit `count` packets from `pkts` in order; returns how many were
  /// accepted (a prefix — the rest are left intact for the caller to retry
  /// or drop). Amortizes ring atomics across the batch; spins/yields like
  /// deposit() only when the ring is full mid-batch.
  ///
  /// `prof` (optional): full-ring stall episodes inside the deposit are
  /// charged to `prof->output_full_*` — the fan-in fabric's
  /// merge-backpressure signal (rt::StageCounters; nullptr = no telemetry,
  /// no clock reads).
  [[nodiscard]] std::size_t deposit_batch(std::size_t w, RtPacket* pkts,
                                          std::size_t count,
                                          std::uint32_t max_spins = 0,
                                          StageCounters* prof = nullptr);

  /// Consumer: next packet in original flow order, or nullopt if the head
  /// of the current micro-flow hasn't arrived yet.
  std::optional<RtPacket> pop_ready();

  /// Consumer: pop up to `max` in-order packets into `out`, crossing
  /// micro-flow boundaries when the next micro-flow's head has already
  /// arrived. Returns how many were written; 0 means the merge head is dry
  /// (same condition as pop_ready() == nullopt). Amortizes ring atomics
  /// across whole micro-flow runs — the consumer-side twin of
  /// deposit_batch().
  std::size_t pop_ready_batch(RtPacket* out, std::size_t max);

  /// Consumer side: buffer ring owning the micro-flow under merge.
  std::size_t merge_owner() { return owner_of(merge_counter_); }

  /// Buffer ring `w` holds nothing right now. Exact once worker `w` has
  /// exited: nothing can be deposited there any more.
  bool ring_empty(std::size_t w) const { return rings_[w]->empty(); }

  /// Micro-flows fully merged so far (consumer-private counter).
  std::uint64_t batches_merged() const { return batches_merged_; }

  /// Skip a micro-flow whose ring is dry after its worker exited (a batch
  /// boundary that will never see more input).
  void force_advance();

  /// Producer side (the splitter/generator thread): all batches from
  /// `first_batch` on round-robin over the first `e.workers` rings. MUST be
  /// announced before any packet of `first_batch` is pushed toward the
  /// workers — the consumer observes packets only through an
  /// acquire/release chain rooted at that push, so the announcement is then
  /// guaranteed visible by the time the merge counter reaches the epoch.
  /// Returns false when the epoch budget (`max_epochs`) is exhausted.
  [[nodiscard]] bool announce_epoch(Epoch e);

  /// Consumer side: ring index owning `batch` under the epochs applied so
  /// far (drains pending announcements first).
  std::size_t owner_of(std::uint64_t batch);

  /// A packet of `batch` was dropped before its deposit; informational —
  /// the rt merge never stalls on holes (per-worker FIFO implies batch
  /// completion), so this only feeds accounting.
  void note_drop(std::uint64_t batch, std::uint32_t segs) {
    drops_noted_ += segs;
    (void)batch;
  }
  std::uint64_t drops_noted() const { return drops_noted_; }

  /// All buffer rings empty — nothing deposited awaits merging. Quiescent
  /// use only (consumer idle): the rescale-drain completion condition.
  bool drained() const;

  /// Total packets currently buffered across all fan-in rings. Approximate
  /// from any thread (each ring's size is a racy-but-monotone snapshot);
  /// the scalability profiler samples it as the merge-side queue-pressure
  /// signal.
  std::size_t occupancy() const;

 private:
  /// Drain pending epoch announcements into the applied table. Called on
  /// every consumer lookup: cost is one empty-check on the epoch ring.
  void apply_epochs();

  std::vector<std::unique_ptr<SpscRing<RtPacket>>> rings_;
  std::uint64_t merge_counter_ = 1;  // consumer-private
  std::uint64_t batches_merged_ = 0;
  std::uint64_t drops_noted_ = 0;

  SpscRing<Epoch> epoch_ring_;
  std::vector<Epoch> epochs_;  // applied, ascending first_batch; reserved
  std::size_t max_epochs_;
  std::size_t announced_ = 0;  // producer-private budget counter
};

}  // namespace mflow::rt
