#include "rt/reassembler.hpp"

#include <bit>
#include <thread>

namespace mflow::rt {

RtReassembler::RtReassembler(std::size_t workers,
                             std::size_t ring_capacity_pow2,
                             std::size_t max_epochs)
    : epoch_ring_(std::bit_ceil(max_epochs + 1)), max_epochs_(max_epochs) {
  for (std::size_t i = 0; i < workers; ++i)
    rings_.push_back(
        std::make_unique<SpscRing<RtPacket>>(ring_capacity_pow2));
  // Reserved up front so apply_epochs() never allocates on the consumer's
  // hot path (the zero-allocation invariant of docs/PERFORMANCE.md).
  epochs_.reserve(max_epochs + 1);
  epochs_.push_back(Epoch{1, static_cast<std::uint32_t>(workers)});
}

bool RtReassembler::announce_epoch(Epoch e) {
  if (announced_ >= max_epochs_) return false;
  if (e.workers == 0 || e.workers > rings_.size()) return false;
  if (!epoch_ring_.try_push(std::move(e))) return false;
  ++announced_;
  return true;
}

void RtReassembler::apply_epochs() {
  while (auto e = epoch_ring_.try_pop()) epochs_.push_back(*e);
}

std::size_t RtReassembler::owner_of(std::uint64_t batch) {
  apply_epochs();
  // Epochs arrive in ascending first_batch order; the newest one at or
  // below `batch` governs it. The table stays tiny (one entry per rescale),
  // so a reverse scan beats any indexed structure.
  for (std::size_t e = epochs_.size(); e-- > 0;) {
    if (batch >= epochs_[e].first_batch)
      return static_cast<std::size_t>((batch - epochs_[e].first_batch) %
                                      epochs_[e].workers);
  }
  return static_cast<std::size_t>((batch - 1) % rings_.size());
}

bool RtReassembler::deposit(std::size_t w, RtPacket&& pkt,
                            std::uint32_t max_spins) {
  auto& ring = *rings_[w];
  std::uint32_t spins = 0;
  // The rvalue try_push only consumes pkt on success, so a false return
  // here leaves the packet (and its skb) with the caller.
  while (!ring.try_push(std::move(pkt))) {
    if (max_spins != 0 && ++spins >= max_spins) return false;
    std::this_thread::yield();
  }
  return true;
}

std::size_t RtReassembler::deposit_batch(std::size_t w, RtPacket* pkts,
                                         std::size_t count,
                                         std::uint32_t max_spins,
                                         StageCounters* prof) {
  auto& ring = *rings_[w];
  std::size_t done = 0;
  std::uint32_t spins = 0;
  StallClock full;
  while (done < count) {
    const std::size_t n = ring.try_push_batch(pkts + done, count - done);
    done += n;
    if (done == count) break;
    if (n == 0) {
      if (prof != nullptr) full.stall();
      if (max_spins != 0 && ++spins >= max_spins) break;
      std::this_thread::yield();
    }
  }
  // Resolve whether the stall ended in progress or in giving up — either
  // way the time was spent blocked on a full merge ring.
  if (prof != nullptr)
    full.resolve(prof->output_full_episodes, prof->output_full_ns);
  return done;
}

std::optional<RtPacket> RtReassembler::pop_ready() {
  // Locate the buffer queue holding the micro-flow under merge; keep
  // consuming it until a packet with a different ID shows up, then advance
  // the merging counter (paper §III-B). The owner lookup re-applies any
  // pending epoch on every iteration, so the counter can never cross a
  // rescale boundary on a stale worker mapping.
  while (true) {
    auto& ring = *rings_[owner_of(merge_counter_)];
    const RtPacket* head = ring.peek();
    if (head == nullptr) return std::nullopt;
    if (head->batch == merge_counter_ && !head->marker) {
      std::optional<RtPacket> pkt = ring.try_pop();
      if (pkt->batch_end) {
        ++merge_counter_;
        ++batches_merged_;
      }
      return pkt;
    }
    if (head->batch > merge_counter_) {
      // A later batch (or an epoch-flush marker for one) at the head: the
      // current micro-flow is fully consumed (FIFO per worker), so move
      // the merging counter forward.
      ++merge_counter_;
      ++batches_merged_;
      continue;
    }
    // A marker at or below the counter has served its purpose (real
    // packets can never be below the counter): discard and re-examine.
    (void)ring.try_pop();
  }
}

std::size_t RtReassembler::pop_ready_batch(RtPacket* out, std::size_t max) {
  std::size_t got = 0;
  while (got < max) {
    auto& ring = *rings_[owner_of(merge_counter_)];
    const std::size_t n = ring.try_pop_batch_while(
        out + got, max - got, [this](const RtPacket& p) {
          return p.batch == merge_counter_ && !p.marker;
        });
    got += n;
    if (n != 0 && out[got - 1].batch_end) {
      // The micro-flow's final packet: complete, whatever the ring holds.
      ++merge_counter_;
      ++batches_merged_;
      continue;
    }
    const RtPacket* head = ring.peek();
    if (head == nullptr) break;  // merge head dry — caller yields/advances
    if (head->batch == merge_counter_ && !head->marker)
      continue;  // more of this micro-flow arrived — keep draining
    if (head->batch > merge_counter_) {
      // A later batch (or its epoch-flush marker) at the head: this
      // micro-flow is complete (FIFO per worker), advance and keep
      // draining into the same output chunk.
      ++merge_counter_;
      ++batches_merged_;
      continue;
    }
    // Spent epoch-flush marker: discard and re-examine the head.
    (void)ring.try_pop();
  }
  return got;
}

void RtReassembler::force_advance() {
  ++merge_counter_;
  ++batches_merged_;
}

bool RtReassembler::drained() const {
  for (const auto& ring : rings_)
    if (!ring->empty()) return false;
  return true;
}

std::size_t RtReassembler::occupancy() const {
  std::size_t total = 0;
  for (const auto& ring : rings_) total += ring->size();
  return total;
}

}  // namespace mflow::rt
