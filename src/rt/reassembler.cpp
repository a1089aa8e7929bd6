#include "rt/reassembler.hpp"

namespace mflow::rt {

RtReassembler::RtReassembler(std::size_t workers,
                             std::size_t ring_capacity_pow2,
                             std::size_t epoch_capacity_pow2)
    : epoch_ring_(epoch_capacity_pow2),
      current_{1, static_cast<std::uint32_t>(workers)} {
  for (std::size_t i = 0; i < workers; ++i)
    rings_.push_back(
        std::make_unique<SpscRing<RtPacket>>(ring_capacity_pow2));
}

std::size_t RtReassembler::merge_owner() {
  // Epochs arrive in ascending first_batch order and the merge head only
  // moves forward: once the head reaches an epoch, every older one is dead.
  // Cost when nothing is pending: one empty-check on the epoch ring.
  while (const Epoch* next = epoch_ring_.peek()) {
    if (next->first_batch > merge_counter_) break;
    current_ = *next;
    (void)epoch_ring_.try_pop();
  }
  return static_cast<std::size_t>((merge_counter_ - current_.first_batch) %
                                  current_.workers);
}

std::size_t RtReassembler::deposit_batch(std::size_t w, RtPacket* pkts,
                                         std::size_t count,
                                         std::uint32_t max_spins,
                                         StageCounters* prof) {
  StallClock full;
  const std::size_t done =
      push_batch_retrying(*rings_[w], pkts, count, max_spins, [&] {
        if (prof != nullptr) full.stall();
      });
  // Resolve whether the stall ended in progress or in giving up — either
  // way the time was spent blocked on a full merge ring.
  if (prof != nullptr)
    full.resolve(prof->output_full_episodes, prof->output_full_ns);
  return done;
}

std::size_t RtReassembler::pop_ready_batch(RtPacket* out, std::size_t max) {
  return drain_ready(max, [&out](RtPacket& p) { *out++ = std::move(p); });
}

void RtReassembler::force_advance() {
  ++merge_counter_;
  ++batches_merged_;
}

std::size_t RtReassembler::occupancy() const {
  std::size_t total = 0;
  for (const auto& ring : rings_) total += ring->size();
  return total;
}

}  // namespace mflow::rt
