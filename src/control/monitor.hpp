// RateWindow: one flow's rate estimate over a sliding window (control plane
// stage 1 of monitor -> classifier -> scaler).
//
// The monitor is pull-based and engine-agnostic: whoever drives the control
// loop periodically feeds it cumulative per-flow totals (wire segments +
// payload bytes, exactly what BatchAssigner already counts at the split
// point for every packet, mice included), and the window keeps a short ring
// of timestamped samples. A rate query answers with the delta over the
// samples spanning the configured window — a sliding window average, robust
// to the sampling interval jittering.
//
// RateWindow is a value type with no table of its own: the Controller keeps
// one inside each flow's control record (policy.hpp), next to the
// classifier's hysteresis and the split degree. The window's first and last
// samples sit inline in it, so the activity test and a rate query read no
// sample storage. Every sample also goes into a power-of-two ring drawn
// from a SamplePool that the owner passes in; the window reads the ring
// only when the trim drops the front and the next sample becomes the
// first. The ring grows by need (16, 32, 64, ... samples) and goes back to
// the pool when the owner releases the window, so a population of flows
// that comes and goes stops allocating once the pool holds its peak.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "control/flowtable.hpp"
#include "sim/time.hpp"

namespace mflow::control {

struct MonitorParams {
  /// Sliding window the rates are averaged over. Short windows react fast
  /// but amplify sender burstiness; the classifier's hysteresis (dwell)
  /// compensates, so the default leans reactive.
  sim::Time window = sim::ms(1);
  /// Samples retained per flow; must cover window / sampling-interval.
  std::size_t max_samples = 32;
  /// The Controller's flow records: shard count, the hard occupancy bound,
  /// and the idle TTL after which a flow with no activity becomes
  /// expirable (table.ttl == 0 keeps flows until they are evicted). The
  /// shards partition the capacity and the LRU eviction exactly as in a
  /// FlowTable, and the Controller reads this ttl as the flow-state
  /// lifetime.
  FlowTableParams table{};
};

/// One cumulative observation. No default member initializers: the pool
/// hands out ring blocks without writing them.
struct RateSample {
  sim::Time at;
  std::uint64_t segs;
  std::uint64_t bytes;
};

/// Recycled ring storage for RateWindows: blocks of 2^k samples, handed out
/// from one free list per size and carved from chunks that live as long as
/// the pool. Blocks never move, and the pool allocates only when a size
/// has no free block left.
class SamplePool {
 public:
  /// The smallest block: 16 samples, as many as a short flow keeps.
  static constexpr unsigned kMinLog2 = 4;

  SamplePool() = default;
  SamplePool(const SamplePool&) = delete;
  SamplePool& operator=(const SamplePool&) = delete;

  RateSample* acquire(unsigned log2) {
    if (log2 >= sizes_.size()) sizes_.resize(log2 + 1);
    Size& s = sizes_[log2];
    if (s.free.empty()) refill(s, log2);
    RateSample* block = s.free.back();
    s.free.pop_back();
    return block;
  }

  /// `block` came from acquire(log2).
  void release(RateSample* block, unsigned log2) {
    sizes_[log2].free.push_back(block);
  }

 private:
  struct Size {
    std::vector<RateSample*> free;
    std::size_t blocks = 0;  // carved so far, free or in use
  };

  static constexpr std::size_t kChunkBytes = 8192;

  void refill(Size& s, unsigned log2) {
    const std::size_t block = std::size_t{1} << log2;
    const std::size_t n =
        std::max<std::size_t>(1, kChunkBytes / (block * sizeof(RateSample)));
    chunks_.push_back(std::make_unique_for_overwrite<RateSample[]>(n * block));
    s.blocks += n;
    // Room for every block of this size, so release() never allocates.
    s.free.reserve(s.blocks);
    for (std::size_t i = n; i-- > 0;)
      s.free.push_back(chunks_.back().get() + i * block);
  }

  std::vector<Size> sizes_;  // indexed by log2 of the block's samples
  std::vector<std::unique_ptr<RateSample[]>> chunks_;
};

class RateWindow {
 public:
  /// Append one cumulative observation at `now` (totals are monotonic
  /// lifetime segments/bytes; the window differentiates internally) and
  /// trim. Returns true on ACTIVITY — the first sample, or totals that
  /// advanced — which is what the Controller's flow recency tracks: a
  /// source that keeps reporting a finished flow at frozen totals must not
  /// keep it alive, or nothing would ever expire.
  bool record(std::uint64_t total_segs, std::uint64_t total_bytes,
              sim::Time now, const MonitorParams& params, SamplePool& pool) {
    const bool active = size_ == 0 || total_segs > last_.segs ||
                        total_bytes > last_.bytes;
    // Trim so the RETAINED span (first..last, the new sample included)
    // never exceeds the window — comparing against the second sample used
    // to let the rate average over up to window + one sampling interval,
    // which kept a stale pre-drop rate alive and delayed demotion dwell.
    // Always keep at least two samples so a sparse sampler (interval >
    // window) still yields a rate. The trim runs before the push: the new
    // sample is never the one dropped, so the outcome is the same and the
    // ring never holds more than it retains.
    while (size_ >= 2 && (size_ + 1 > params.max_samples ||
                          now - first_.at > params.window)) {
      head_ = (head_ + 1) & (cap_ - 1);
      --size_;
      first_ = ring_[head_];
    }
    if (size_ == cap_) grow(pool);
    // Each copy is stored field by field from registers: copying last_
    // into the ring right after writing it would reload it across two
    // stores, a store-forwarding stall per sample.
    set(ring_[(head_ + size_) & (cap_ - 1)], now, total_segs, total_bytes);
    set(last_, now, total_segs, total_bytes);
    if (size_ == 0) set(first_, now, total_segs, total_bytes);
    ++size_;
    return active;
  }

  /// Average rate over the retained samples. 0 until two samples.
  double rate_pps() const { return rate(/*bytes=*/false); }
  double rate_bps() const { return rate(/*bytes=*/true) * 8.0; }

  /// Lifetime segments at the last sample (0 before the first).
  std::uint64_t total_segs() const { return size_ == 0 ? 0 : last_.segs; }
  bool empty() const { return size_ == 0; }

  /// Hand the ring back to `pool`, the one record() drew it from; the
  /// window is empty afterwards.
  void release(SamplePool& pool) {
    if (ring_ != nullptr)
      pool.release(ring_, static_cast<unsigned>(std::countr_zero(cap_)));
    *this = RateWindow{};
  }

 private:
  static void set(RateSample& s, sim::Time at, std::uint64_t segs,
                  std::uint64_t bytes) {
    s.at = at;
    s.segs = segs;
    s.bytes = bytes;
  }

  double rate(bool bytes) const {
    if (size_ < 2) return 0.0;
    const sim::Time span = last_.at - first_.at;
    if (span <= 0) return 0.0;
    const std::uint64_t delta =
        bytes ? last_.bytes - first_.bytes : last_.segs - first_.segs;
    return static_cast<double>(delta) / sim::to_seconds(span);
  }

  /// Move the samples, in order, into a ring twice the size.
  void grow(SamplePool& pool) {
    const unsigned log2 =
        cap_ == 0 ? SamplePool::kMinLog2
                  : static_cast<unsigned>(std::countr_zero(cap_)) + 1;
    RateSample* bigger = pool.acquire(log2);
    for (std::uint32_t i = 0; i < size_; ++i)
      bigger[i] = ring_[(head_ + i) & (cap_ - 1)];
    if (ring_ != nullptr)
      pool.release(ring_, static_cast<unsigned>(std::countr_zero(cap_)));
    ring_ = bigger;
    head_ = 0;
    cap_ = std::uint32_t{1} << log2;
  }

  RateSample first_{};  // the oldest retained sample (ring_[head_])
  RateSample last_{};   // the newest
  RateSample* ring_ = nullptr;
  std::uint32_t head_ = 0;  // ring index of first_
  std::uint32_t size_ = 0;  // retained samples
  std::uint32_t cap_ = 0;   // ring slots: 0 or a power of two
};

}  // namespace mflow::control
