// Lock-free single-producer/single-consumer ring buffer.
//
// The real-thread MFLOW engine (rt/engine.hpp) moves every packet through
// these: splitter -> worker and worker -> merger are each strictly SPSC,
// exactly like the per-core, per-device splitting queues and buffer queues
// of the paper — so no multi-producer machinery is needed anywhere.
//
// Performance shape (the full contract is written up in
// docs/PERFORMANCE.md §SPSC):
//
//  - head_ (producer-owned) and tail_ (consumer-owned) live on separate
//    cache lines, each padded to a full line together with the OTHER side's
//    cached index, so the two threads never false-share;
//  - each side keeps a cached copy of the opposite index (`cached_tail_` on
//    the producer line, `cached_head_` on the consumer line) and only
//    re-reads the shared atomic when the cache says the ring LOOKS full/
//    empty — the common-case push/pop touches no foreign cache line at all;
//  - try_push_batch / try_pop_batch amortize the one acquire-load and one
//    release-store across a whole batch, which is where the engine gets its
//    paper-style batching win.
//
// Memory ordering: the producer publishes slots with a release store of
// head_; the consumer observes them with an acquire load, and symmetrically
// for tail_. Cached indices are conservative (stale values only under-
// estimate available space/items), so they need no ordering of their own.
// Indices are monotonically increasing uint64 (no wrap handling needed in
// practice); capacity must be a power of two — enforced with a hard error
// in ALL build types, because a silent non-power-of-2 mask corrupts data.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace mflow::rt {

template <typename T>
class SpscRing {
 public:
  /// Capacity must be a power of two; throws std::invalid_argument
  /// otherwise (hard error even in release builds — see file header).
  explicit SpscRing(std::size_t capacity_pow2)
      : mask_(capacity_pow2 - 1), slots_(capacity_pow2) {
    if (capacity_pow2 == 0 || !std::has_single_bit(capacity_pow2)) {
      throw std::invalid_argument(
          "SpscRing capacity must be a non-zero power of two");
    }
  }

  /// Producer side. Returns false when full (caller decides to spin/yield).
  bool try_push(const T& value) { return emplace(value); }

  /// Rvalue push: `value` is moved from ONLY on success — on a full ring it
  /// is left intact, so callers holding move-only handles (net::PacketPtr)
  /// can retry without losing the packet.
  bool try_push(T&& value) { return emplace(std::move(value)); }

  /// Push up to `count` items from `items`; returns how many were moved in
  /// (the first `n` elements — the rest are untouched). One release store
  /// publishes the whole batch.
  std::size_t try_push_batch(T* items, std::size_t count) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t space = capacity() - static_cast<std::size_t>(head - cached_tail_);
    if (space < count) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      space = capacity() - static_cast<std::size_t>(head - cached_tail_);
      if (space == 0) return 0;
    }
    const std::size_t n = count < space ? count : space;
    if (n == 0) return 0;  // count == 0: no no-op release store (see §ring
                           // fan-in note in docs/SCALING.md)
    for (std::size_t i = 0; i < n; ++i)
      slots_[(head + i) & mask_] = std::move(items[i]);
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer side. Returns nullopt when empty.
  std::optional<T> try_pop() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return std::nullopt;
    }
    std::optional<T> value(std::move(slots_[tail & mask_]));
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  /// Pop up to `max` items into `out`; returns how many were written. One
  /// release store frees the whole batch for the producer.
  ///
  /// Cached-index contract on this path (audited for the fan-in fabric,
  /// where one consumer thread batch-drains MANY rings): the cached head
  /// is refreshed with an acquire load whenever it cannot satisfy the full
  /// `max` request, so a short return value always reflects a fresh view
  /// of the producer's published index — there is no window in which items
  /// already published release-side stay invisible to a caller that asked
  /// for them. A stale cache can only ever UNDER-report (the next call
  /// refreshes), never fabricate items.
  std::size_t try_pop_batch(T* out, std::size_t max) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(cached_head_ - tail);
    if (avail < max) {
      cached_head_ = head_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(cached_head_ - tail);
      if (avail == 0) return 0;
    }
    const std::size_t n = max < avail ? max : avail;
    if (n == 0) return 0;  // max == 0: a no-op release store of tail_ would
                           // needlessly dirty the line producers poll
    for (std::size_t i = 0; i < n; ++i)
      out[i] = std::move(slots_[(tail + i) & mask_]);
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Pop consecutive head items while `pred(item)` holds, up to `max`.
  /// The first item that fails the predicate stays in the ring (along with
  /// everything behind it). One release store frees the accepted prefix —
  /// this is how the merger consumes a micro-flow run without giving up
  /// batching at batch boundaries. Consumer-only.
  template <typename Pred>
  std::size_t try_pop_batch_while(T* out, std::size_t max, Pred&& pred) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(cached_head_ - tail);
    if (avail < max) {
      cached_head_ = head_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(cached_head_ - tail);
      if (avail == 0) return 0;
    }
    const std::size_t n = max < avail ? max : avail;
    std::size_t i = 0;
    for (; i < n; ++i) {
      T& slot = slots_[(tail + i) & mask_];
      if (!pred(static_cast<const T&>(slot))) break;
      out[i] = std::move(slot);
    }
    if (i != 0) tail_.store(tail + i, std::memory_order_release);
    return i;
  }

  /// Consumer-side peek without consuming (used by the batch merger to
  /// detect batch boundaries). The reference stays valid until try_pop().
  /// Consumer-only (updates the consumer's cached head index).
  const T* peek() {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return nullptr;
    }
    return &slots_[tail & mask_];
  }

  /// Snapshot of current occupancy; exact only from producer or consumer.
  std::size_t size() const {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_acquire));
  }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  template <typename U>
  bool emplace(U&& value) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ > mask_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ > mask_) return false;
    }
    slots_[head & mask_] = std::forward<U>(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Read-mostly header (shared by both sides, never written after ctor).
  std::size_t mask_;
  std::vector<T> slots_;

  // Producer-owned line: published index + cached view of the consumer's.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_{0};

  // Consumer-owned line, padded so nothing trails into a third shared line.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_{0};
  char pad_[64 - 2 * sizeof(std::uint64_t)];
};

/// Bounded yield-retry for a ring (or pool) operation that found no room:
/// each again() counts one failed attempt and yields, and returns false
/// once `max_spins` attempts have failed — the caller then gives up on the
/// operation. 0 retries forever.
class YieldRetry {
 public:
  explicit YieldRetry(std::uint32_t max_spins) : max_spins_(max_spins) {}

  bool again() {
    if (max_spins_ != 0 && ++spins_ >= max_spins_) return false;
    std::this_thread::yield();
    return true;
  }

 private:
  std::uint32_t max_spins_;
  std::uint32_t spins_ = 0;
};

/// Push `count` items from `items` in order, retrying a full ring under a
/// YieldRetry(max_spins) budget; `on_full()` runs on every attempt that
/// found no room. Returns how many were pushed: a prefix, the rest left
/// intact for the caller to shed.
template <typename T, typename OnFull>
std::size_t push_batch_retrying(SpscRing<T>& ring, T* items, std::size_t count,
                                std::uint32_t max_spins, OnFull&& on_full) {
  YieldRetry retry(max_spins);
  std::size_t done = 0;
  while (done < count) {
    const std::size_t n = ring.try_push_batch(items + done, count - done);
    done += n;
    if (n == 0) {
      on_full();
      if (!retry.again()) break;
    }
  }
  return done;
}

}  // namespace mflow::rt
