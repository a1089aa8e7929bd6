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
//  - reserve/publish (producer) and front/release (consumer) hand out
//    contiguous spans of slots, so a thread can build, process or drain
//    items where the ring holds them; one acquire-load and one release-
//    store then cover a whole span, which is where the engine gets its
//    paper-style batching win. Every other call is written on top of them,
//    so the ring has one index protocol.
//
// Memory ordering: the producer publishes slots with a release store of
// head_; the consumer observes them with an acquire load, and symmetrically
// for tail_. Cached indices are conservative (stale values only under-
// estimate available space/items), so they need no ordering of their own.
// Indices are monotonically increasing uint64 (no wrap handling needed in
// practice); capacity must be a power of two — enforced with a hard error
// in ALL build types, because a silent non-power-of-2 mask corrupts data.
//
// Span ownership: a reserved span belongs to the producer until publish(),
// a front span to the consumer until release(). A consumer moves each item
// out (or leaves it moved-from) before releasing its slot: the producer's
// next write into the slot assigns over whatever is left there, on the
// producer's thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
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

  /// Producer side: up to `want` free slots, contiguous, starting at the
  /// next one to publish. The span stops at the end of the slot array, so
  /// it may be shorter than the free space; empty when the ring is full.
  /// The slots hold moved-from items. Nothing is visible to the consumer
  /// until publish().
  std::span<T> reserve(std::size_t want) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t space = capacity() - static_cast<std::size_t>(head - cached_tail_);
    if (space < want) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      space = capacity() - static_cast<std::size_t>(head - cached_tail_);
    }
    const std::size_t at = static_cast<std::size_t>(head) & mask_;
    return {slots_.data() + at, std::min({want, space, capacity() - at})};
  }

  /// Make the first `k` slots of the last reserve() visible, in order, with
  /// one release store. publish(0) stores nothing.
  void publish(std::size_t k) {
    if (k == 0) return;  // a no-op store would dirty the line the consumer
                         // polls (see the ring fan-in note, docs/SCALING.md)
    head_.store(head_.load(std::memory_order_relaxed) + k,
                std::memory_order_release);
  }

  /// Consumer side: up to `max` published items, contiguous, oldest first.
  /// The span stops at the end of the slot array; empty when the ring is.
  /// A short span behind a cache that could not cover `max` reflects a
  /// fresh acquire load of the producer's index: once a publication is
  /// visible through any release/acquire chain, the next call sees it.
  std::span<T> front(std::size_t max) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(cached_head_ - tail);
    if (avail < max) {
      cached_head_ = head_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(cached_head_ - tail);
    }
    const std::size_t at = static_cast<std::size_t>(tail) & mask_;
    return {slots_.data() + at, std::min({max, avail, capacity() - at})};
  }

  /// Free the first `k` slots of the last front() for the producer, with
  /// one release store; each must hold a moved-from item. release(0)
  /// stores nothing.
  void release(std::size_t k) {
    if (k == 0) return;
    tail_.store(tail_.load(std::memory_order_relaxed) + k,
                std::memory_order_release);
  }

  /// Producer side. Returns false when full (caller decides to spin/yield).
  bool try_push(const T& value) { return emplace(value); }

  /// Rvalue push: `value` is moved from ONLY on success — on a full ring it
  /// is left intact, so callers holding move-only handles (net::PacketPtr)
  /// can retry without losing the packet.
  bool try_push(T&& value) { return emplace(std::move(value)); }

  /// Push up to `count` items from `items`; returns how many were moved in
  /// (the first `n` elements — the rest are untouched). One release store
  /// per contiguous span: one, or two when the batch crosses the wrap.
  std::size_t try_push_batch(T* items, std::size_t count) {
    std::size_t done = 0;
    while (done < count) {
      const std::span<T> room = reserve(count - done);
      if (room.empty()) break;
      std::move(items + done, items + done + room.size(), room.begin());
      publish(room.size());
      done += room.size();
    }
    return done;
  }

  /// Consumer side. Returns nullopt when empty.
  std::optional<T> try_pop() {
    const std::span<T> head = front(1);
    if (head.empty()) return std::nullopt;
    std::optional<T> value(std::move(head[0]));
    release(1);
    return value;
  }

  /// Pop up to `max` items into `out`; returns how many were written. One
  /// release store per contiguous span frees them for the producer. A
  /// short return value reflects a fresh view of the producer's index (see
  /// front()): a stale cache can only ever UNDER-report, never fabricate
  /// items — the contract the fan-in fabric, where one consumer thread
  /// drains MANY rings, depends on.
  std::size_t try_pop_batch(T* out, std::size_t max) {
    std::size_t done = 0;
    while (done < max) {
      const std::span<T> items = front(max - done);
      if (items.empty()) break;
      std::move(items.begin(), items.end(), out + done);
      release(items.size());
      done += items.size();
    }
    return done;
  }

  /// Consumer-side peek without consuming. The pointer stays valid until
  /// the item is popped or released. Consumer-only (updates the consumer's
  /// cached head index).
  const T* peek() {
    const std::span<T> head = front(1);
    return head.empty() ? nullptr : head.data();
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
    const std::span<T> room = reserve(1);
    if (room.empty()) return false;
    room[0] = std::forward<U>(value);
    publish(1);
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
