// Priority queue of timestamped events with deterministic FIFO tie-breaking.
//
// Determinism matters: two events scheduled for the same virtual instant must
// always fire in insertion order, so a re-run with the same seed replays the
// same interleaving. Every event gets a sequence number at push (or earlier,
// at reserve_seq()), and the queue pops in (time, sequence) order; the key
// is unique, so the pop order does not depend on the heap's shape.
//
// The queue is the DES's innermost loop, so it never touches the allocator in
// steady state:
//  - EventFn keeps its capture inline (no heap fallback). A capture that does
//    not fit is a compile error; capture a pointer to the state instead.
//  - Callables live in a slab with a LIFO free list of slot indices, so a
//    freed slot is the next one reused and stays warm in cache.
//  - Ordering is a 4-ary min-heap of small {when, seq, slot} nodes: swaps
//    move 24 bytes, not the callable, and the tree is half as deep as a
//    binary heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace mflow::sim {

/// A move-only `void()` callable with inline storage. sizeof(EventFn) is 64:
/// a 56-byte capture buffer plus one pointer to the type's operations.
class EventFn {
 public:
  static constexpr std::size_t kCapacity = 56;

  template <class F, class D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                 std::is_invocable_r_v<void, D&>,
                             int> = 0>
  EventFn(F&& f) {  // NOLINT: implicit, like std::function
    static_assert(sizeof(D) <= kCapacity,
                  "EventFn capture exceeds 56 bytes: capture a pointer to "
                  "the state instead of the state itself");
    static_assert(alignof(D) <= alignof(void*),
                  "EventFn capture is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "EventFn capture must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  EventFn(EventFn&& o) noexcept { take(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Precondition: not moved from.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Both null for trivially copyable captures: relocating one is a byte
    // copy of the buffer and destroying one does nothing.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <class D>
  static D* as(void* p) noexcept {
    return std::launder(static_cast<D*>(p));
  }

  template <class D>
  static constexpr Ops make_ops() noexcept {
    if constexpr (std::is_trivially_copyable_v<D>) {
      return {[](void* p) { (*as<D>(p))(); }, nullptr, nullptr};
    } else {
      return {[](void* p) { (*as<D>(p))(); },
              [](void* dst, void* src) noexcept {
                ::new (dst) D(std::move(*as<D>(src)));
                as<D>(src)->~D();
              },
              [](void* p) noexcept { as<D>(p)->~D(); }};
    }
  }
  template <class D>
  static constexpr Ops kOps = make_ops<D>();

  /// Move `o`'s callable into this (empty) object and leave `o` empty.
  void take(EventFn& o) noexcept {
    if (o.ops_ == nullptr) return;
    if (o.ops_->relocate != nullptr)
      o.ops_->relocate(buf_, o.buf_);
    else
      std::memcpy(buf_, o.buf_, kCapacity);
    ops_ = std::exchange(o.ops_, nullptr);
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(EventFn) == 64);

class EventQueue {
 public:
  /// Schedule `fn` (an EventFn or anything one is built from) at `when`.
  template <class F>
  void push(Time when, F&& fn) {
    push_reserved(when, reserve_seq(), std::forward<F>(fn));
  }

  /// Take the tie-break sequence number a push() made now would get,
  /// without pushing anything. The event is pushed later through
  /// push_reserved() and pops exactly where it would have popped had it been
  /// pushed now — provided it is pushed before any event that sorts after it
  /// pops (a delay line arms its next head when the previous head pops).
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `fn` at `when` under a sequence number from reserve_seq().
  template <class F>
  void push_reserved(Time when, std::uint64_t seq, F&& fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      // A free slot holds an empty EventFn; build the callable in place.
      std::destroy_at(&slab_[slot]);
      std::construct_at(&slab_[slot], std::forward<F>(fn));
    } else {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back(std::forward<F>(fn));
    }
    sift_up(Node{when, seq, slot});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  Time next_time() const { return heap_.front().when; }

  /// Pop and return the earliest event (by time, then insertion order). The
  /// callable is moved out of its slot, so running it may push freely.
  /// `seq` receives the event's sequence number, which with its time is the
  /// event's unique place in the order. Precondition: !empty().
  std::pair<Time, EventFn> pop(std::uint64_t& seq);
  std::pair<Time, EventFn> pop() {
    std::uint64_t seq;
    return pop(seq);
  }

  /// Drop every pending event, destroying its callable (and so releasing
  /// whatever it owns).
  void clear();

 private:
  struct Node {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Branch-free on purpose: the heap's comparisons are coin flips that a
  // predictor cannot learn.
  static bool before(const Node& a, const Node& b) {
    return (a.when < b.when) | ((a.when == b.when) & (a.seq < b.seq));
  }
  /// Whichever of heap positions x and y sorts first, chosen branch-free.
  static std::size_t earlier(const Node* h, std::size_t x, std::size_t y) {
    const std::size_t take_y =
        0 - static_cast<std::size_t>(before(h[y], h[x]));
    return x ^ ((x ^ y) & take_y);
  }
  void sift_up(Node node);
  void sift_down(Node node);

  std::vector<Node> heap_;          // 4-ary min-heap on (when, seq)
  std::vector<EventFn> slab_;       // callables, indexed by Node::slot
  std::vector<std::uint32_t> free_;  // empty slab slots, reused LIFO
  std::uint64_t next_seq_ = 0;
};

}  // namespace mflow::sim
