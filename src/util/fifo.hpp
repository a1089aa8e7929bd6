// Grow-only FIFO ring for the DES's packet and work queues and the control
// plane's per-flow sample windows.
//
// std::deque allocates and frees a fixed-size block (512 bytes in libstdc++)
// each time its front and back cross one, so a queue that cycles packets in
// steady state keeps touching the allocator. Fifo keeps one power-of-two
// array that doubles when full and never shrinks: once a queue has reached
// its peak depth, push_back and pop_front are index arithmetic only.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace mflow::util {

/// T must be default-constructible and move-assignable; pop_front resets
/// the vacated slot to T{}, so an owning T (a PacketPtr) is released there,
/// and every slot past the back holds T{}.
template <class T>
class Fifo {
 public:
  void push_back(T v) { emplace_back() = std::move(v); }

  /// Append a T{} and return it, for the caller to fill in place.
  T& emplace_back() {
    if (size_ == slots_.size()) grow();
    T& slot = slots_[(head_ + size_) & (slots_.size() - 1)];
    ++size_;
    return slot;
  }

  /// Precondition: !empty().
  T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }

  /// Precondition: !empty().
  const T& back() const {
    assert(size_ > 0);
    return slots_[(head_ + size_ - 1) & (slots_.size() - 1)];
  }

  /// Precondition: !empty().
  void pop_front() {
    assert(size_ > 0);
    // T{} built in place: assigning a temporary would store it on the
    // stack and reload it, a store-forwarding stall per pop.
    T& slot = slots_[head_];
    std::destroy_at(&slot);
    std::construct_at(&slot);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// Double the array, unwrapping the ring to start at index 0.
  void grow() {
    std::vector<T> bigger(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;  // index of front()
  std::size_t size_ = 0;
};

}  // namespace mflow::util
