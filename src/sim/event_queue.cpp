#include "sim/event_queue.hpp"

namespace mflow::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void EventQueue::sift_up(Node node) {
  std::size_t hole = heap_.size();
  heap_.push_back(node);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(node, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = node;
}

void EventQueue::sift_down(Node node) {
  Node* h = heap_.data();
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    std::size_t best;
    if (first + kArity <= n) {  // a full set of children: a tournament
      best = earlier(h, earlier(h, first, first + 1),
                     earlier(h, first + 2, first + 3));
    } else if (first < n) {
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) best = earlier(h, best, c);
    } else {
      break;
    }
    if (!before(h[best], node)) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = node;
}

std::pair<Time, EventFn> EventQueue::pop(std::uint64_t& seq) {
  const Node top = heap_.front();
  seq = top.seq;
  const Node last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(last);
  free_.push_back(top.slot);
  return {top.when, std::move(slab_[top.slot])};
}

void EventQueue::clear() {
  heap_.clear();
  slab_.clear();
  free_.clear();
  next_seq_ = 0;
}

}  // namespace mflow::sim
