// The discrete-event simulator driving all experiments.
//
// Why a simulator: the paper's results are scheduling/queueing phenomena on a
// 2x16-core server with a 100GbE NIC — hardware we cannot assume. A
// deterministic DES reproduces exactly those phenomena (which stage runs on
// which core, which core saturates, how queues back up) independent of the
// host machine, and makes every experiment replayable from a seed.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace mflow::sim {

/// A place in the event order taken ahead of the event itself: the
/// (when, seq) key an after(delay, ...) made at reservation time would have
/// had. See Simulator::reserve_after().
struct Ticket {
  Time when = 0;
  std::uint64_t seq = 0;

  /// Event order: by time, then by sequence number.
  friend bool operator<(const Ticket& a, const Ticket& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Time now() const { return now_; }

  /// Called from inside an event: that event's place in the event order.
  /// Every pending event sorts after it, so a Ticket that sorts before it
  /// belongs to an event that would already have run.
  Ticket running() const { return {now_, seq_}; }

  /// Schedule fn (an EventFn or anything one is built from) at absolute
  /// virtual time `when` (>= now()).
  template <class F>
  void at(Time when, F&& fn) {
    assert(when >= now_);
    queue_.push(when, std::forward<F>(fn));
  }

  /// Schedule fn `delay` ns from now.
  template <class F>
  void after(Time delay, F&& fn) {
    at(now_ + delay, std::forward<F>(fn));
  }

  /// Reserve the place an after(delay, ...) made now would take, and
  /// schedule the event later with at(ticket, fn). It pops exactly where the
  /// after() event would have, as long as it is scheduled before any event
  /// that sorts after it pops. A FIFO delay line keeps one event pending:
  /// each item takes a ticket on entry and the line schedules the next
  /// item's ticket when the current one fires.
  Ticket reserve_after(Time delay) {
    return {now_ + delay, queue_.reserve_seq()};
  }

  /// Schedule fn at a reserved place (see reserve_after()).
  template <class F>
  void at(const Ticket& ticket, F&& fn) {
    assert(ticket.when >= now_);
    queue_.push_reserved(ticket.when, ticket.seq, std::forward<F>(fn));
  }

  /// Run until the event queue drains or virtual time reaches `until`.
  /// Events at exactly `until` do not fire. Returns the number of events run.
  std::uint64_t run_until(Time until);

  /// Run until the queue drains completely.
  std::uint64_t run();

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }

  util::Rng& rng() { return rng_; }

 private:
  Time now_ = 0;
  std::uint64_t seq_ = 0;  // of the running event
  EventQueue queue_;
  util::Rng rng_;
};

}  // namespace mflow::sim
