// The discrete-event simulator driving all experiments.
//
// Why a simulator: the paper's results are scheduling/queueing phenomena on a
// 2x16-core server with a 100GbE NIC — hardware we cannot assume. A
// deterministic DES reproduces exactly those phenomena (which stage runs on
// which core, which core saturates, how queues back up) independent of the
// host machine, and makes every experiment replayable from a seed.
#pragma once

#include <cassert>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace mflow::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Time now() const { return now_; }

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
  EventQueue queue_;
  util::Rng rng_;
};

}  // namespace mflow::sim
