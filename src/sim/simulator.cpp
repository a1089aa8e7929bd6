#include "sim/simulator.hpp"

namespace mflow::sim {

std::uint64_t Simulator::run_until(Time until) {
  std::uint64_t fired = 0;
  while (!queue_.empty() && queue_.next_time() < until) {
    auto [when, fn] = queue_.pop(seq_);
    now_ = when;
    fn();
    ++fired;
  }
  if (now_ < until) now_ = until;
  return fired;
}

std::uint64_t Simulator::run() {
  std::uint64_t fired = 0;
  while (!queue_.empty()) {
    auto [when, fn] = queue_.pop(seq_);
    now_ = when;
    fn();
    ++fired;
  }
  return fired;
}

}  // namespace mflow::sim
