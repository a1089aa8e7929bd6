#include "sim/core.hpp"

#include <algorithm>
#include <cassert>

namespace mflow::sim {

std::string_view tag_name(Tag tag) {
  switch (tag) {
    case Tag::kIrq: return "irq";
    case Tag::kDriver: return "driver";
    case Tag::kSkbAlloc: return "skb_alloc";
    case Tag::kGro: return "gro";
    case Tag::kSteer: return "steer";
    case Tag::kVxlan: return "vxlan";
    case Tag::kBridge: return "bridge";
    case Tag::kVeth: return "veth";
    case Tag::kIpRx: return "ip_rx";
    case Tag::kTcpRx: return "tcp_rx";
    case Tag::kUdpRx: return "udp_rx";
    case Tag::kNf: return "nf";
    case Tag::kMerge: return "merge";
    case Tag::kCopy: return "copy";
    case Tag::kApp: return "app";
    case Tag::kSender: return "sender";
    case Tag::kOther: return "other";
    case Tag::kCount: break;
  }
  return "?";
}

Core::Core(Simulator& sim, int id, CoreParams params)
    : sim_(sim), id_(id), params_(params) {}

bool Core::raise(Pollable& src, bool remote) {
  if (!src.scheduled_) {
    src.scheduled_ = true;
    run_list_.push_back(&src);
  }
  if (!loop_scheduled_) {
    if (remote) {
      // An idle core woken by IPI pays interrupt-entry latency. (A busy core
      // notices new work when its current slice ends, like NAPI re-polling.)
      free_at_ = std::max(free_at_, sim_.now() + params_.ipi_wakeup_ns);
    }
    schedule_loop();
    return true;
  }
  return false;
}

void Core::inject(Tag tag, Time ns) {
  assert(!in_poll_);
  busy_[static_cast<std::size_t>(tag)] += ns;
  if (loop_scheduled_) {
    pending_inject_ += ns;
  } else {
    free_at_ = std::max(free_at_, sim_.now()) + ns;
  }
}

void Core::schedule_loop() {
  loop_scheduled_ = true;
  const Time start = std::max(free_at_, sim_.now());
  sim_.at(start, [this] { run_slice(); });
}

void Core::run_slice() {
  assert(loop_scheduled_);
  if (run_list_.empty()) {
    loop_scheduled_ = false;
    return;
  }
  Pollable* src = run_list_.front();
  run_list_.pop_front();

  ++slices_;
  slice_ns_ = pending_inject_;
  pending_inject_ = 0;
  in_poll_ = true;
  const bool more = src->poll(*this, params_.napi_budget);
  in_poll_ = false;

  if (more) {
    // Round-robin: go to the back so other sources on this core make
    // progress (softirq fairness).
    run_list_.push_back(src);
  } else {
    src->scheduled_ = false;
  }

  free_at_ = sim_.now() + slice_ns_;
  slice_ns_ = 0;

  if (!run_list_.empty()) {
    sim_.at(free_at_, [this] { run_slice(); });
  } else {
    loop_scheduled_ = false;
  }
}

Time Core::total_busy_ns() const {
  Time total = 0;
  for (Time t : busy_) total += t;
  return total;
}

double Core::utilization(Time window) const {
  if (window <= 0) return 0.0;
  return std::min(1.0, static_cast<double>(total_busy_ns()) /
                           static_cast<double>(window));
}

void Core::reset_accounting() {
  busy_.fill(0);
  slices_ = 0;
}

}  // namespace mflow::sim
