#include "control/policy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mflow::control {

std::uint32_t ScalingPolicy::degree_for(FlowClass cls, double rate_pps,
                                        std::uint32_t max_degree,
                                        std::uint32_t current_degree) const {
  if (cls == FlowClass::kMouse) return 0;
  double lanes = 1.0;
  if (params_.per_core_pps > 0.0) {
    lanes = std::ceil(rate_pps / params_.per_core_pps);
  }
  std::uint32_t want = static_cast<std::uint32_t>(
      std::clamp(lanes, 1.0, static_cast<double>(max_degree)));
  want = std::max(want, std::min(params_.min_elephant_degree, max_degree));
  // Shrink deadband: stay at the current degree unless the rate fits the
  // smaller lane count with shrink_margin headroom.
  if (want < current_degree && params_.per_core_pps > 0.0 &&
      rate_pps > static_cast<double>(want) * params_.per_core_pps *
                     params_.shrink_margin)
    return current_degree;
  return want;
}

Controller::Controller(ControllerParams params, Source source,
                       CapacityTarget* target)
    : params_(params),
      source_(std::move(source)),
      target_(target),
      monitor_(params.monitor),
      classifier_(params.classifier),
      policy_(params.scaling),
      degrees_(params.monitor.table) {}

void Controller::tick(sim::Time now) {
  const std::uint32_t max_degree = target_->max_degree();
  for (const FlowTotals& t : source_()) {
    const double pps = monitor_.record(t.flow, t.segs, t.bytes, now);
    const FlowClass cls = classifier_.update(t.flow, pps, now);
    const std::uint32_t* cur = degrees_.find(t.flow);
    const std::uint32_t current = cur != nullptr ? *cur : 0;
    const std::uint32_t want =
        policy_.degree_for(cls, pps, max_degree, current);
    if (current == want) continue;  // mice staying unsplit land here too
    history_.push_back(RescaleEvent{now, t.flow, current, want});
    // Degrees are stored sparsely (split flows only): under churn the
    // overwhelming mouse majority must not leave a zero entry each.
    if (want == 0)
      degrees_.erase(t.flow);
    else
      degrees_.upsert(t.flow, now) = want;
    target_->set_flow_degree(t.flow, want);
  }
  if (params_.monitor.table.ttl > 0) expire_flows(now);
  if (registry_ != nullptr) {
    std::uint64_t lanes = 0;
    degrees_.for_each(
        [&lanes](net::FlowId, const std::uint32_t& deg) { lanes += deg; });
    registry_->set_gauge("control.elephants",
                         static_cast<double>(elephants()));
    registry_->set_gauge("control.active_lanes", static_cast<double>(lanes));
    registry_->set_counter("control.rescales", history_.size());
    registry_->set_gauge("control.tracked_flows",
                         static_cast<double>(monitor_.tracked_flows()));
    registry_->set_counter("control.flows_expired", expired_);
  }
}

void Controller::expire_flows(sim::Time now) {
  idle_scratch_.clear();
  monitor_.collect_idle(now, idle_scratch_);
  for (net::FlowId flow : idle_scratch_) {
    // A still-split idle flow (an elephant that went silent) is demoted
    // first so the data path runs the normal rescale-drain protocol; its
    // state is reclaimed once the drain completes.
    const std::uint32_t* deg = degrees_.find(flow);
    if (deg != nullptr && *deg > 0) {
      history_.push_back(RescaleEvent{now, flow, *deg, 0});
      degrees_.erase(flow);
      target_->set_flow_degree(flow, 0);
    }
    if (!target_->release_flow(flow)) {
      // In-flight work (e.g. unsplit hold not yet drained): keep ALL
      // control state and retry next tick — reclamation is atomic.
      ++release_retries_;
      continue;
    }
    monitor_.erase(flow);  // also retracts the flow's registry gauges
    classifier_.erase(flow);
    degrees_.erase(flow);
    ++expired_;
  }
}

std::uint32_t Controller::degree_of(net::FlowId flow) const {
  const std::uint32_t* deg = degrees_.find(flow);
  return deg == nullptr ? 0 : *deg;
}

std::uint64_t Controller::elephants() const {
  std::uint64_t n = 0;
  degrees_.for_each([this, &n](net::FlowId flow, const std::uint32_t&) {
    if (classifier_.classify(flow) == FlowClass::kElephant) ++n;
  });
  return n;
}

void Controller::export_to(trace::Registry* reg) {
  registry_ = reg;
  monitor_.export_to(reg);
}

}  // namespace mflow::control
