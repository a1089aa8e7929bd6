#include "control/policy.hpp"

#include <algorithm>
#include <cmath>
#include <string>
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
      policy_(params.scaling),
      flows_(params.monitor.table) {
  // Capacity eviction drops the whole record, exactly like erase().
  flows_.set_reclaim(
      [this](net::FlowId flow, FlowCtl&& fc) { forget(flow, fc); });
}

Controller::Controller(ControllerParams params, ValueSource source,
                       CapacityTarget* target)
    : Controller(
          params,
          [src = std::move(source)](std::vector<FlowTotals>& out) {
            out = src();
          },
          target) {}

void Controller::tick(sim::Time now) {
  now_ = now;
  const std::uint32_t max_degree = target_->max_degree();
  totals_.clear();
  source_(totals_);
  for (const FlowTotals& t : totals_) {
    std::uint32_t current = 0;
    std::uint32_t want = 0;
    // One probe per flow: sample, trim, rate, hysteresis and degree all
    // happen on the record upsert_apply found or inserted.
    flows_.upsert_apply(t.flow, now, [&](FlowCtl& fc) {
      if (fc.rates.empty()) fc.seq = next_seq_++;
      // Recency tracks ACTIVITY (the `true` return refreshes it), so a
      // flow reported at frozen totals still goes idle and expires.
      const bool active =
          fc.rates.record(t.segs, t.bytes, now, params_.monitor);
      const double pps = fc.rates.rate_pps();
      if (registry_ != nullptr) publish_gauges(t.flow, fc);
      if (fc.hysteresis.update(pps, now, params_.classifier)) ++transitions_;
      current = fc.degree;
      want = policy_.degree_for(fc.hysteresis.committed, pps, max_degree,
                                current);
      fc.degree = want;
      return active;
    });
    if (current == want) continue;  // mice staying unsplit land here too
    history_.push_back(RescaleEvent{now, t.flow, current, want});
    target_->set_flow_degree(t.flow, want);
  }
  if (params_.monitor.table.ttl > 0) expire_flows(now);
  if (registry_ != nullptr) {
    std::uint64_t lanes = 0;
    flows_.for_each(
        [&lanes](net::FlowId, const FlowCtl& fc) { lanes += fc.degree; });
    registry_->set_gauge("control.elephants",
                         static_cast<double>(elephants()));
    registry_->set_gauge("control.active_lanes", static_cast<double>(lanes));
    registry_->set_counter("control.rescales", history_.size());
    registry_->set_gauge("control.tracked_flows",
                         static_cast<double>(flows_.size()));
    registry_->set_counter("control.flows_expired", expired_);
  }
}

void Controller::publish_gauges(net::FlowId flow, FlowCtl& fc) {
  // Names are built on the first sample a registry sees, so a registry
  // attached mid-run picks up flows that were already tracked.
  if (fc.pps_name.empty()) {
    fc.pps_name = "flow." + std::to_string(flow) + ".rate_pps";
    fc.bps_name = "flow." + std::to_string(flow) + ".rate_bps";
  }
  registry_->set_gauge(fc.pps_name, fc.rates.rate_pps());
  registry_->set_gauge(fc.bps_name, fc.rates.rate_bps());
}

void Controller::expire_flows(sim::Time now) {
  idle_scratch_.clear();
  flows_.collect_idle(now, idle_scratch_);
  for (net::FlowId flow : idle_scratch_) {
    // The pointer stays valid until the erase below: the target never
    // touches this table.
    FlowCtl* fc = flows_.find(flow);
    // A still-split idle flow (an elephant that went silent) is demoted
    // first so the data path runs the normal rescale-drain protocol; its
    // state is reclaimed once the drain completes.
    if (fc->degree > 0) {
      demote(flow, fc->degree);
      fc->degree = 0;
    }
    if (!target_->release_flow(flow)) {
      // In-flight work (e.g. unsplit hold not yet drained): keep the
      // record and retry next tick — reclamation is atomic.
      ++release_retries_;
      continue;
    }
    retract_gauges(*fc);
    flows_.erase(flow);
    ++expired_;
  }
}

void Controller::demote(net::FlowId flow, std::uint32_t degree) {
  history_.push_back(RescaleEvent{now_, flow, degree, 0});
  target_->set_flow_degree(flow, 0);
}

void Controller::forget(net::FlowId flow, const FlowCtl& fc) {
  if (fc.degree > 0) demote(flow, fc.degree);
  retract_gauges(fc);
}

void Controller::retract_gauges(const FlowCtl& fc) {
  if (registry_ == nullptr || fc.pps_name.empty()) return;
  registry_->remove_gauge(fc.pps_name);
  registry_->remove_gauge(fc.bps_name);
}

bool Controller::erase(net::FlowId flow) {
  const FlowCtl* fc = flows_.find(flow);
  if (fc == nullptr) return false;
  forget(flow, *fc);
  return flows_.erase(flow);
}

void Controller::clear() {
  for (net::FlowId flow : flows()) erase(flow);
  next_seq_ = 0;
}

std::uint32_t Controller::degree_of(net::FlowId flow) const {
  const FlowCtl* fc = flows_.find(flow);
  return fc == nullptr ? 0 : fc->degree;
}

std::uint64_t Controller::elephants() const {
  std::uint64_t n = 0;
  flows_.for_each([&n](net::FlowId, const FlowCtl& fc) {
    if (fc.degree > 0 && fc.hysteresis.committed == FlowClass::kElephant)
      ++n;
  });
  return n;
}

double Controller::rate_pps(net::FlowId flow) const {
  const FlowCtl* fc = flows_.find(flow);
  return fc == nullptr ? 0.0 : fc->rates.rate_pps();
}

double Controller::rate_bps(net::FlowId flow) const {
  const FlowCtl* fc = flows_.find(flow);
  return fc == nullptr ? 0.0 : fc->rates.rate_bps();
}

double Controller::aggregate_rate_pps() const {
  double total = 0.0;
  // Rate straight from the visited record: no second probe per flow.
  flows_.for_each([&total](net::FlowId, const FlowCtl& fc) {
    total += fc.rates.rate_pps();
  });
  return total;
}

std::vector<net::FlowId> Controller::flows() const {
  std::vector<std::pair<std::uint64_t, net::FlowId>> seq;
  seq.reserve(flows_.size());
  flows_.for_each([&seq](net::FlowId flow, const FlowCtl& fc) {
    seq.emplace_back(fc.seq, flow);
  });
  std::sort(seq.begin(), seq.end());
  std::vector<net::FlowId> out;
  out.reserve(seq.size());
  for (const auto& [_, flow] : seq) out.push_back(flow);
  return out;
}

FlowClass Controller::classify(net::FlowId flow) const {
  const FlowCtl* fc = flows_.find(flow);
  return fc == nullptr ? FlowClass::kMouse : fc->hysteresis.committed;
}

}  // namespace mflow::control
