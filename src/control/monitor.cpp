#include "control/monitor.hpp"

#include <algorithm>

namespace mflow::control {

double FlowMonitor::record(net::FlowId flow, std::uint64_t total_segs,
                           std::uint64_t total_bytes, sim::Time now) {
  double pps = 0.0;
  // One probe: the sample, the trim, the recency refresh and the gauges all
  // happen on the entry upsert_apply found or inserted.
  flows_.upsert_apply(flow, now, [&](PerFlow& pf) {
    // A fresh entry has no samples; a resident one always keeps at least
    // one.
    const bool inserted = pf.samples.empty();
    if (inserted) pf.seq = next_seq_++;
    // Recency in the flow table tracks ACTIVITY, not observation: a source
    // that keeps reporting a finished flow at frozen totals must not keep
    // it alive, or nothing would ever expire.
    const bool active = inserted || total_segs > pf.samples.back().segs ||
                        total_bytes > pf.samples.back().bytes;
    pf.samples.push_back(Sample{now, total_segs, total_bytes});
    // Trim so the RETAINED span (front..back) never exceeds the window —
    // comparing against samples[1] here used to let rate() average over up
    // to window + one sampling interval, which kept a stale pre-drop rate
    // alive and delayed demotion dwell. Always keep at least two samples
    // so a sparse sampler (interval > window) still yields a rate.
    while (pf.samples.size() > 2 &&
           (pf.samples.size() > params_.max_samples ||
            pf.samples.back().at - pf.samples.front().at > params_.window)) {
      pf.samples.pop_front();
    }
    pps = window_rate(pf, /*bytes=*/false);
    if (registry_ != nullptr) {
      // Names are built on the first sample a registry sees, so a registry
      // attached mid-run picks up flows that were already tracked.
      if (pf.pps_name.empty()) {
        pf.pps_name = "flow." + std::to_string(flow) + ".rate_pps";
        pf.bps_name = "flow." + std::to_string(flow) + ".rate_bps";
      }
      registry_->set_gauge(pf.pps_name, pps);
      registry_->set_gauge(pf.bps_name,
                           window_rate(pf, /*bytes=*/true) * 8.0);  // bits
    }
    return active;
  });
  return pps;
}

double FlowMonitor::rate(net::FlowId flow, bool bytes) const {
  const PerFlow* pf = flows_.find(flow);
  return pf != nullptr ? window_rate(*pf, bytes) : 0.0;
}

double FlowMonitor::window_rate(const PerFlow& pf, bool bytes) {
  if (pf.samples.size() < 2) return 0.0;
  const Sample& first = pf.samples.front();
  const Sample& last = pf.samples.back();
  const sim::Time span = last.at - first.at;
  if (span <= 0) return 0.0;
  const std::uint64_t delta =
      bytes ? last.bytes - first.bytes : last.segs - first.segs;
  return static_cast<double>(delta) / sim::to_seconds(span);
}

double FlowMonitor::rate_pps(net::FlowId flow) const {
  return rate(flow, /*bytes=*/false);
}

double FlowMonitor::rate_bps(net::FlowId flow) const {
  return rate(flow, /*bytes=*/true) * 8.0;
}

double FlowMonitor::aggregate_rate_pps() const {
  double total = 0.0;
  // Rate straight from the visited entry — for_each holds the shard lock,
  // so re-entering the table via rate()/find() would self-deadlock.
  flows_.for_each([&total](net::FlowId, const PerFlow& pf) {
    total += window_rate(pf, /*bytes=*/false);
  });
  return total;
}

std::uint64_t FlowMonitor::total_segs(net::FlowId flow) const {
  const PerFlow* pf = flows_.find(flow);
  if (pf == nullptr || pf->samples.empty()) return 0;
  return pf->samples.back().segs;
}

std::vector<net::FlowId> FlowMonitor::flows() const {
  std::vector<std::pair<std::uint64_t, net::FlowId>> seq;
  seq.reserve(flows_.size());
  flows_.for_each([&seq](net::FlowId flow, const PerFlow& pf) {
    seq.emplace_back(pf.seq, flow);
  });
  std::sort(seq.begin(), seq.end());
  std::vector<net::FlowId> out;
  out.reserve(seq.size());
  for (const auto& [_, flow] : seq) out.push_back(flow);
  return out;
}

void FlowMonitor::remove_gauges(const PerFlow& pf) {
  if (registry_ == nullptr || pf.pps_name.empty()) return;
  registry_->remove_gauge(pf.pps_name);
  registry_->remove_gauge(pf.bps_name);
}

bool FlowMonitor::erase(net::FlowId flow) {
  if (registry_ != nullptr) {
    if (const PerFlow* pf = flows_.find(flow)) remove_gauges(*pf);
  }
  return flows_.erase(flow);
}

void FlowMonitor::clear() {
  if (registry_ != nullptr) {
    flows_.for_each(
        [this](net::FlowId, const PerFlow& pf) { remove_gauges(pf); });
  }
  flows_.clear();
  next_seq_ = 0;
}

}  // namespace mflow::control
