#include "rt/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "trace/registry.hpp"

namespace mflow::rt {

namespace {

/// Busy time of a stage inside the run: active minus measured stalls,
/// clamped to one tick so rates never divide by zero.
std::uint64_t busy_ns(const StageCounters& c) {
  const std::uint64_t stalled = c.stall_ns();
  return c.active_ns > stalled ? c.active_ns - stalled : 1;
}

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

StageCounters ProfileReport::workers_total() const {
  StageCounters t;
  for (const auto& w : worker) {
    t.items += w.items;
    t.input_dry_episodes += w.input_dry_episodes;
    t.input_dry_ns += w.input_dry_ns;
    t.output_full_episodes += w.output_full_episodes;
    t.output_full_ns += w.output_full_ns;
    t.pool_dry_episodes += w.pool_dry_episodes;
    t.pool_dry_ns += w.pool_dry_ns;
    t.occupancy_sum += w.occupancy_sum;
    t.occupancy_samples += w.occupancy_samples;
    t.active_ns += w.active_ns;
  }
  return t;
}

ScalingAttribution attribute_scaling(const ProfileReport& report,
                                     double anchor_pps_w1,
                                     double measured_pps) {
  ScalingAttribution attr;
  attr.measured_pps = measured_pps;
  if (!report.enabled || report.worker.empty() || anchor_pps_w1 <= 0.0 ||
      report.wall_seconds <= 0.0)
    return attr;
  attr.ideal_pps = anchor_pps_w1 * static_cast<double>(report.worker.size());
  attr.lost_pps = std::max(0.0, attr.ideal_pps - measured_pps);

  // Worker-level attribution (the model in the file header): lost packets
  // at a stall point = stall time x that worker's own busy-rate; whatever
  // the stalls do NOT explain must be the worker processing packets more
  // slowly than the 1-worker anchor (cache/SMT contention, pinning
  // spillover) — the slowdown residual.
  const double anchor_per_ns = anchor_pps_w1 / 1e9;
  double starved = 0.0, backpressured = 0.0, slowdown = 0.0;
  double starved_s = 0.0, backpressured_s = 0.0, slowdown_s = 0.0;
  for (const auto& w : report.worker) {
    const std::uint64_t busy = busy_ns(w);
    const double rate = static_cast<double>(w.items) /
                        static_cast<double>(busy);  // pkts per busy ns
    starved += static_cast<double>(w.input_dry_ns) * rate;
    starved_s += static_cast<double>(w.input_dry_ns) / 1e9;
    backpressured += static_cast<double>(w.output_full_ns) * rate;
    backpressured_s += static_cast<double>(w.output_full_ns) / 1e9;
    if (rate < anchor_per_ns) {
      slowdown += static_cast<double>(busy) * (anchor_per_ns - rate);
      slowdown_s += static_cast<double>(busy) / 1e9;
    }
  }
  const double wall = report.wall_seconds;
  auto add = [&](const char* name, double lost_items, double stall_s) {
    attr.points.push_back(
        ContentionPoint{name, stall_s, lost_items / wall, 0.0});
  };
  add("split.starved (upstream: generator serial section / recycle)",
      starved, starved_s);
  add("merge.backpressure (downstream: consumer / fan-in merge)",
      backpressured, backpressured_s);
  add("worker.slowdown (per-packet rate below 1-worker anchor)", slowdown,
      slowdown_s);
  for (const auto& p : attr.points) attr.attributed_pps += p.lost_pps;
  for (auto& p : attr.points)
    p.share = attr.attributed_pps > 0 ? p.lost_pps / attr.attributed_pps : 0;
  std::sort(attr.points.begin(), attr.points.end(),
            [](const ContentionPoint& a, const ContentionPoint& b) {
              return a.lost_pps > b.lost_pps;
            });
  attr.coverage =
      attr.lost_pps > 0.0 ? attr.attributed_pps / attr.lost_pps : 1.0;
  return attr;
}

void export_profile(const ProfileReport& report, trace::Registry& registry) {
  if (!report.enabled) return;
  const auto stage = [&](const std::string& name, const StageCounters& c) {
    const std::string p = "rt.prof." + name + ".";
    registry.set_counter(p + "items", c.items);
    registry.set_counter(p + "input_dry_episodes", c.input_dry_episodes);
    registry.set_counter(p + "input_dry_ns", c.input_dry_ns);
    registry.set_counter(p + "output_full_episodes", c.output_full_episodes);
    registry.set_counter(p + "output_full_ns", c.output_full_ns);
    registry.set_counter(p + "pool_dry_episodes", c.pool_dry_episodes);
    registry.set_counter(p + "pool_dry_ns", c.pool_dry_ns);
    registry.set_gauge(p + "stall_frac", frac(c.stall_ns(), c.active_ns));
    registry.set_gauge(p + "occupancy", c.mean_occupancy());
  };
  stage("generator", report.generator);
  stage("consumer", report.consumer);
  for (std::size_t w = 0; w < report.worker.size(); ++w)
    stage("worker" + std::to_string(w), report.worker[w]);
  stage("workers", report.workers_total());
}

std::string format_profile(const ProfileReport& report,
                           const ScalingAttribution* attr) {
  std::ostringstream os;
  if (!report.enabled) {
    os << "profiler disabled (EngineConfig::profile = false)\n";
    return os.str();
  }
  os << "per-stage contention profile (" << report.workers << " workers, "
     << report.wall_seconds << " s wall):\n";
  os << "  stage       items        busy%  in-dry%  out-full%  pool-dry%  "
        "occ\n";
  const auto row = [&](const std::string& name, const StageCounters& c) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  %-10s %-12llu %5.1f    %5.1f      %5.1f      %5.1f  "
                  "%5.1f\n",
                  name.c_str(), static_cast<unsigned long long>(c.items),
                  100.0 * frac(busy_ns(c), c.active_ns),
                  100.0 * frac(c.input_dry_ns, c.active_ns),
                  100.0 * frac(c.output_full_ns, c.active_ns),
                  100.0 * frac(c.pool_dry_ns, c.active_ns),
                  c.mean_occupancy());
    os << buf;
  };
  row("generator", report.generator);
  for (std::size_t w = 0; w < report.worker.size(); ++w)
    row("worker" + std::to_string(w), report.worker[w]);
  row("consumer", report.consumer);
  if (attr != nullptr && !attr->points.empty()) {
    os << "lost-throughput attribution (anchor x" << report.worker.size()
       << " = " << attr->ideal_pps << " pkts/s ideal, " << attr->measured_pps
       << " measured, " << attr->lost_pps << " lost):\n";
    for (const auto& p : attr->points) {
      char buf[200];
      std::snprintf(buf, sizeof(buf), "  %-58s %12.3g pkts/s  (%4.1f%%)\n",
                    p.name.c_str(), p.lost_pps, 100.0 * p.share);
      os << buf;
    }
    char buf[120];
    std::snprintf(buf, sizeof(buf),
                  "  attribution coverage: %.1f%% of measured loss\n",
                  100.0 * attr->coverage);
    os << buf;
  }
  return os.str();
}

}  // namespace mflow::rt
