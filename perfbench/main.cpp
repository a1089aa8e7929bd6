// perfbench: the repo benchmark's measuring program. perfbench/run.py builds
// and runs it; README.md next to this file describes the workloads and every
// metric.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--negative-control] [--spans PATH]
//
// Prints a human-readable summary, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when an output
// check failed, 2 on a usage error.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py refuses a mismatch).
constexpr Metric kEndToEnd[] = {
    {"wall_mpps", "Mpps"},
    {"goodput_gbps", "Gbps"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"rt.worker.output_full_frac", "ratio"},
    {"rt.worker.input_dry_frac", "ratio"},
    {"rt.merge.input_dry_frac", "ratio"},
    {"rt.gen.pool_dry_frac", "ratio"},
    {"rt.gen.split_full_frac", "ratio"},
    {"rt.split_ring.occupancy", "pkts"},
    {"rt.merge_ring.occupancy", "pkts"},
    {"rt.recycle.cas_frac", "ratio"},
    {"rt.recycle.returns", "count"},
    {"rt.merge.release_gap_p50_us", "us"},
    {"rt.merge.release_gap_p99_us", "us"},
    {"rt.merge.release_gaps", "count"},
    {"rt.epochs_applied", "count"},
    {"rt.ring.chunk_ns", "ns"},
    {"rt.pool.cycle_ns", "ns"},
    {"rt.merge.pkt_ns", "ns"},
    {"rt.overlay.hit_rate", "ratio"},
    {"rt.overlay.lookups", "count"},
    {"net.vxlan_decap_ns", "ns"},
    {"nf.chain_ns_per_pkt", "ns"},
    {"nf.nat_rewrite_ns", "ns"},
    {"control.flowtable.touch_ns", "ns"},
    {"control.flowtable.upsert_ns", "ns"},
    {"sim.events", "events/sim-s"},
    {"sim.events_per_s", "events/s"},
    {"sim.queue.push_pop_ns", "ns"},
    {"des.phase.ring_wait.p50_us", "us"},
    {"des.phase.ring_wait.p99_us", "us"},
    {"des.phase.svc_driver.p50_us", "us"},
    {"des.phase.svc_driver.p99_us", "us"},
    {"des.phase.svc_gro.p50_us", "us"},
    {"des.phase.svc_gro.p99_us", "us"},
    {"des.phase.svc_vxlan.p50_us", "us"},
    {"des.phase.svc_vxlan.p99_us", "us"},
    {"des.phase.queue.p50_us", "us"},
    {"des.phase.queue.p99_us", "us"},
    {"des.phase.split_queue.p50_us", "us"},
    {"des.phase.split_queue.p99_us", "us"},
    {"des.phase.reasm_hold.p50_us", "us"},
    {"des.phase.reasm_hold.p99_us", "us"},
    {"des.phase.socket_wait.p50_us", "us"},
    {"des.phase.socket_wait.p99_us", "us"},
    {"des.phase.copy.p50_us", "us"},
    {"des.phase.copy.p99_us", "us"},
    {"des.phase.journeys", "count"},
    {"core.reasm.ooo_per_batch", "ratio"},
    {"control.tick_us", "us"},
    {"control.peak_tracked", "count"},
    {"control.expired", "count"},
    {"stack.flowcache.hit_rate", "ratio"},
    {"stack.flowcache.lookups", "count"},
    {"nf.scr_updates_per_pkt", "ratio"},
    {"nf.packets", "count"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "rt-forward|rt-overlay-nf|des-mflow-tcp|des-control-churn "
               "--seed N --seconds S --trace 0|1 [--negative-control] "
               "[--spans PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--negative-control") {
      o.negative_control = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(a));
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--spans") {
        o.spans_path = v;
      } else {
        usage("unknown argument " + std::string(a));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(a) + ": " + v);
    }
  }
  if (!have_workload || !(is_rt(o.workload) || is_des(o.workload)))
    usage("unknown or missing --workload");
  if (!(o.seconds > 0 && o.seconds <= 120)) usage("--seconds must be in (0, 120]");
  if (o.negative_control && o.workload != "rt-forward" &&
      o.workload != "des-mflow-tcp")
    usage("no negative control defined for " + o.workload);
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double median_of(const Result& r, const std::string& series) {
  const auto it = r.samples.find(series);
  return it == r.samples.end() ? 0.0 : quartiles(it->second).median;
}

/// The quantiles with ten samples beyond them on either side: 10/n and
/// 1 - 10/n. Below 20 samples they would cross the median, so both are the
/// median.
double tail_q(std::size_t n, bool high) {
  if (n < 20) return 0.5;
  const double q = 10.0 / static_cast<double>(n);
  return high ? 1.0 - q : q;
}

/// The value a timed end-to-end metric reports: the run's samples at the
/// quantile with ten samples beyond it on the FAST side (high for a rate,
/// low for a time). A shared host only ever slows a sample down, and its
/// slow phases come and go over seconds, so the fast side estimates the
/// code's own speed far more steadily than the median does; the summary
/// prints the median, quartiles and the slow tail next to it.
double fast_side(const Result& r, const std::string& series,
                 bool higher_is_better) {
  const auto it = r.samples.find(series);
  if (it == r.samples.end()) return 0.0;
  return quantile(it->second, tail_q(it->second.size(), higher_is_better));
}

/// One summary line per sample series: median, quartiles, sample count, and
/// the slow and fast tails (each with ten samples beyond it).
void print_series(const std::string& name, const std::vector<double>& v,
                  const char* unit, bool higher_is_better) {
  const Quartiles q = quartiles(v);
  std::printf("  %-22s %14.6g %-12s q1 %.6g  q3 %.6g  n=%zu", name.c_str(),
              q.median, unit, q.q1, q.q3, v.size());
  if (v.size() >= 20) {
    const double slow = tail_q(v.size(), !higher_is_better);
    const double fast = tail_q(v.size(), higher_is_better);
    std::printf("  slow p%.1f %.6g  fast p%.1f %.6g", slow * 100,
                quantile(v, slow), fast * 100, quantile(v, fast));
  }
  std::printf("\n");
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts over at exec, so it excludes the launching process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  SpanLog spans(opt.trace);
  Result r;
  {
    SpanLog::Scope root(spans, "workload." + opt.workload);
    r = is_rt(opt.workload) ? run_rt(opt, spans) : run_des(opt, spans);
    if (opt.trace) {
      SpanLog::Scope layers(spans, "layers");
      time_layers(opt, spans, r);
    }
  }
  const double rss = peak_rss_mb();
  const bool rt = is_rt(opt.workload);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              opt.negative_control ? " NEGATIVE-CONTROL" : "");
  std::printf("host nproc=%u build=%s\n", std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE);
  std::printf("samples (median, quartiles, n, tails with ten samples beyond):\n");
  for (const auto& [name, v] : r.samples)
    print_series(name, v,
                 name.rfind("setup", 0) == 0      ? "s"
                 : name == "des_sim_speed" ||
                         name == "traced_sim_speed" ? "sim-s/wall-s"
                 : name == "sim.events_per_s"     ? "events/s"
                 : name == "rt_goodput_gbps"      ? "Gbps"
                                                  : "Mpps",
                 name.rfind("setup", 0) != 0);
  if (!rt) {
    std::printf("  %-22s %14.6g Gbps (modeled)\n", "des_goodput_gbps",
                r.values["des_goodput_gbps"]);
    std::printf("  %-22s %14.6g us (modeled)\n", "des_p50_us",
                r.values["des_p50_us"]);
    std::printf("  %-22s %14.6g us (modeled)\n", "des_p99_us",
                r.values["des_p99_us"]);
  }
  const double failed_frac =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("  %-22s %14.6g ratio (%llu of %llu)\n", "failed_frac",
              failed_frac, static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("  %-22s %14.6g MB\n", "peak_rss_mb", rss);
  for (const auto& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::vector<std::pair<const Metric*, double>> out;
  if (!opt.trace) {
    const double values[] = {
        fast_side(r, rt ? "rt_mpps" : "des_wall_mpps_scaled", true),
        rt ? fast_side(r, "rt_goodput_gbps", true)
           : r.values["des_goodput_gbps"],
        fast_side(r, "setup_s", false),
        rss,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      out.emplace_back(&kEndToEnd[i], values[i]);
  } else {
    r.values["sim.events_per_s"] = median_of(r, "sim.events_per_s");
    const double untraced = median_of(r, rt ? "rt_mpps" : "des_sim_speed");
    const double traced = median_of(r, rt ? "traced_mpps" : "traced_sim_speed");
    r.values["trace.overhead_frac"] =
        untraced > 0 ? 1.0 - traced / untraced : 0.0;
    std::printf("per-layer (traced run; 0 where the workload bypasses the "
                "layer):\n");
    for (const Metric& m : kPerLayer) {
      const double v = r.values[m.name];  // absent: layer not on this path
      std::printf("  %-32s %14.6g %s\n", m.name, v, m.unit);
      out.emplace_back(&m, v);
    }
    if (!opt.spans_path.empty()) {
      if (spans.write(opt.spans_path))
        std::printf("spans: %zu written to %s\n", spans.size(),
                    opt.spans_path.c_str());
      else
        r.check(false, 1, "could not write spans to " + opt.spans_path);
    }
  }

  const bool correct = r.failed == 0 && r.failures.empty() && r.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + std::string(out[i].first->name) +
            "\": {\"value\": " + num(out[i].second) + ", \"unit\": \"" +
            out[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
