// Ablation: the dynamic flow control plane (elephant detection + runtime
// micro-flow scaling, src/control) against static MFLOW and vanilla.
//
// One many-flow scenario — num_flows well above the kernel-core count: a
// few unpaced elephants plus a crowd of paced mice into one receiver.
// Three systems over identical traffic:
//
//   dynamic : MFLOW + control plane; split degree follows each flow's
//             measured rate (mice stay unsplit, elephants scale out)
//   static  : MFLOW splitting every flow at the full degree (the paper's
//             configuration, oblivious to per-flow rates)
//   vanilla : no splitting at all
//
// plus a transition run where every elephant throttles to mouse rates
// mid-measurement: the classifier demotes them (after the hysteresis
// dwell) and the splitting lanes drain — visible as the split-core
// utilization dropping between the before/after windows.
//
// Checked properties (CI perf-smoke compares the JSON against
// bench/baselines/BENCH_ablate_dynamic_scaling.json):
//   - dynamic elephant goodput within a few % of static MFLOW
//   - dynamic mouse p99 no worse than vanilla's
//   - split-core utilization collapses after the elephants demote
//   - two same-seed dynamic runs are bit-identical (DES determinism)
#include <cmath>
#include <iostream>

#include "bench/harness.hpp"
#include "experiment/scenario.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/table.hpp"

using namespace mflow;

namespace {

struct Setup {
  int flows = 20;
  int elephants = 4;
  sim::Time warmup = sim::ms(8);
  sim::Time measure = sim::ms(24);
  /// One 64KB message per 8ms ≈ 5.6k segs/s per mouse: mice together are
  /// ~5% of the elephant load, so their (deliberately unsplit) path work
  /// on the IRQ core doesn't skew the elephant goodput comparison.
  sim::Time mouse_pace = sim::ms(8);
  std::uint64_t seed = 42;
};

/// Receiver layout: 1 app core, IRQ on core 1, four splitting lanes.
/// 20 flows into 7 kernel cores is the num_flows >> kernel_cores regime.
exp::ScenarioConfig base_config(const Setup& s, exp::Mode mode) {
  exp::ScenarioConfig cfg;
  cfg.mode = mode;
  cfg.num_flows = s.flows;
  cfg.server_cores = 8;
  cfg.app_cores = 1;
  cfg.first_kernel_core = 1;
  cfg.kernel_cores = 7;
  cfg.warmup = s.warmup;
  cfg.measure = s.measure;
  cfg.seed = s.seed;
  // Senders all start unpaced; the mice throttle immediately (t = 1ns) via
  // the runtime rate-change hook — the same mechanism the transition run
  // uses mid-measurement.
  for (int i = s.elephants; i < s.flows; ++i)
    cfg.rate_changes.push_back({i, 1, s.mouse_pace});
  return cfg;
}

core::MflowConfig mflow_config() {
  core::MflowConfig mcfg = core::udp_device_scaling_config();
  mcfg.tcp_in_reader = true;
  mcfg.splitting_cores = {2, 3, 4, 5};
  return mcfg;
}

exp::ScenarioConfig dynamic_config(const Setup& s) {
  exp::ScenarioConfig cfg = base_config(s, exp::Mode::kMflow);
  cfg.mflow = mflow_config();
  auto& cp = cfg.control;
  cp.enabled = true;
  cp.interval = sim::us(100);
  // Rate over a multi-ms window: windowed TCP is bursty at the ~1ms
  // scale (window drain / ACK clumping), and a monitor faster than
  // that feeds the scaler an oscillating rate it would chase.
  // Measure over the timescale the degree is meant to be stable on.
  cp.params.monitor.window = sim::ms(4);
  cp.params.monitor.max_samples = 64;
  // Elephants run at hundreds of k segs/s, mice at ~23k: thresholds
  // sit in the gap, and the band + dwell keep a mouse's per-message
  // burst from promoting it.
  cp.params.classifier.promote_pps = 200'000;
  cp.params.classifier.demote_pps = 100'000;
  cp.params.classifier.dwell = sim::ms(1);
  cp.params.scaling.per_core_pps = 150'000;
  return cfg;
}

double elephant_goodput_gbps(const exp::ScenarioResult& r, int elephants) {
  double total = 0.0;
  for (int i = 0; i < elephants; ++i)
    total += r.per_port[static_cast<std::size_t>(i)].goodput_gbps;
  return total;
}

double mouse_p99_us(const exp::ScenarioResult& r, const Setup& s) {
  util::Histogram merged{6};
  for (int i = s.elephants; i < s.flows; ++i)
    merged.merge(r.per_port[static_cast<std::size_t>(i)].latency);
  return static_cast<double>(merged.p99()) / 1000.0;
}

/// Mean utilization of the splitting lanes in one CoreUsage vector.
double split_util_pct(const std::vector<exp::CoreUsage>& cores) {
  double sum = 0.0;
  int n = 0;
  for (const auto& c : cores)
    if (c.core_id >= 2 && c.core_id <= 5) {
      sum += c.total * 100.0;
      ++n;
    }
  return n ? sum / n : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  Setup s;
  s.flows = static_cast<int>(cli.get_int("flows", s.flows));
  s.elephants = static_cast<int>(cli.get_int("elephants", s.elephants));
  s.warmup = sim::ms(cli.get_double("warmup-ms", 8));
  s.measure = sim::ms(cli.get_double("measure-ms", 24));
  s.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  bench::HarnessConfig hc;
  hc.bench_name = "ablate_dynamic_scaling";
  hc.json_dir = cli.get("json-dir", ".");
  hc.config["flows"] = std::to_string(s.flows);
  hc.config["elephants"] = std::to_string(s.elephants);
  hc.config["measure_ms"] = std::to_string(sim::to_seconds(s.measure) * 1e3);
  hc.config["seed"] = std::to_string(s.seed);
  bench::Harness harness(hc);

  // --- steady state: dynamic vs static vs vanilla ---------------------------
  const exp::ScenarioResult dyn = exp::run_scenario(dynamic_config(s));

  exp::ScenarioConfig sta_cfg = base_config(s, exp::Mode::kMflow);
  sta_cfg.mflow = mflow_config();
  sta_cfg.mflow->elephant_threshold_pkts = 0;  // split every flow, always
  const exp::ScenarioResult sta = exp::run_scenario(sta_cfg);

  const exp::ScenarioResult van =
      exp::run_scenario(base_config(s, exp::Mode::kVanilla));

  const double dyn_eleph = elephant_goodput_gbps(dyn, s.elephants);
  const double sta_eleph = elephant_goodput_gbps(sta, s.elephants);
  const double dyn_p99 = mouse_p99_us(dyn, s);
  const double van_p99 = mouse_p99_us(van, s);

  harness.record("dynamic/elephant_goodput", "Gbps", true, dyn_eleph);
  harness.record("static/elephant_goodput", "Gbps", true, sta_eleph);
  harness.record("dynamic_vs_static/elephant_ratio", "ratio", true,
                 sta_eleph > 0 ? dyn_eleph / sta_eleph : 0.0);
  harness.record("dynamic/mouse_p99", "us", false, dyn_p99);
  harness.record("vanilla/mouse_p99", "us", false, van_p99);
  harness.record("dynamic_vs_vanilla/mouse_p99_ratio", "ratio", false,
                 van_p99 > 0 ? dyn_p99 / van_p99 : 0.0);
  harness.record("dynamic/control.rescales", "count", true,
                 static_cast<double>(dyn.control.rescales));

  // --- transition: every elephant throttles to mouse rates mid-run ----------
  exp::ScenarioConfig trans = dynamic_config(s);
  const sim::Time t_mid = s.warmup + (s.measure * 2) / 5;
  for (int i = 0; i < s.elephants; ++i)
    trans.rate_changes.push_back({i, t_mid, s.mouse_pace});
  trans.usage_split_at = s.warmup + (s.measure * 3) / 5;
  const exp::ScenarioResult trans_res = exp::run_scenario(trans);

  const double util_before = split_util_pct(trans_res.cores_before);
  const double util_after = split_util_pct(trans_res.cores_after);
  std::uint64_t demotions = 0;
  for (const auto& ev : trans_res.control.history)
    if (ev.new_degree < ev.old_degree) ++demotions;
  harness.record("transition/split_util_before", "pct", true, util_before);
  harness.record("transition/split_util_after", "pct", false, util_after);
  harness.record("transition/demotions", "count", true,
                 static_cast<double>(demotions));

  // --- determinism: same seed, same numbers ---------------------------------
  const exp::ScenarioResult dyn2 = exp::run_scenario(dynamic_config(s));
  const bool identical = dyn2.goodput_gbps == dyn.goodput_gbps &&
                         dyn2.messages == dyn.messages &&
                         dyn2.control.rescales == dyn.control.rescales;
  harness.record("deterministic_same_seed", "bool", true,
                 identical ? 1.0 : 0.0);

  const std::string json = harness.finish(std::cout);
  std::cout << "\nmouse p99: dynamic " << dyn_p99 << " us vs vanilla "
            << van_p99 << " us; elephants: dynamic " << dyn_eleph
            << " Gbps vs static " << sta_eleph << " Gbps\n"
            << "transition: split-core util " << util_before << "% -> "
            << util_after << "% after " << demotions << " demotion(s)\n";
  if (!json.empty()) std::cout << "wrote " << json << "\n";
  return 0;
}
