// Ablation: the elastic autoscaler tier (src/control/autoscaler) against
// static full-capacity provisioning, over long-horizon load curves.
//
// Three DES workloads (experiment/workloads.hpp), each run twice over
// identical traffic — autoscaled (cold start at 1 worker, capacity follows
// the measured aggregate load) vs static (all splitting lanes active for
// the whole run):
//
//   diurnal   : one elephant sweeping a raised-cosine between mouse rates
//               and peak demand, over a crowd of steady mice
//   flash     : all senders idle, surging together mid-measurement and
//               falling back (the scale-up reaction path)
//   elephants : a mouse crowd with one saturating elephant rotating
//               round-robin (capacity must follow the split flow around)
//
// The headline metrics per workload pair:
//
//   <wl>/slo_attainment   = min(p99_static / p99_elastic,
//                               success_elastic / success_static), each
//                           capped at 1 — how much of the static run's SLO
//                           the autoscaled run keeps (target >= 0.95)
//   <wl>/core_seconds_frac = elastic core-seconds / static core-seconds
//                           over the measurement window (target <= 0.7)
//
// i.e. the elastic claim: ~full SLO at a fraction of the provisioned
// cores. Both are deterministic in the DES and guarded tightly by CI
// (bench/baselines/elastic-des/, 2% tolerance); the rt live-capacity case
// is wall-clock and guarded loosely (bench/baselines/, 50%).
#include <algorithm>
#include <iostream>
#include <thread>

#include "bench/harness.hpp"
#include "experiment/scenario.hpp"
#include "experiment/workloads.hpp"
#include "rt/engine.hpp"
#include "util/cli.hpp"

using namespace mflow;

namespace {

struct Setup {
  /// Steady mouse crowd behind the frontline senders. 20 mice x one 64KB
  /// message per 8ms ~= 112k segs/s: just under one worker's assumed
  /// capacity, so the crowd alone keeps exactly one lane busy and the
  /// elephants drive all capacity changes. The elephants workload swaps
  /// in a wider, slower crowd (300 senders) at the same aggregate rate.
  int mice = 20;
  sim::Time mouse_pace = sim::ms(8);
  sim::Time warmup = sim::ms(4);
  sim::Time measure = sim::ms(24);
  std::uint64_t seed = 42;
};

core::MflowConfig mflow_config() {
  core::MflowConfig mcfg = core::udp_device_scaling_config();
  mcfg.tcp_in_reader = true;
  mcfg.splitting_cores = {2, 3, 4, 5};
  return mcfg;
}

/// Shared base: TCP into the 8-core receiver, 4 splitting lanes, control
/// plane on a 4ms monitor window (windowed TCP is bursty at ~1ms).
exp::ScenarioConfig base_config(const Setup& s, int senders) {
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kMflow;
  cfg.num_flows = senders;
  cfg.server_cores = 8;
  cfg.app_cores = 1;
  cfg.first_kernel_core = 1;
  cfg.kernel_cores = 7;
  cfg.warmup = s.warmup;
  cfg.measure = s.measure;
  cfg.seed = s.seed;
  cfg.mflow = mflow_config();
  auto& c = cfg.control;
  c.enabled = true;
  c.interval = sim::us(100);
  c.params.monitor.window = sim::ms(4);
  c.params.monitor.max_samples = 64;
  c.params.classifier.promote_pps = 200'000.0;
  c.params.classifier.demote_pps = 100'000.0;
  c.params.classifier.dwell = sim::us(300);
  return cfg;
}

void add_elastic(exp::ScenarioConfig& cfg) {
  auto& e = cfg.elastic;
  e.enabled = true;
  e.interval = sim::us(200);
  e.params.per_worker_pps = 150'000.0;
  e.params.headroom = 1.25;
  e.params.cooldown = sim::us(400);
  e.params.down_dwell = sim::ms(1);
}

// --- workloads ---------------------------------------------------------------

/// Flow 0 sweeps one raised-cosine diurnal cycle (trough at mouse rates,
/// peak around 375k pps of demand — 4 workers with the crowd underneath)
/// over the middle 16ms of the window, idling at the trough on both
/// sides: capacity must ride the whole hill up AND back down with real
/// trough time at each end. Flows 1..mice are steady mice.
exp::ScenarioConfig diurnal_config(const Setup& s, bool elastic) {
  auto cfg = base_config(s, 1 + s.mice);
  auto& schedule = cfg.rate_changes;
  schedule.push_back({0, 1, sim::ms(4)});  // trough until the cycle starts
  exp::append_diurnal(schedule, /*senders=*/1, /*start=*/sim::ms(6),
                      /*period=*/sim::ms(16), /*steps=*/16,
                      /*trough_pace=*/sim::ms(4), /*peak_pace=*/sim::us(120));
  for (int i = 1; i <= s.mice; ++i) schedule.push_back({i, 1, s.mouse_pace});
  if (elastic) add_elastic(cfg);
  return cfg;
}

/// All four frontline senders idle until the crowd hits at 10ms and drains
/// at 18ms; the mouse crowd is steady throughout.
exp::ScenarioConfig flash_config(const Setup& s, bool elastic) {
  constexpr int kSurge = 4;
  auto cfg = base_config(s, kSurge + s.mice);
  auto& schedule = cfg.rate_changes;
  exp::append_flash_crowd(schedule, kSurge, /*start=*/1, /*at=*/sim::ms(10),
                          /*duration=*/sim::ms(8), /*idle_pace=*/sim::ms(4),
                          /*crowd_pace=*/sim::us(400));
  for (int i = kSurge; i < kSurge + s.mice; ++i)
    schedule.push_back({i, 1, s.mouse_pace});
  if (elastic) add_elastic(cfg);
  return cfg;
}

/// An elephant rotating round-robin over four senders every 6ms, above a
/// WIDE mouse crowd (300 slow senders at the same aggregate rate as the
/// regular crowd): the split flow — and the capacity serving it — has to
/// follow the rotation while the flow table churns through hundreds of
/// live mice.
exp::ScenarioConfig elephants_config(const Setup& s, bool elastic) {
  constexpr int kRotating = 4;
  constexpr int kCrowd = 300;
  auto cfg = base_config(s, kRotating + kCrowd);
  auto& schedule = cfg.rate_changes;
  exp::append_rotating_elephants(schedule, kRotating, /*start=*/1,
                                 /*end=*/s.warmup + s.measure,
                                 /*rotation=*/sim::ms(6),
                                 /*mouse_pace=*/sim::ms(4),
                                 /*elephant_pace=*/sim::us(100));
  for (int i = kRotating; i < kRotating + kCrowd; ++i)
    schedule.push_back({i, 1, sim::ms(120)});
  if (elastic) add_elastic(cfg);
  return cfg;
}

// --- metrics -----------------------------------------------------------------

double success_rate(const exp::ScenarioResult& r) {
  return r.offered_gbps > 0 ? r.goodput_gbps / r.offered_gbps : 0.0;
}

/// min(p99 ratio, success ratio), each capped at 1: the fraction of the
/// static run's SLO the autoscaled run attains.
double slo_attainment(const exp::ScenarioResult& elastic,
                      const exp::ScenarioResult& statik) {
  const double p99_e = elastic.p99_latency_us();
  const double p99_s = statik.p99_latency_us();
  const double p99_att = p99_e > 0 ? std::min(1.0, p99_s / p99_e) : 1.0;
  const double succ_s = success_rate(statik);
  const double succ_att =
      succ_s > 0 ? std::min(1.0, success_rate(elastic) / succ_s) : 1.0;
  return std::min(p99_att, succ_att);
}

bool g_dump = false;  // --dump: print each elastic run's scale timeline

void record_pair(bench::Harness& h, const std::string& wl,
                 const exp::ScenarioResult& el,
                 const exp::ScenarioResult& st) {
  if (g_dump) {
    std::cout << wl << " timeline (" << el.elastic.vetoes << " vetoes):\n";
    for (const auto& ev : el.elastic.history)
      std::cout << "  " << ev.at / 1000 << "us  " << ev.from << " -> "
                << ev.to << "\n";
  }
  h.record(wl + "/slo_attainment", "ratio", true, slo_attainment(el, st));
  h.record(wl + "/core_seconds_frac", "ratio", false,
           el.elastic.core_seconds / el.elastic.core_seconds_static);
  h.record(wl + "/elastic_p99", "us", false, el.p99_latency_us());
  h.record(wl + "/static_p99", "us", false, st.p99_latency_us());
  h.record(wl + "/elastic.scale_ups", "count", true,
           static_cast<double>(el.elastic.scale_ups));
  h.record(wl + "/elastic.scale_downs", "count", true,
           static_cast<double>(el.elastic.scale_downs));
}

// --- rt live capacity --------------------------------------------------------

/// Wall-clock: the rt engine with a controller thread cycling the live
/// capacity request 1->W->1 through the EngineCapacityAdapter while the
/// stream runs — the price of elasticity on real threads.
double rt_live_capacity_pps(std::uint64_t packets) {
  rt::EngineConfig cfg;
  cfg.workers = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency() / 2));
  cfg.batch_size = 256;
  cfg.cost_ns_per_packet = 300;
  rt::Engine eng(cfg);
  rt::EngineCapacityAdapter adapter(eng);

  std::atomic<bool> done{false};
  std::thread controller([&] {
    std::uint32_t w = 1;
    while (!done.load(std::memory_order_relaxed)) {
      adapter.set_active_workers(w);
      w = w % adapter.worker_limit() + 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const rt::EngineResult res = eng.run(packets);
  done.store(true, std::memory_order_relaxed);
  controller.join();
  if (!res.in_order || res.packets != packets) return 0.0;  // poison the case
  return res.packets_per_second();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);

  Setup s;
  s.mice = static_cast<int>(cli.get_int("mice", 20));
  g_dump = cli.get_bool("dump", false);

  bench::HarnessConfig hc;
  hc.bench_name = "ablate_elastic";
  hc.warmup = static_cast<int>(cli.get_int("warmup", 1));
  hc.repeats = static_cast<int>(cli.get_int("repeats", 3));
  hc.json_dir = cli.get("json-dir", ".");
  hc.config["mice"] = std::to_string(s.mice);
  bench::Harness harness(hc);

  // --- DES workload pairs (deterministic) -----------------------------------
  const auto di_el = exp::run_scenario(diurnal_config(s, true));
  const auto di_st = exp::run_scenario(diurnal_config(s, false));
  record_pair(harness, "diurnal", di_el, di_st);

  const auto fl_el = exp::run_scenario(flash_config(s, true));
  const auto fl_st = exp::run_scenario(flash_config(s, false));
  record_pair(harness, "flash", fl_el, fl_st);
  // Reaction: virtual time from the surge to the first committed scale-up
  // at or after it.
  double reaction_us = -1.0;
  for (const auto& ev : fl_el.elastic.history)
    if (ev.at >= sim::ms(10) && ev.to > ev.from) {
      reaction_us = static_cast<double>(ev.at - sim::ms(10)) / 1000.0;
      break;
    }
  harness.record("flash/reaction_to_surge", "us", false, reaction_us);

  const auto ro_el = exp::run_scenario(elephants_config(s, true));
  const auto ro_st = exp::run_scenario(elephants_config(s, false));
  record_pair(harness, "elephants", ro_el, ro_st);

  // Same seed, same curves: the whole elastic timeline must be
  // bit-identical across runs.
  const auto di_el2 = exp::run_scenario(diurnal_config(s, true));
  const bool deterministic =
      di_el2.messages == di_el.messages &&
      di_el2.elastic.core_seconds == di_el.elastic.core_seconds &&
      di_el2.elastic.history.size() == di_el.elastic.history.size();
  harness.record("elastic/deterministic", "bool", true,
                 deterministic ? 1.0 : 0.0);

  // --- rt live capacity (wall clock) ----------------------------------------
  const auto rt_packets =
      static_cast<std::uint64_t>(cli.get_int("rt-packets", 2'000'000));
  harness.run_case("rt/live_capacity_pps", "pps", true,
                   [&] { return rt_live_capacity_pps(rt_packets); });

  const std::string json = harness.finish(std::cout);
  std::cout << "\ndiurnal: slo " << slo_attainment(di_el, di_st)
            << " at core-seconds frac "
            << di_el.elastic.core_seconds / di_el.elastic.core_seconds_static
            << " (" << di_el.elastic.scale_ups << " ups, "
            << di_el.elastic.scale_downs << " downs, "
            << di_el.elastic.vetoes << " vetoes)\n";
  if (!json.empty()) std::cout << "wrote " << json << "\n";
  return 0;
}
