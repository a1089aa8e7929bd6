// DES workloads: the deterministic simulator driven through
// exp::run_scenario only.
//
//   des-mflow-tcp      the paper's Fig. 8 point: one TCP flow of 64 KB
//                      messages into the 16-core receiver, MFLOW with its
//                      default TCP config; sim, stack and core do the work.
//   des-control-churn  8-core receiver, two TCP flows, 4 splitting cores,
//                      control plane ticking over 200k churned flows/s, flow
//                      cache on and a nat,fw,lb chain under SCR.
//
// Set-up (scenario assembly plus the warmup window) is timed on its own by
// running the scenario with a 1 us measurement window; each sample is a full
// run, and its measured window is the call's wall time minus the median
// set-up time. Each sample is paired with a timing of the frozen reference
// kernel (reference.cpp), which scales it to a nominal host speed.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace mflow;

namespace {

/// The reference kernel's rate (reference.cpp) on a 4-vCPU host in a quiet
/// phase; DES timings are scaled to it.
constexpr double kNominalReference = 1e4;

}  // namespace

exp::ScenarioConfig des_config(const Options& opt) {
  exp::ScenarioConfig c;
  c.seed = opt.seed;
  c.protocol = net::Ipv4Header::kProtoTcp;
  c.message_size = 65536;
  if (opt.workload == "des-mflow-tcp") {
    c.mode = opt.negative_control ? exp::Mode::kVanilla : exp::Mode::kMflow;
    c.num_flows = 1;
    c.warmup = sim::ms(10);
    c.measure = sim::ms(100);
    return c;
  }
  // bench/ablate_churn's scenario, plus the flow cache and the NF chain.
  c.mode = exp::Mode::kMflow;
  c.num_flows = 2;
  c.server_cores = 8;
  c.app_cores = 1;
  c.first_kernel_core = 1;
  c.kernel_cores = 7;
  c.warmup = sim::ms(4);
  c.measure = sim::ms(50);
  core::MflowConfig m = core::udp_device_scaling_config();
  m.tcp_in_reader = true;
  m.splitting_cores = {2, 3, 4, 5};
  c.mflow = m;
  c.control.enabled = true;
  c.control.interval = sim::us(100);
  auto& cp = c.control.params;
  cp.monitor.window = sim::ms(4);
  cp.monitor.max_samples = 64;
  cp.monitor.table.ttl = sim::ms(2);
  cp.classifier.promote_pps = 200'000;
  cp.classifier.demote_pps = 100'000;
  cp.classifier.dwell = sim::ms(1);
  cp.scaling.per_core_pps = 150'000;
  c.control.churn.enabled = true;
  c.control.churn.flows_per_sec = 200'000;
  c.control.churn.flow_lifetime = sim::ms(1);
  c.control.churn.rate_pps = 20'000;
  c.control.churn.reverse = true;
  c.fastpath.enabled = true;
  c.nf.enabled = true;
  c.nf.strategy = nf::Strategy::kScr;
  c.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                      nf::Kind::kLoadBalancer};
  return c;
}

namespace {

struct Run {
  exp::ScenarioResult res;
  double call_s = 0;
};

Run run_once(const exp::ScenarioConfig& cfg, SpanLog& spans,
             const char* span) {
  SpanLog::Scope s(spans, span);
  const auto t0 = Clock::now();
  Run r;
  r.res = exp::run_scenario(cfg);
  r.call_s = seconds_since(t0);
  return r;
}

/// The model outputs that must repeat bit for bit on every run of a set.
struct Fingerprint {
  std::uint64_t events = 0, messages = 0, nic_drops = 0;
  double goodput = 0;
  std::uint64_t p50 = 0, p99 = 0;
  bool operator==(const Fingerprint& o) const {
    return events == o.events && messages == o.messages &&
           nic_drops == o.nic_drops && p50 == o.p50 && p99 == o.p99 &&
           std::memcmp(&goodput, &o.goodput, sizeof goodput) == 0;
  }
};

Fingerprint fingerprint(const exp::ScenarioResult& r) {
  return {r.events,          r.messages,        r.nic_drops,
          r.goodput_gbps,    r.latency.p50(),   r.latency.p99()};
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

Result run_des(const Options& opt, SpanLog& spans) {
  Result out;
  const exp::ScenarioConfig cfg = des_config(opt);
  const double measure_s = sim::to_seconds(cfg.measure);
  const double run_sim_s = sim::to_seconds(cfg.warmup + cfg.measure);

  // Set-up runs alternate with full runs, so both sample the same host
  // conditions; a first set-up run warms the process before any timing.
  exp::ScenarioConfig setup_cfg = cfg;
  setup_cfg.measure = sim::us(1);
  run_once(setup_cfg, spans, "exp.run_scenario.warmup");
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Fingerprint first{};
  std::vector<double> setups, calls, refs;
  const auto t_window = Clock::now();
  do {
    setups.push_back(
        run_once(setup_cfg, spans, "exp.run_scenario.setup").call_s);
    refs.push_back(reference_rate(0.01));
    const Run r = run_once(cfg, spans, "exp.run_scenario");
    const Fingerprint fp = fingerprint(r.res);
    if (calls.empty()) first = fp;
    calls.push_back(r.call_s);
    out.attempted += r.res.messages;
    out.check(fp == first, 1,
              "des: events/goodput/p99 differ between runs of one seed");
    out.check(r.res.nic_drops == 0, r.res.nic_drops, "des: NIC drops");
    out.check(r.res.messages > 0, 1, "des: no message delivered");
    out.samples["sim.events_per_s"].push_back(
        static_cast<double>(r.res.events) / r.call_s);
  } while (seconds_since(t_window) < untraced_s);

  // The measured window of a run is its call time minus the set-up time.
  const double setup_s = quantile(setups, 0.5);
  const auto window = [&](double call_s) {
    return std::max(call_s - setup_s, 1e-9);
  };
  // Modeled payload segments delivered to the app in one measured window.
  const double pkts = first.goodput * 1e9 / 8.0 * measure_s / net::kTcpMss;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const double mpps = pkts / window(calls[i]) / 1e6;
    const double host = refs[i] / kNominalReference;  // 1 = nominal speed
    out.samples["des_sim_speed"].push_back(measure_s / window(calls[i]));
    out.samples["des_wall_mpps"].push_back(mpps);
    out.samples["des_wall_mpps_scaled"].push_back(mpps / host);
    out.samples["setup_raw_s"].push_back(setups[i]);
    out.samples["setup_s"].push_back(setups[i] * host);
  }

  auto& v = out.values;
  v["des_goodput_gbps"] = first.goodput;
  v["des_p50_us"] = static_cast<double>(first.p50) / 1e3;
  v["des_p99_us"] = static_cast<double>(first.p99) / 1e3;
  v["sim.events"] = static_cast<double>(first.events) / run_sim_s;
  if (!opt.trace) return out;

  // Traced half: per-packet tracing (sampled) through the scenario's own
  // tracer; the phase partition and registry come back in the result.
  exp::ScenarioConfig traced = cfg;
  traced.trace.enabled = true;
  traced.trace.sample_period = 16;
  exp::ScenarioResult last;
  const auto t_traced = Clock::now();
  do {
    Run r = run_once(traced, spans, "exp.run_scenario.traced");
    out.check(fingerprint(r.res).goodput == first.goodput, 1,
              "des: tracing changed the modeled goodput");
    out.samples["traced_sim_speed"].push_back(measure_s / window(r.call_s));
    last = std::move(r.res);
  } while (seconds_since(t_traced) < opt.seconds - untraced_s);

  static const char* kPhases[] = {
      "ring_wait", "svc:driver",  "svc:gro",    "svc:vxlan", "queue",
      "split_queue", "reasm_hold", "socket_wait", "copy"};
  for (const char* p : kPhases) {
    std::string name = p;
    if (auto colon = name.find(':'); colon != std::string::npos)
      name[colon] = '_';
    const auto it = last.phases.phases.find(p);
    const bool seen = it != last.phases.phases.end() && it->second.count() > 0;
    v["des.phase." + name + ".p50_us"] =
        seen ? static_cast<double>(it->second.p50()) / 1e3 : 0.0;
    v["des.phase." + name + ".p99_us"] =
        seen ? static_cast<double>(it->second.p99()) / 1e3 : 0.0;
  }
  v["des.phase.journeys"] = static_cast<double>(last.phases.complete);
  v["core.reasm.ooo_per_batch"] =
      ratio(last.ooo_arrivals, last.batches_merged);
  v["control.peak_tracked"] = static_cast<double>(last.control.peak);
  v["control.expired"] = static_cast<double>(last.control.expired);
  v["stack.flowcache.lookups"] =
      static_cast<double>(last.cache_hits + last.cache_misses);
  v["stack.flowcache.hit_rate"] = last.cache_hit_rate();
  v["nf.packets"] = static_cast<double>(last.nf_packets);
  v["nf.scr_updates_per_pkt"] = ratio(last.nf_scr_updates, last.nf_packets);
  if (cfg.control.enabled)
    v["control.live_flows"] = static_cast<double>(last.control.peak);
  return out;
}

}  // namespace perfbench
