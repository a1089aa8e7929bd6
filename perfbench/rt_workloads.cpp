// rt workloads: the real-thread split/merge engine driven through
// rt::Engine::run only.
//
//   rt-forward     bare forwarding at the smallest packet: rings, slab pool,
//                  recycle fabric and the in-order merge are the whole cost.
//   rt-overlay-nf  VXLAN overlay with per-worker caches, flow table and a
//                  nat,fw,lb chain under SCR, with a seeded rescale schedule
//                  that alternates 2 and 1 active workers.
//
// Each sample is one Engine::run of a fixed packet count (the same stream on
// every run, so outputs can be checked against each other and against a
// single-worker oracle). Samples repeat until the window closes.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "perfbench.hpp"
#include "rt/engine.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace mflow;

namespace {

constexpr std::uint32_t kBatch = 256;
/// Mean packets between rescale entries on rt-overlay-nf; the seed jitters
/// each boundary by up to a sixteenth of it.
constexpr std::uint64_t kRescaleEvery = 128 * 1024;
/// rt-forward's negative control: calibrated busy-work per packet, which
/// caps two workers far below bare forwarding.
constexpr std::uint32_t kNegativeCostNs = 200;

/// Packets per engine run: 0.1-0.2 s at the rates of a 4-CPU host, so a
/// 20 s window holds about a hundred samples.
std::uint64_t packets_per_run(const std::string& workload) {
  return workload == "rt-forward" ? 4'000'000 : 1'000'000;
}

}  // namespace

rt::EngineConfig rt_config(const Options& opt) {
  rt::EngineConfig c;
  c.workers = 2;
  c.batch_size = kBatch;
  c.cost_ns_per_packet = 0;
  c.max_push_spins = 0;  // lossless: only ring and pool backpressure throttle
  c.fault_seed = opt.seed;
  if (opt.workload == "rt-forward") {
    if (opt.negative_control) c.cost_ns_per_packet = kNegativeCostNs;
    return c;
  }
  c.overlay.enabled = true;
  c.overlay.cache = true;
  c.overlay.flows = 1024;
  c.overlay.cache_slots = 256;
  c.flow_table.enabled = true;
  c.nf.enabled = true;
  c.nf.strategy = nf::Strategy::kScr;
  c.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                      nf::Kind::kLoadBalancer};
  util::Rng rng(opt.seed);
  c.nf.chain.nat_seed = static_cast<std::uint32_t>(rng.next());
  c.nf.chain.lb_seed = static_cast<std::uint32_t>(rng.next());
  const std::uint64_t total = packets_per_run(opt.workload);
  for (std::uint64_t k = 1;; ++k) {
    const std::uint64_t jitter = rng.uniform(kRescaleEvery / 8);
    const std::uint64_t at = k * kRescaleEvery + jitter - kRescaleEvery / 16;
    if (at >= total) break;
    c.rescales.push_back({at, k % 2 == 1 ? 1u : 2u});
  }
  return c;
}

namespace {

struct Run {
  rt::EngineResult res;
  double call_s = 0;
};

Run run_engine(const rt::EngineConfig& cfg, std::uint64_t total,
               SpanLog& spans, const char* span,
               const std::function<void(const rt::RtPacket&)>& on_output =
                   {}) {
  SpanLog::Scope s(spans, span);
  const auto t0 = Clock::now();
  rt::Engine engine(cfg);
  Run r;
  r.res = engine.run(total, on_output);
  r.call_s = seconds_since(t0);
  return r;
}

std::uint64_t fw_segs(const rt::EngineResult& res) {
  std::uint64_t segs = 0;
  for (const auto& [fid, st] : res.nf_state) segs += st.fw.segs;
  return segs;
}

/// Output checks on one run. `oracle_digest` is the single-worker run's NF
/// state digest (0 when the workload has no NF plane).
void check_run(const rt::EngineConfig& cfg, std::uint64_t total,
               const rt::EngineResult& res, std::uint64_t oracle_digest,
               Result& out) {
  out.attempted += total;
  const std::uint64_t accounted = res.packets + res.packets_dropped;
  out.check(res.packets_dropped == 0, res.packets_dropped,
            "rt: packets dropped in a lossless run");
  out.check(accounted == total,
            accounted > total ? accounted - total : total - accounted,
            "rt: delivered + dropped != generated");
  out.check(res.in_order, 1, "rt: delivery out of order");
  if (cfg.overlay.enabled) {
    out.check(res.decap_failures == 0, res.decap_failures,
              "rt: VXLAN decap failures");
    out.check(res.cache_hits + res.cache_misses == res.packets, 1,
              "rt: overlay cache hits + misses != delivered");
  }
  if (cfg.nf.enabled) {
    out.check(res.nf_packets == res.packets, 1,
              "rt: NF packets != delivered");
    out.check(fw_segs(res) == res.packets, 1,
              "rt: summed fw.segs != delivered");
    out.check(res.nf_nat_rewrite_failures == 0, res.nf_nat_rewrite_failures,
              "rt: NAT rewrite failures");
    out.check(res.nf_state_digest == oracle_digest, 1,
              "rt: SCR state digest differs from the single-worker oracle");
  }
}

/// Fold one traced run's profile into the per-layer accumulators.
struct ProfileSum {
  rt::StageCounters gen, cons, workers;
  std::uint64_t ring_returns = 0, cas_fallbacks = 0;
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t epochs = 0;
  std::uint64_t runs = 0;

  static void add(rt::StageCounters& into, const rt::StageCounters& c) {
    into.input_dry_ns += c.input_dry_ns;
    into.output_full_ns += c.output_full_ns;
    into.pool_dry_ns += c.pool_dry_ns;
    into.occupancy_sum += c.occupancy_sum;
    into.occupancy_samples += c.occupancy_samples;
    into.active_ns += c.active_ns;
  }
  void add(const rt::EngineResult& res) {
    add(gen, res.profile.generator);
    add(cons, res.profile.consumer);
    add(workers, res.profile.workers_total());
    ring_returns += res.recycle_ring_returns;
    cas_fallbacks += res.recycle_cas_fallbacks;
    hits += res.cache_hits;
    misses += res.cache_misses;
    epochs += res.rescales_applied;
    ++runs;
  }
};

double frac(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

Result run_rt(const Options& opt, SpanLog& spans) {
  Result out;
  const rt::EngineConfig cfg = rt_config(opt);
  const std::uint64_t total = packets_per_run(opt.workload);

  // The single-worker oracle for SCR: same stream, one worker, so its NF
  // state is what an in-order core computes. Also serves as the warmup.
  std::uint64_t oracle_digest = 0;
  {
    rt::EngineConfig one = cfg;
    one.workers = 1;
    one.rescales.clear();
    const Run oracle = run_engine(one, total, spans, "rt.engine.run.oracle");
    oracle_digest = oracle.res.nf_state_digest;
    out.check(oracle.res.in_order && oracle.res.packets == total, 1,
              "rt: single-worker oracle run lost or reordered packets");
  }

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto t_window = Clock::now();
  do {
    const Run r = run_engine(cfg, total, spans, "rt.engine.run");
    check_run(cfg, total, r.res, oracle_digest, out);
    const double mpps =
        static_cast<double>(r.res.packets) / r.res.wall_seconds / 1e6;
    out.samples["rt_mpps"].push_back(mpps);
    out.samples["rt_goodput_gbps"].push_back(mpps * 1e6 * net::kTcpMss *
                                             8.0 / 1e9);
    out.samples["setup_s"].push_back(r.call_s - r.res.wall_seconds);
  } while (seconds_since(t_window) < untraced_s);
  if (!opt.trace) return out;

  // Traced half: the engine's own profiler plus release stamps taken in
  // on_output at each micro-flow's first packet.
  rt::EngineConfig traced = cfg;
  traced.profile = true;
  ProfileSum sum;
  util::Histogram gaps;
  const auto t_traced = Clock::now();
  do {
    bool have_last = false;
    Clock::time_point last{};
    const auto stamp = [&](const rt::RtPacket& p) {
      if (p.seq % kBatch != 0) return;
      const auto now = Clock::now();
      if (have_last)
        gaps.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - last)
                .count()));
      last = now;
      have_last = true;
    };
    const Run r = run_engine(traced, total, spans, "rt.engine.run.traced",
                             stamp);
    check_run(traced, total, r.res, oracle_digest, out);
    out.samples["traced_mpps"].push_back(static_cast<double>(r.res.packets) /
                                         r.res.wall_seconds / 1e6);
    sum.add(r.res);
  } while (seconds_since(t_traced) < opt.seconds - untraced_s);

  auto& v = out.values;
  v["rt.worker.output_full_frac"] =
      frac(sum.workers.output_full_ns, sum.workers.active_ns);
  v["rt.worker.input_dry_frac"] =
      frac(sum.workers.input_dry_ns, sum.workers.active_ns);
  v["rt.merge.input_dry_frac"] = frac(sum.cons.input_dry_ns, sum.cons.active_ns);
  v["rt.gen.pool_dry_frac"] = frac(sum.gen.pool_dry_ns, sum.gen.active_ns);
  v["rt.gen.split_full_frac"] = frac(sum.gen.output_full_ns, sum.gen.active_ns);
  v["rt.split_ring.occupancy"] = sum.gen.mean_occupancy();
  v["rt.merge_ring.occupancy"] = sum.cons.mean_occupancy();
  v["rt.recycle.returns"] =
      static_cast<double>(sum.ring_returns + sum.cas_fallbacks);
  v["rt.recycle.cas_frac"] =
      frac(sum.cas_fallbacks, sum.ring_returns + sum.cas_fallbacks);
  v["rt.merge.release_gaps"] = static_cast<double>(gaps.count());
  v["rt.merge.release_gap_p50_us"] = static_cast<double>(gaps.p50()) / 1e3;
  v["rt.merge.release_gap_p99_us"] = static_cast<double>(gaps.p99()) / 1e3;
  v["rt.epochs_applied"] = frac(sum.epochs, sum.runs);
  v["rt.overlay.lookups"] = static_cast<double>(sum.hits + sum.misses);
  v["rt.overlay.hit_rate"] = frac(sum.hits, sum.hits + sum.misses);
  if (cfg.overlay.enabled) v["control.live_flows"] = cfg.overlay.flows;
  return out;
}

}  // namespace perfbench
