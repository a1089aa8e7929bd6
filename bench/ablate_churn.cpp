// Ablation: flow-state lifecycle under churn — the sharded, expiring
// FlowTable (src/control/flowtable) and the Controller's TTL sweep.
//
// Three measurement groups:
//
//   table/*    : raw FlowTable throughput (wall-clock) under insert/touch/
//                expire churn at 2M and 8M resident entries, on one
//                thread (the table has one user at a time). Machine-
//                dependent — baselined in bench/baselines/ at the loose
//                cross-runner tolerance.
//
//   churn/*    : a Controller driven through >= 1M cumulative short flows
//                (closed-form synthetic churn, exp::append_churn_totals,
//                reverse twins included) plus one mid-run elephant surge.
//                Checks the bounded-state invariant — peak tracked flows
//                scales with the LIVE window, not cumulative arrivals —
//                and measures control-plane reaction time to the surge.
//                Deterministic (virtual clock, no threads) — baselined in
//                bench/baselines/churn/ at 2%.
//
//   des/*      : a small full-DES scenario with the churn source merged
//                into the engine's real flow totals, exercising the
//                release_flow drain handshake end to end. Deterministic,
//                same 2% baseline directory.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/harness.hpp"
#include "control/flowtable.hpp"
#include "control/policy.hpp"
#include "experiment/scenario.hpp"
#include "util/cli.hpp"

using namespace mflow;

namespace {

// --- raw table throughput ----------------------------------------------------

/// Sliding-window churn against one table: inserts keys 0..ops-1 stamped
/// with the loop index, touches each once, and sweeps periodically with
/// ttl = capacity — so occupancy rides at the capacity bound (every insert
/// past it evicts the shard LRU) and all four hot paths (upsert, touch,
/// expire, evict) stay exercised. Returns ops/s counting upsert + touch as
/// two ops.
double churn_table_ops(std::size_t capacity, std::uint64_t ops) {
  control::FlowTableParams p;
  p.shards = 8;
  p.capacity = capacity;
  p.ttl = static_cast<sim::Time>(capacity);
  control::FlowTable<std::uint64_t> table(p);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto now = static_cast<sim::Time>(i);
    table.upsert_apply(i, now, [i](std::uint64_t& v) { v = i; });
    table.touch(i, now);
    if ((i & 0xFFFF) == 0) table.expire_idle(now);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return secs > 0 ? 2.0 * static_cast<double>(ops) / secs : 0.0;
}

// --- controller under synthetic churn ---------------------------------------

/// Accepts every degree change and release — the control plane's cost and
/// state bounds are what this drive measures, not a data path.
struct NullTarget final : control::CapacityTarget {
  void set_flow_degree(net::FlowId, std::uint32_t) override {}
  std::uint32_t max_degree() const override { return 4; }
};

struct ChurnDrive {
  std::uint64_t cumulative_flows = 0;
  std::uint64_t peak_tracked = 0;
  std::uint64_t tracked_end = 0;
  std::uint64_t expired = 0;
  std::uint64_t rescales = 0;
  /// Surge onset -> first committed promotion for the surge flow (us);
  /// negative if it never promoted.
  double reaction_us = -1.0;
};

ChurnDrive drive_controller_churn() {
  control::ControllerParams cp;
  cp.monitor.window = sim::ms(2);
  cp.monitor.max_samples = 32;
  cp.monitor.table.shards = 8;
  cp.monitor.table.capacity = 1 << 21;  // the 2M-entry regime
  cp.monitor.table.ttl = sim::ms(1);
  cp.classifier.promote_pps = 200'000;
  cp.classifier.demote_pps = 100'000;
  cp.classifier.dwell = sim::ms(1);
  cp.scaling.per_core_pps = 150'000;

  exp::ScenarioConfig::ControlPlane::Churn churn;
  churn.enabled = true;
  churn.flows_per_sec = 2e6;
  churn.flow_lifetime = sim::us(500);
  churn.rate_pps = 20'000;  // mice: churn must not promote anything
  churn.reverse = true;
  churn.first_flow_id = 1ull << 20;

  const sim::Time interval = sim::us(200);
  const sim::Time end = sim::ms(300);
  const sim::Time surge_at = sim::ms(150);
  constexpr net::FlowId kSurgeFlow = 999;

  sim::Time now = 0;
  auto source = [&churn, &now,
                 surge_at](std::vector<control::Controller::FlowTotals>& v) {
    exp::append_churn_totals(churn, now, v);
    if (now >= surge_at) {
      const double active = sim::to_seconds(now - surge_at);
      const auto segs = static_cast<std::uint64_t>(1e6 * active) + 1;
      v.push_back({kSurgeFlow, segs, segs * net::kTcpMss});
    }
  };

  NullTarget target;
  control::Controller ctl(cp, source, &target);
  for (now = interval; now <= end; now += interval) ctl.tick(now);

  ChurnDrive d;
  d.cumulative_flows =
      (static_cast<std::uint64_t>(sim::to_seconds(end) *
                                  churn.flows_per_sec) +
       1) *
      2;
  d.peak_tracked = ctl.peak_tracked();
  d.tracked_end = ctl.tracked_flows();
  d.expired = ctl.expired_flows();
  d.rescales = ctl.rescales();
  for (const auto& ev : ctl.history()) {
    if (ev.flow == kSurgeFlow && ev.new_degree > ev.old_degree) {
      d.reaction_us = sim::to_seconds(ev.at - surge_at) * 1e6;
      break;
    }
  }
  return d;
}

// --- full DES scenario with churn --------------------------------------------

exp::ScenarioConfig des_churn_config() {
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kMflow;
  cfg.protocol = net::Ipv4Header::kProtoTcp;
  cfg.message_size = 65536;
  cfg.num_flows = 2;
  cfg.server_cores = 8;
  cfg.app_cores = 1;
  cfg.first_kernel_core = 1;
  cfg.kernel_cores = 7;
  cfg.warmup = sim::ms(4);
  cfg.measure = sim::ms(16);
  core::MflowConfig mcfg = core::udp_device_scaling_config();
  mcfg.tcp_in_reader = true;
  mcfg.splitting_cores = {2, 3, 4, 5};
  cfg.mflow = mcfg;
  cfg.control.enabled = true;
  cfg.control.interval = sim::us(100);
  cfg.control.params.monitor.window = sim::ms(4);
  cfg.control.params.monitor.max_samples = 64;
  cfg.control.params.monitor.table.ttl = sim::ms(2);
  cfg.control.params.classifier.promote_pps = 200'000;
  cfg.control.params.classifier.demote_pps = 100'000;
  cfg.control.params.classifier.dwell = sim::ms(1);
  cfg.control.params.scaling.per_core_pps = 150'000;
  cfg.control.churn.enabled = true;
  cfg.control.churn.flows_per_sec = 200'000;
  cfg.control.churn.flow_lifetime = sim::ms(1);
  cfg.control.churn.rate_pps = 20'000;
  cfg.control.churn.reverse = true;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);

  bench::HarnessConfig hc;
  hc.bench_name = "ablate_churn";
  hc.warmup = static_cast<int>(cli.get_int("warmup", 1));
  hc.repeats = static_cast<int>(cli.get_int("repeats", 3));
  hc.json_dir = cli.get("json-dir", ".");
  const auto ops_2m = static_cast<std::uint64_t>(
      cli.get_int("ops", 4'000'000));
  hc.config["table_ops"] = std::to_string(ops_2m);
  bench::Harness harness(hc);

  // --- raw table throughput (wall clock; loose cross-runner baseline) -------
  harness.run_case("table/ops_2m", "ops/s", true,
                   [&] { return churn_table_ops(1 << 21, ops_2m); });
  harness.run_case("table/ops_8m", "ops/s", true,
                   [&] { return churn_table_ops(1 << 23, ops_2m * 2); });

  // --- controller under >= 1M cumulative flows (deterministic) --------------
  const ChurnDrive d = drive_controller_churn();
  harness.record("churn/cumulative_flows", "count", true,
                 static_cast<double>(d.cumulative_flows));
  harness.record("churn/peak_tracked", "count", false,
                 static_cast<double>(d.peak_tracked));
  harness.record("churn/tracked_end", "count", false,
                 static_cast<double>(d.tracked_end));
  harness.record("churn/expired", "count", true,
                 static_cast<double>(d.expired));
  // The bounded-state invariant itself: the live window is flows_per_sec *
  // (lifetime + ttl + tick slack) * 2 directions ~= 7k flows; 20k gives
  // comfortable slack while cumulative is > 1M. A leak trips this long
  // before it trips a tolerance check.
  harness.record("churn/bounded_by_live_window", "bool", true,
                 d.peak_tracked <= 20'000 ? 1.0 : 0.0);
  harness.record("churn/reaction_to_surge", "us", false, d.reaction_us);

  const ChurnDrive d2 = drive_controller_churn();
  harness.record("churn/deterministic", "bool", true,
                 (d2.peak_tracked == d.peak_tracked &&
                  d2.expired == d.expired && d2.rescales == d.rescales &&
                  d2.reaction_us == d.reaction_us)
                     ? 1.0
                     : 0.0);

  // --- full DES scenario: churn against the real engine ---------------------
  const exp::ScenarioResult des = exp::run_scenario(des_churn_config());
  harness.record("des/goodput", "Gbps", true, des.goodput_gbps);
  harness.record("des/control.peak", "count", false,
                 static_cast<double>(des.control.peak));
  harness.record("des/control.tracked", "count", false,
                 static_cast<double>(des.control.tracked));
  harness.record("des/control.expired", "count", true,
                 static_cast<double>(des.control.expired));

  const std::string json = harness.finish(std::cout);
  std::cout << "\nchurn: " << d.cumulative_flows << " cumulative flows, peak "
            << d.peak_tracked << " tracked, " << d.expired
            << " expired; surge promoted after " << d.reaction_us << " us\n"
            << "des: " << des.goodput_gbps << " Gbps, peak "
            << des.control.peak << " tracked, "
            << des.control.expired << " expired\n";
  if (!json.empty()) std::cout << "wrote " << json << "\n";
  return 0;
}
