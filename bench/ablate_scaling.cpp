// Scaling ablation for the rt engine: worker-count sweep with
// scaling-efficiency curves, plus a profiled run whose lost-throughput
// attribution is checked against the measured loss.
//
// This is a CI perf-smoke bench: BENCH_ablate_scaling.json is compared
// against bench/baselines/scaling/BENCH_ablate_scaling.json by
// bench/compare_bench.py at a wide tolerance (throughput and efficiency
// are machine-dependent — see docs/BENCHMARKS.md for the refresh
// procedure). Cases:
//
//   engine.cost{0,200}.w<N>      sweep throughput at N workers
//   engine.cost{0,200}.eff.w<N>  scaling efficiency vs linear from w1
//   prof.w<N>.pps                throughput with the profiler enabled
//   prof.attr_gap.w<N>           |1 - attribution coverage| — how much of
//                                the lost throughput the profiler's named
//                                contention points fail to explain.
//                                EMITTED ONLY when the host has >= N+2
//                                logical CPUs (the pipeline needs its own
//                                CPU per thread for stall attribution to
//                                mean anything); on smaller hosts the case
//                                is absent and compare_bench treats it as
//                                new/missing-in-baseline accordingly.
//
// Flags (beyond the usual --warmup/--repeats/--json-dir):
//   --max-workers=N           clip the sweep (default 4)
//   --pin=0                   disable topology pinning for profiled runs
//   --enforce-attribution     exit 1 when a prof.attr_gap case (on capable
//                             hardware) exceeds 0.10 — the CI guard from
//                             docs/SCALING.md §5
//   --enforce-scaling=X       exit 1 when the cost200 w4/w1 speedup is
//                             below X (checked only with >= 6 CPUs)
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "rt/engine.hpp"
#include "rt/profiler.hpp"
#include "util/cli.hpp"

using namespace mflow;
using namespace mflow::rt;

namespace {

EngineConfig base_cfg(std::size_t workers, std::uint32_t cost_ns, bool pin) {
  EngineConfig cfg;
  cfg.workers = workers;
  cfg.batch_size = 256;
  cfg.cost_ns_per_packet = cost_ns;
  cfg.topology.pin_threads = pin;
  return cfg;
}

/// Lossless pipeline run; order/conservation violations are fatal (a
/// scaling number from a broken run is worse than no number).
EngineResult run_checked(const EngineConfig& cfg, std::uint64_t total) {
  Engine engine(cfg);
  EngineResult res = engine.run(total);
  if (!res.in_order || res.packets_dropped != 0) {
    std::cerr << "ablate_scaling: engine run violated order/conservation\n";
    std::exit(1);
  }
  return res;
}

double engine_pps(std::size_t workers, std::uint32_t cost_ns,
                  std::uint64_t total, bool pin) {
  return run_checked(base_cfg(workers, cost_ns, pin), total)
      .packets_per_second();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::HarnessConfig hc;
  hc.bench_name = "ablate_scaling";
  hc.warmup = static_cast<int>(cli.get_int("warmup", 1));
  hc.repeats = static_cast<int>(cli.get_int("repeats", 3));
  hc.json_dir = cli.get("json-dir", ".");
  const std::uint64_t pkts_c0 =
      static_cast<std::uint64_t>(cli.get_int("packets-cost0", 200'000));
  const std::uint64_t pkts_c200 =
      static_cast<std::uint64_t>(cli.get_int("packets-cost200", 20'000));
  const std::size_t max_workers =
      static_cast<std::size_t>(cli.get_int("max-workers", 4));
  const bool pin = cli.get_bool("pin", true);
  const bool enforce_attr = cli.has("enforce-attribution");
  const double enforce_scaling = cli.get_double("enforce-scaling", 0.0);
  const unsigned cpus = std::thread::hardware_concurrency();

  std::vector<std::size_t> counts;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}})
    if (n <= max_workers) counts.push_back(n);

  hc.config = {{"packets_cost0", std::to_string(pkts_c0)},
               {"packets_cost200", std::to_string(pkts_c200)},
               {"max_workers", std::to_string(max_workers)},
               {"pin", pin ? "1" : "0"},
               {"host_cpus", std::to_string(cpus)},
               {"batch_size", "256"}};
  bench::Harness h(hc);

  // Worker-count sweeps: throughput per count plus the derived
  // scaling-efficiency curve (run_sweep records both case families).
  h.run_sweep("engine.cost0", "pkts/s", true, counts,
              [&](std::size_t n) { return engine_pps(n, 0, pkts_c0, pin); });
  const std::vector<double> c200 = h.run_sweep(
      "engine.cost200", "pkts/s", true, counts,
      [&](std::size_t n) { return engine_pps(n, 200, pkts_c200, pin); });

  // Profiled runs: anchor at 1 worker, then attribute each multi-worker
  // run's lost throughput to the profiler's named contention points. The
  // gap |1 - coverage| is the profiler's own acceptance metric — but only
  // on hosts where every pipeline thread gets its own CPU.
  const auto profiled_best = [&](std::size_t n) {
    EngineConfig cfg = base_cfg(n, 200, pin);
    cfg.profile = true;
    EngineResult best;
    for (int r = 0; r < std::max(1, hc.repeats); ++r) {
      EngineResult res = run_checked(cfg, pkts_c200);
      if (r == 0 || res.packets_per_second() > best.packets_per_second())
        best = std::move(res);
    }
    return best;
  };
  const EngineResult anchor = profiled_best(1);
  const double anchor_pps = anchor.packets_per_second();
  h.record("prof.w1.pps", "pkts/s", true, anchor_pps);

  bool attr_failed = false;
  EngineResult last;
  ScalingAttribution last_attr;
  for (std::size_t n : counts) {
    if (n == 1) continue;
    EngineResult res = profiled_best(n);
    const double pps = res.packets_per_second();
    h.record("prof.w" + std::to_string(n) + ".pps", "pkts/s", true, pps);
    ScalingAttribution attr =
        attribute_scaling(res.profile, anchor_pps, pps);
    const bool hw_ok = cpus >= n + 2;
    if (hw_ok) {
      // Tiny losses make coverage a ratio of near-zeros; near-linear
      // scaling counts as fully explained.
      const double gap = attr.lost_pps < 0.05 * attr.ideal_pps
                             ? 0.0
                             : std::fabs(1.0 - attr.coverage);
      h.record("prof.attr_gap.w" + std::to_string(n), "frac", false, gap);
      if (enforce_attr && gap > 0.10) {
        std::cerr << "ablate_scaling: attribution gap " << gap << " at w"
                  << n << " exceeds 0.10\n";
        attr_failed = true;
      }
    }
    last = std::move(res);
    last_attr = std::move(attr);
  }
  if (last.profile.enabled)
    std::cout << format_profile(last.profile, &last_attr)
              << "threads pinned in last profiled run: "
              << last.threads_pinned << "\n";

  h.finish(std::cout);

  if (attr_failed) return 1;
  if (enforce_scaling > 0.0 && cpus >= 6 && counts.back() == 4 &&
      c200.size() == counts.size() && c200.front() > 0.0) {
    const double speedup = c200.back() / c200.front();
    if (speedup < enforce_scaling) {
      std::cerr << "ablate_scaling: cost200 w4/w1 speedup " << speedup
                << " below required " << enforce_scaling << "\n";
      return 1;
    }
  }
  return 0;
}
