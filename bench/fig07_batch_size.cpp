// Figure 7 reproduction: out-of-order packet deliveries at the merge point
// vs micro-flow batch size (TCP, 64KB messages, 2 splitting cores,
// background interference on), under BOTH scaling regimes.
//
// Paper shape: the ooo count falls sharply as batch size grows; at 256+ the
// order-preservation overhead becomes negligible. That is the single-device
// regime, where the splitting cores run below saturation and reordering
// comes from batch-boundary skew + interference jitter. Under full-path
// scaling (saturated branches) very large batches also build per-branch
// queues, re-introducing boundary skew — so "bigger is better" has a limit,
// which is why the paper settles on 256 rather than "as large as possible".
//
// Deterministic DES results; each point's goodput and p99 latency are
// record()ed once into BENCH_fig07_batch_size.json (see docs/BENCHMARKS.md).
#include <iostream>

#include "bench/harness.hpp"
#include "experiment/report.hpp"
#include "experiment/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mflow;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto measure = sim::ms(cli.get_double("measure-ms", 30));

  bench::HarnessConfig hc;
  hc.bench_name = "fig07_batch_size";
  hc.warmup = 0;
  hc.repeats = 1;
  hc.json_dir = cli.get("json-dir", ".");
  hc.config = {{"measure_ms", std::to_string(measure / 1'000'000)}};
  bench::Harness harness(hc);

  constexpr std::uint32_t kBatches[] = {8,   16,  32,   64,  128,
                                        256, 512, 1024, 4096};
  double ooo_batch8 = 0, ooo_batch256 = 0;
  for (bool full_path : {false, true}) {
    const std::string regime = full_path ? "full_path" : "device";
    util::Table table({"batch", "goodput", "ooo arrivals", "ooo/pkt %",
                       "batches merged", "p99 latency (us)"});
    for (std::uint32_t batch : kBatches) {
      exp::ScenarioConfig cfg;
      cfg.protocol = net::Ipv4Header::kProtoTcp;
      cfg.mode = exp::Mode::kMflow;
      cfg.message_size = 65536;
      cfg.measure = measure;
      auto mcfg = full_path ? core::tcp_full_path_config()
                            : core::udp_device_scaling_config();
      mcfg.tcp_in_reader = true;  // TCP still merges before the transport
      mcfg.batch_size = batch;
      cfg.mflow = mcfg;

      const auto res = exp::run_scenario(cfg);
      // Packets delivered ~ goodput / MSS over the window.
      const double pkts = res.goodput_gbps * 1e9 / 8.0 *
                          sim::to_seconds(measure) / net::kTcpMss;
      const auto ooo = static_cast<double>(res.ooo_arrivals);
      if (!full_path && batch == 8) ooo_batch8 = ooo;
      if (!full_path && batch == 256) ooo_batch256 = ooo;
      table.add({static_cast<int>(batch), util::fmt_gbps(res.goodput_gbps),
                 static_cast<unsigned long long>(res.ooo_arrivals),
                 util::Table::Cell(pkts > 0 ? 100.0 * ooo / pkts : 0.0, 2),
                 static_cast<unsigned long long>(res.batches_merged),
                 util::Table::Cell(res.p99_latency_us(), 1)});
      const std::string point = regime + ".batch" + std::to_string(batch);
      harness.record(point + ".goodput", "Gbps", true, res.goodput_gbps);
      harness.record(point + ".p99_us", "us", false, res.p99_latency_us());
    }
    table.print(std::cout,
                full_path ? "Batch size under full-path scaling (TCP 64KB)"
                          : "Fig 7: out-of-order deliveries vs micro-flow "
                            "batch size (TCP 64KB, 2 splitting cores)");
    std::cout << "\n";
  }

  // Shape: batch>=256 causes at most a tiny fraction of the batch-8
  // reordering in the paper's (device-scaling) regime.
  exp::print_expectations(
      std::cout, "Fig 7 shape checks",
      {{"ooo(256)/ooo(8) << 1", 0.05,
        ooo_batch8 > 0 ? ooo_batch256 / ooo_batch8 : 0.0, 4.0}});
  harness.finish(std::cout);
  return 0;
}
