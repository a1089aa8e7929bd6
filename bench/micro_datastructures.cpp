// Microbenchmarks for the hot data structures: flow hash, header codecs,
// checksum, RX ring, GRO, histogram, pooled-vs-heap packet construction,
// and MFLOW's own mechanisms (batch assigner, reassembler deposit/merge
// cycle, simulator event loop). Emits BENCH_micro_datastructures.json via
// bench::Harness (part of the CI perf-smoke comparison — see
// docs/BENCHMARKS.md).
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench/harness.hpp"
#include "core/reassembler.hpp"
#include "core/splitter.hpp"
#include "net/checksum.hpp"
#include "net/gro.hpp"
#include "net/nic.hpp"
#include "rt/pool.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

using namespace mflow;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Time `iters` calls of `body` and return calls/sec.
template <typename Fn>
double rate(std::uint64_t iters, Fn&& body) {
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < iters; ++i) body(i);
  return static_cast<double>(iters) / (now_seconds() - t0);
}

volatile std::uint64_t g_sink;  // defeats dead-code elimination

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::HarnessConfig hc;
  hc.bench_name = "micro_datastructures";
  hc.warmup = static_cast<int>(cli.get_int("warmup", 1));
  hc.repeats = static_cast<int>(cli.get_int("repeats", 5));
  hc.json_dir = cli.get("json-dir", ".");
  const std::uint64_t n = cli.get_int("iters", 2'000'000);
  hc.config = {{"iters", std::to_string(n)}};
  bench::Harness h(hc);

  h.run_case("flow_hash", "ops/s", true, [&] {
    net::FlowKey key{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                     1234, 80, net::Ipv4Header::kProtoTcp};
    return rate(n, [&](std::uint64_t) {
      key.src_port++;
      g_sink = net::flow_hash(key);
    });
  });

  h.run_case("ipv4_encode_verify", "ops/s", true, [&] {
    net::Ipv4Header hdr;
    hdr.src = net::Ipv4Addr(10, 0, 0, 1);
    hdr.dst = net::Ipv4Addr(10, 0, 0, 2);
    std::array<std::uint8_t, net::Ipv4Header::kSize> buf{};
    return rate(n, [&](std::uint64_t) {
      hdr.identification++;
      hdr.encode(buf);
      g_sink = net::Ipv4Header::verify(buf);
    });
  });

  for (const std::size_t bytes : {std::size_t{64}, std::size_t{1500}}) {
    std::vector<std::uint8_t> data(bytes);
    util::Rng rng(1);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
    h.run_case("checksum_" + std::to_string(bytes), "ops/s", true, [&] {
      return rate(n / 4, [&](std::uint64_t) {
        g_sink = net::internet_checksum(data);
      });
    });
  }

  h.run_case("vxlan_encap_decap", "ops/s", true, [&] {
    const net::FlowKey flow{net::Ipv4Addr(10, 0, 1, 2),
                            net::Ipv4Addr(10, 0, 1, 3), 40000, 5001,
                            net::Ipv4Header::kProtoTcp};
    return rate(n / 16, [&](std::uint64_t) {
      auto pkt = net::make_tcp_segment(flow, 0, 1448);
      net::vxlan_encap(*pkt, net::Ipv4Addr(192, 168, 1, 2),
                       net::Ipv4Addr(192, 168, 1, 3), 42);
      g_sink = net::vxlan_decap(*pkt).ok;
    });
  });

  h.run_case("packet_make.heap", "ops/s", true, [&] {
    const net::FlowKey flow{net::Ipv4Addr(10, 0, 1, 2),
                            net::Ipv4Addr(10, 0, 1, 3), 40000, 5001,
                            net::Ipv4Header::kProtoTcp};
    return rate(n / 16, [&](std::uint64_t i) {
      auto pkt = net::make_tcp_segment(flow, i, 1448);
      g_sink = pkt->wire_len();
    });
  });

  h.run_case("packet_make.pooled", "ops/s", true, [&] {
    const net::FlowKey flow{net::Ipv4Addr(10, 0, 1, 2),
                            net::Ipv4Addr(10, 0, 1, 3), 40000, 5001,
                            net::Ipv4Header::kProtoTcp};
    rt::PacketPool pool({.slabs = 64});
    return rate(n / 16, [&](std::uint64_t i) {
      auto pkt = net::make_tcp_segment(pool.acquire(), flow, i, 1448);
      g_sink = pkt->wire_len();
    });
  });

  h.run_case("rxring_push_pop", "ops/s", true, [&] {
    net::RxRing ring(4096);
    const net::FlowKey flow{net::Ipv4Addr(1, 1, 1, 1),
                            net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                            net::Ipv4Header::kProtoUdp};
    return rate(n / 16, [&](std::uint64_t) {
      ring.push(net::make_udp_datagram(flow, 100));
      auto p = ring.pop();
      g_sink = p ? 1 : 0;
    });
  });

  h.run_case("gro_merge44", "segs/s", true, [&] {
    const net::FlowKey flow{net::Ipv4Addr(1, 1, 1, 1),
                            net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                            net::Ipv4Header::kProtoTcp};
    const std::uint64_t rounds = n / 512;
    const double t0 = now_seconds();
    for (std::uint64_t r = 0; r < rounds; ++r) {
      net::GroEngine gro({.max_segs = 44});
      int emitted = 0;
      auto sink = [&emitted](net::PacketPtr) { ++emitted; };
      for (int i = 0; i < 44; ++i) {
        auto p = net::make_tcp_segment(
            flow, static_cast<std::uint64_t>(i) * 1448, 1448);
        p->flow_id = 1;
        gro.add(std::move(p), sink);
      }
      gro.flush(sink);
      g_sink = static_cast<std::uint64_t>(emitted);
    }
    return static_cast<double>(rounds * 44) / (now_seconds() - t0);
  });

  h.run_case("histogram_record", "ops/s", true, [&] {
    util::Histogram hist;
    util::Rng rng(2);
    const double r = rate(n, [&](std::uint64_t) {
      hist.record(rng.uniform(10'000'000));
    });
    g_sink = static_cast<std::uint64_t>(hist.p99());
    return r;
  });

  for (const std::uint32_t batch : {8u, 256u}) {
    h.run_case("batch_assign_" + std::to_string(batch), "ops/s", true, [&] {
      core::MflowConfig cfg;
      cfg.batch_size = batch;
      core::BatchAssigner assigner(cfg);
      return rate(n, [&](std::uint64_t) {
        g_sink = static_cast<std::uint64_t>(assigner.assign(1, 1).target_core);
      });
    });
  }

  // One round deposits 1024 packets cut into `batch`-sized micro-flows and
  // drains them in order; only the deposit/merge cycle is timed.
  for (const std::uint32_t batch : {8u, 64u, 256u}) {
    h.run_case("reassembler_cycle_" + std::to_string(batch), "pkts/s", true,
               [&] {
      constexpr std::uint32_t kPkts = 1024;
      const stack::CostModel costs;
      const net::FlowKey flow{net::Ipv4Addr(1, 1, 1, 1),
                              net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                              net::Ipv4Header::kProtoUdp};
      const std::uint64_t rounds = std::max<std::uint64_t>(1, n / 2048);
      double timed = 0.0;
      for (std::uint64_t r = 0; r < rounds; ++r) {
        core::Reassembler ra(costs);
        std::vector<net::PacketPtr> pkts;
        std::uint64_t b = 0;
        for (std::uint32_t i = 0; i < kPkts; ++i) {
          if (i % batch == 0) ra.note_batch_open(1, ++b);
          ra.note_dispatch(1, b, 1);
          auto p = net::make_udp_datagram(flow, 100);
          p->flow_id = 1;
          p->wire_seq = i;
          p->microflow_id = b;
          pkts.push_back(std::move(p));
        }
        const double t0 = now_seconds();
        for (auto& p : pkts) ra.deposit(std::move(p), 2);
        std::uint64_t merged = 0;
        while (ra.pop_ready()) ++merged;
        timed += now_seconds() - t0;
        g_sink = merged;
      }
      return static_cast<double>(rounds * kPkts) / timed;
    });
  }

  h.run_case("sim_event_loop", "events/s", true, [&] {
    constexpr int kEvents = 1000;
    const std::uint64_t rounds = std::max<std::uint64_t>(1, n / 2000);
    const double t0 = now_seconds();
    for (std::uint64_t r = 0; r < rounds; ++r) {
      sim::Simulator sim;
      std::uint64_t fired = 0;
      for (int i = 0; i < kEvents; ++i) sim.at(i, [&fired] { ++fired; });
      sim.run();
      g_sink = fired;
    }
    return static_cast<double>(rounds * kEvents) / (now_seconds() - t0);
  });

  h.finish(std::cout);
  return 0;
}
