// Timed calls into each layer's public functions, on inputs shaped like the
// workloads' (traced run only). Each probe repeats its body until one
// repetition takes long enough to time, then reports the median of several
// repetitions as time per operation.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "control/flowtable.hpp"
#include "control/policy.hpp"
#include "experiment/scenario.hpp"
#include "net/packet.hpp"
#include "nf/nf.hpp"
#include "perfbench.hpp"
#include "rt/pool.hpp"
#include "rt/reassembler.hpp"
#include "rt/spsc_ring.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace mflow;

namespace {

constexpr std::size_t kChunk = 128;  // the engine's ring chunk
constexpr std::uint32_t kBatch = 256;
constexpr std::uint32_t kVni = 42;
constexpr double kMinRepSeconds = 0.02;
constexpr int kReps = 7;

/// `body(iters)` performs `iters` iterations of `ops_per_iter` operations
/// each. Returns the median ns per operation over kReps repetitions.
template <typename Body>
double ns_per_op(Body&& body, double ops_per_iter) {
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    body(iters);
    if (seconds_since(t0) >= kMinRepSeconds || iters >= (1ull << 40)) break;
    iters *= 2;
  }
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    body(iters);
    ns.push_back(seconds_since(t0) * 1e9 /
                 (static_cast<double>(iters) * ops_per_iter));
  }
  return quantile(ns, 0.5);
}

/// The rt overlay generator's inner flow `fidx`.
net::FlowKey inner_flow(std::uint64_t fidx) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                      static_cast<std::uint16_t>(40000 + (fidx & 0x3FFF)),
                      5000, net::Ipv4Header::kProtoUdp};
}

net::PacketPtr encapsulated(net::PacketPtr slab, std::uint64_t fidx) {
  auto p = net::make_udp_datagram(std::move(slab), inner_flow(fidx),
                                  net::kTcpMss);
  net::vxlan_encap(*p, net::Ipv4Addr(192, 168, 1, 2),
                   net::Ipv4Addr(192, 168, 1, 3), kVni);
  p->flow_id = fidx + 1;
  return p;
}

// --- rt ---------------------------------------------------------------------

double ring_chunk_ns(rt::PacketPool& pool) {
  rt::SpscRing<rt::RtPacket> ring(1024);
  std::vector<rt::RtPacket> a(kChunk), b(kChunk);
  for (std::size_t i = 0; i < kChunk; ++i) a[i].skb = pool.acquire();
  return ns_per_op(
      [&](std::uint64_t iters) {
        for (std::uint64_t it = 0; it < iters; ++it) {
          const std::size_t pushed = ring.try_push_batch(a.data(), kChunk);
          const std::size_t popped = ring.try_pop_batch(b.data(), pushed);
          a.swap(b);
          if (popped != kChunk) std::abort();
        }
      },
      1.0);
}

double pool_cycle_ns(rt::PacketPool& pool) {
  return ns_per_op(
      [&](std::uint64_t iters) {
        for (std::uint64_t it = 0; it < iters; ++it) {
          net::PacketPtr p = pool.acquire();
          if (!p) std::abort();
          p.reset();
        }
      },
      1.0);
}

double merge_pkt_ns(rt::PacketPool& pool) {
  constexpr std::size_t kWorkers = 2;
  rt::RtReassembler merger(kWorkers, 1024);
  std::vector<rt::RtPacket> stage(kBatch), out(kBatch);
  std::uint64_t seq = 0, batch = 0;
  const auto refill = [&] {
    for (auto& p : stage) p.skb = pool.acquire();
  };
  // One micro-flow into its round-robin owner's ring, in engine chunks.
  const auto deposit_next = [&] {
    ++batch;
    for (auto& p : stage) {
      p.seq = seq++;
      p.batch = batch;
    }
    for (std::size_t off = 0; off < kBatch; off += kChunk)
      if (merger.deposit_batch((batch - 1) % kWorkers, stage.data() + off,
                               kChunk) != kChunk)
        std::abort();
  };
  // The merge leaves a micro-flow only once its owner's ring shows a later
  // one, so the probe keeps kWorkers micro-flows deposited ahead of the one
  // it pops, as the engine's workers do.
  for (std::size_t w = 0; w < kWorkers; ++w) {
    refill();
    deposit_next();
  }
  refill();
  return ns_per_op(
      [&](std::uint64_t iters) {
        for (std::uint64_t it = 0; it < iters; ++it) {
          deposit_next();
          std::size_t got = 0;
          while (got < kBatch)
            got += merger.pop_ready_batch(out.data() + got,
                                          std::min(kChunk, kBatch - got));
          stage.swap(out);
        }
      },
      kBatch);
}

// --- net, nf, control ---------------------------------------------------------

double vxlan_decap_ns(rt::PacketPool& pool) {
  std::vector<net::PacketPtr> pkts(kBatch);
  for (std::size_t i = 0; i < pkts.size(); ++i)
    pkts[i] = encapsulated(pool.acquire(), i);
  // Decap is destructive, so each round re-encapsulates untimed and times
  // only the decap pass.
  const auto round = [&] {
    for (std::size_t i = 0; i < pkts.size(); ++i)
      pkts[i] = encapsulated(std::move(pkts[i]), i);
    const auto t0 = Clock::now();
    for (auto& p : pkts)
      if (!net::vxlan_splice_decap(*p, kVni)) std::abort();
    return seconds_since(t0);
  };
  std::vector<double> rep;
  for (int r = 0; r < kReps; ++r) {
    double spent = 0;
    std::uint64_t decaps = 0;
    while (spent < kMinRepSeconds) {
      spent += round();
      decaps += pkts.size();
    }
    rep.push_back(spent * 1e9 / static_cast<double>(decaps));
  }
  return quantile(rep, 0.5);
}

double nf_chain_ns(const nf::ChainConfig& cfg, std::size_t flows) {
  const nf::MaglevTable maglev =
      nf::MaglevTable::build(cfg.lb_backends, cfg.lb_table_size, cfg.lb_seed);
  std::vector<nf::PacketView> views(flows);
  for (std::size_t f = 0; f < flows; ++f) {
    views[f].flow = inner_flow(f);
    views[f].wire_bytes = net::kTcpMss + 42;
  }
  std::vector<nf::FlowState> states(flows);
  std::uint64_t run = 0;
  return ns_per_op(
      [&](std::uint64_t iters) {
        for (std::uint64_t it = 0; it < iters; ++it, ++run) {
          const std::size_t f = run % flows;
          for (std::uint32_t i = 0; i < kBatch; ++i)
            for (nf::Kind k : cfg.chain)
              nf::apply(cfg, &maglev, k, views[f], states[f]);
        }
      },
      kBatch);
}

double nat_rewrite_ns(const nf::ChainConfig& cfg, rt::PacketPool& pool) {
  net::PacketPtr pkt =
      net::make_udp_datagram(pool.acquire(), inner_flow(7), net::kTcpMss);
  const std::uint16_t port = nf::nat_port_for(cfg, inner_flow(7));
  return ns_per_op(
      [&](std::uint64_t iters) {
        for (std::uint64_t it = 0; it < iters; ++it)
          if (!nf::nat_rewrite(cfg, *pkt, port)) std::abort();
      },
      1.0);
}

/// The rt flow table's shape (8 shards, 16k entries) holding `live` flows.
void flowtable_ns(std::size_t live, double& touch_ns, double& upsert_ns) {
  control::FlowTable<nf::FlowState> table(
      control::FlowTableParams{8, 1 << 14, 0});
  sim::Time now = 1;
  for (std::size_t f = 1; f <= live; ++f) table.upsert(f, now);
  std::uint64_t k = 0;
  touch_ns = ns_per_op(
      [&](std::uint64_t iters) {
        for (std::uint64_t it = 0; it < iters; ++it, ++k)
          if (!table.touch(k % live + 1, ++now)) std::abort();
      },
      1.0);
  upsert_ns = ns_per_op(
      [&](std::uint64_t iters) {
        for (std::uint64_t it = 0; it < iters; ++it, ++k)
          table.upsert(k % live + 1, now).fw.segs += 1;
      },
      1.0);
}

// --- sim, control -------------------------------------------------------------

/// Push + pop at a steady queue depth, each pop running its event, as
/// Simulator::run_until does.
double event_queue_ns(std::size_t depth, std::uint64_t seed) {
  sim::EventQueue q;
  util::Rng rng(seed);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i)
    q.push(static_cast<sim::Time>(rng.uniform(100'000)), [&fired] { ++fired; });
  const double ns = ns_per_op(
      [&](std::uint64_t iters) {
        for (std::uint64_t it = 0; it < iters; ++it) {
          auto [when, fn] = q.pop();
          fn();
          q.push(when + static_cast<sim::Time>(rng.uniform(100'000)),
                 [&fired] { ++fired; });
        }
      },
      1.0);
  if (fired == 0) std::abort();
  return ns;
}

struct NullTarget final : control::CapacityTarget {
  void set_flow_degree(net::FlowId, std::uint32_t) override {}
  std::uint32_t max_degree() const override { return 4; }
};

/// Controller::tick fed by the churn source of `plane`, timed per tick once
/// the live population has reached steady state.
double controller_tick_us(const exp::ScenarioConfig::ControlPlane& plane) {
  sim::Time now = 0;
  const auto source = [&] {
    std::vector<control::Controller::FlowTotals> v;
    exp::append_churn_totals(plane.churn, now, v);
    return v;
  };
  NullTarget target;
  control::Controller ctl(plane.params, source, &target);
  for (now = plane.interval; now < sim::ms(10); now += plane.interval)
    ctl.tick(now);
  std::vector<double> us;
  const auto t_end = Clock::now() + std::chrono::milliseconds(200);
  while (Clock::now() < t_end) {
    now += plane.interval;
    const auto t0 = Clock::now();
    ctl.tick(now);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return quantile(us, 0.5);
}

}  // namespace

void time_layers(const Options& opt, SpanLog& spans, Result& out) {
  auto& v = out.values;
  rt::PacketPool pool({.slabs = 4096});
  // Inputs take the shapes of the workloads that load each layer: the NF
  // chain of rt-overlay-nf, the control plane of des-control-churn.
  Options shape = opt;
  shape.negative_control = false;
  shape.workload = "rt-overlay-nf";
  const nf::ChainConfig chain = rt_config(shape).nf.chain;
  shape.workload = "des-control-churn";
  const exp::ScenarioConfig churn = des_config(shape);
  const auto live_it = v.find("control.live_flows");
  const std::size_t live =
      live_it != v.end() && live_it->second >= 1
          ? static_cast<std::size_t>(live_it->second)
          : 1024;
  {
    SpanLog::Scope s(spans, "rt.spsc_ring");
    v["rt.ring.chunk_ns"] = ring_chunk_ns(pool);
  }
  {
    SpanLog::Scope s(spans, "rt.pool");
    v["rt.pool.cycle_ns"] = pool_cycle_ns(pool);
  }
  {
    SpanLog::Scope s(spans, "rt.reassembler");
    v["rt.merge.pkt_ns"] = merge_pkt_ns(pool);
  }
  {
    SpanLog::Scope s(spans, "net.vxlan_splice_decap");
    v["net.vxlan_decap_ns"] = vxlan_decap_ns(pool);
  }
  {
    SpanLog::Scope s(spans, "nf.apply");
    v["nf.chain_ns_per_pkt"] = nf_chain_ns(chain, 1024);
  }
  {
    SpanLog::Scope s(spans, "nf.nat_rewrite");
    v["nf.nat_rewrite_ns"] = nat_rewrite_ns(chain, pool);
  }
  {
    SpanLog::Scope s(spans, "control.flowtable");
    flowtable_ns(live, v["control.flowtable.touch_ns"],
                 v["control.flowtable.upsert_ns"]);
  }
  {
    // run_scenario does not expose pending_events; the depth is the
    // workloads' TCP window in segments (ScenarioConfig::window_bytes),
    // which bounds the packets in flight.
    SpanLog::Scope s(spans, "sim.event_queue");
    const std::size_t depth = churn.window_bytes / net::kTcpMss;
    v["sim.queue.push_pop_ns"] = event_queue_ns(depth, opt.seed);
  }
  {
    SpanLog::Scope s(spans, "control.controller.tick");
    v["control.tick_us"] = controller_tick_us(churn.control);
  }
}

}  // namespace perfbench
