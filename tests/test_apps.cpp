// Application workload models: web serving (Fig 11) and data caching
// (Fig 13) — wiring sanity, metric consistency, and mode ordering.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "experiment/datacaching.hpp"
#include "experiment/webserving.hpp"

using namespace mflow;

namespace {

exp::WebservingResult quick_web(exp::Mode mode) {
  exp::WebservingConfig cfg;
  cfg.mode = mode;
  cfg.users = 100;
  cfg.warmup = sim::ms(8);
  cfg.measure = sim::ms(20);
  return exp::run_webserving(cfg);
}

}  // namespace

TEST(Webserving, OperationsCompleteAndBalance) {
  const auto res = quick_web(exp::Mode::kMflow);
  EXPECT_GT(res.ops_per_sec, 1000.0);
  EXPECT_GT(res.success_per_sec, 0.0);
  EXPECT_LE(res.success_per_sec, res.ops_per_sec);
  EXPECT_GT(res.backend_goodput_gbps, 1.0);
  // Every configured op type sees traffic with 100 users.
  for (const auto& op : res.per_op) {
    EXPECT_GT(op.attempted, 0u) << op.name;
    EXPECT_LE(op.succeeded, op.completed) << op.name;
    EXPECT_LE(op.completed, op.attempted) << op.name;
  }
}

TEST(Webserving, ResponseNeverBelowServiceFloor) {
  const auto res = quick_web(exp::Mode::kMflow);
  exp::WebservingConfig cfg;  // defaults: service 120us + backend hop 50us
  for (const auto& op : res.per_op) {
    if (op.completed == 0) continue;
    EXPECT_GT(op.response_us.min(),
              sim::to_us(cfg.service_time + cfg.backend_delay))
        << op.name;
  }
}

TEST(Webserving, MflowBeatsVanillaUnderLoad) {
  // 100 users don't saturate the stack; the Fig-11 separation needs the
  // full 200-user load.
  auto run = [](exp::Mode mode) {
    exp::WebservingConfig cfg;
    cfg.mode = mode;
    cfg.users = 200;
    cfg.warmup = sim::ms(10);
    cfg.measure = sim::ms(25);
    return exp::run_webserving(cfg);
  };
  const auto van = run(exp::Mode::kVanilla);
  const auto mfl = run(exp::Mode::kMflow);
  EXPECT_GT(mfl.success_per_sec, van.success_per_sec * 1.3);
  EXPECT_LT(mfl.avg_response_us, van.avg_response_us);
}

TEST(Webserving, Deterministic) {
  const auto a = quick_web(exp::Mode::kVanilla);
  const auto b = quick_web(exp::Mode::kVanilla);
  EXPECT_DOUBLE_EQ(a.success_per_sec, b.success_per_sec);
  EXPECT_DOUBLE_EQ(a.avg_response_us, b.avg_response_us);
}

TEST(Webserving, OpMixWeightsSumToOne) {
  double total = 0;
  for (const auto& op : exp::default_web_ops()) total += op.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

namespace {
exp::DataCachingResult quick_cache(exp::Mode mode, int clients) {
  exp::DataCachingConfig cfg;
  cfg.mode = mode;
  cfg.clients = clients;
  cfg.warmup = sim::ms(5);
  cfg.measure = sim::ms(15);
  return exp::run_datacaching(cfg);
}
}  // namespace

TEST(DataCaching, AchievesOfferedRate) {
  const auto res = quick_cache(exp::Mode::kMflow, 10);
  // 10 clients x 260k req/s, within 10%.
  EXPECT_NEAR(res.achieved_rps, 1.2e6, 1.2e5);
  EXPECT_GT(res.avg_latency_us, sim::to_us(sim::us(12)));  // service floor
  EXPECT_GE(res.p99_latency_us, res.p50_latency_us);
}

TEST(DataCaching, TailShrinksWithMflowAtTenClients) {
  const auto van = quick_cache(exp::Mode::kVanilla, 10);
  const auto mfl = quick_cache(exp::Mode::kMflow, 10);
  EXPECT_LT(mfl.p99_latency_us, van.p99_latency_us);
  EXPECT_LT(mfl.avg_latency_us, van.avg_latency_us);
}

TEST(DataCaching, MoreClientsMoreStressForVanilla) {
  const auto one = quick_cache(exp::Mode::kVanilla, 1);
  const auto ten = quick_cache(exp::Mode::kVanilla, 10);
  EXPECT_GT(ten.p99_latency_us, one.p99_latency_us * 0.9);
}

// ---- pinned results ------------------------------------------------------------
//
// The tests above compare runs of the same build. These pin exact result bits
// of fixed configs, so a change to the request/response TX path (the
// StreamInjector and its two WireLinks) or to event order cannot pass
// unnoticed. A change that moves them changes the model, and must say so and
// re-record them.

namespace {
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
}  // namespace

TEST(Webserving, PinnedResults) {
  struct Pin {
    exp::Mode mode;
    std::uint64_t ops_per_sec, success_fraction, avg_response_us,
        backend_goodput_gbps;
  };
  for (const Pin& pin :
       {Pin{exp::Mode::kVanilla, 0x40f685a000000000, 0x3febb4cf2e1d7b33,
            0x40895073430ad49f, 0x404068986fcdee35},
        Pin{exp::Mode::kMflow, 0x40f834e000000000, 0x3feb7da2f44e9dbb,
            0x40873f3f3b183514, 0x40422d8a7cc6243c}}) {
    const auto res = quick_web(pin.mode);
    EXPECT_EQ(bits(res.ops_per_sec), pin.ops_per_sec)
        << res.mode << ": " << res.ops_per_sec;
    EXPECT_EQ(bits(res.success_fraction), pin.success_fraction)
        << res.mode << ": " << res.success_fraction;
    EXPECT_EQ(bits(res.avg_response_us), pin.avg_response_us)
        << res.mode << ": " << res.avg_response_us;
    EXPECT_EQ(bits(res.backend_goodput_gbps), pin.backend_goodput_gbps)
        << res.mode << ": " << res.backend_goodput_gbps;
  }
}

TEST(DataCaching, PinnedResults) {
  struct Pin {
    exp::Mode mode;
    std::uint64_t achieved_rps, p50_latency_us, p99_latency_us;
  };
  for (const Pin& pin :
       {Pin{exp::Mode::kVanilla, 0x41324ad000000000, 0x4034000000000000,
            0x405c5810624dd2f2},
        Pin{exp::Mode::kMflow, 0x41324f8000000000, 0x403420c49ba5e354,
            0x403ca3d70a3d70a4}}) {
    const auto res = quick_cache(pin.mode, 10);
    EXPECT_EQ(bits(res.achieved_rps), pin.achieved_rps)
        << res.mode << ": " << res.achieved_rps;
    EXPECT_EQ(bits(res.p50_latency_us), pin.p50_latency_us)
        << res.mode << ": " << res.p50_latency_us;
    EXPECT_EQ(bits(res.p99_latency_us), pin.p99_latency_us)
        << res.mode << ": " << res.p99_latency_us;
  }
}
