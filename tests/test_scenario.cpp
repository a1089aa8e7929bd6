// End-to-end scenario tests: every mode runs, produces traffic, and the
// orderings the paper reports hold in the simulation.
#include <gtest/gtest.h>

#include "experiment/scenario.hpp"

using namespace mflow;
using exp::Mode;

namespace {

exp::ScenarioResult quick(Mode mode, std::uint8_t proto,
                          std::uint32_t msg = 65536) {
  exp::ScenarioConfig cfg;
  cfg.mode = mode;
  cfg.protocol = proto;
  cfg.message_size = msg;
  cfg.warmup = sim::ms(5);
  cfg.measure = sim::ms(15);
  return exp::run_scenario(cfg);
}

}  // namespace

TEST(Scenario, EveryModeDeliversTcpTraffic) {
  for (Mode m : exp::evaluation_modes()) {
    const auto r = quick(m, net::Ipv4Header::kProtoTcp);
    EXPECT_GT(r.goodput_gbps, 1.0) << r.mode;
    EXPECT_GT(r.messages, 0u) << r.mode;
  }
}

TEST(Scenario, EveryModeDeliversUdpTraffic) {
  for (Mode m : exp::evaluation_modes()) {
    const auto r = quick(m, net::Ipv4Header::kProtoUdp);
    EXPECT_GT(r.goodput_gbps, 0.5) << r.mode;
  }
}

TEST(Scenario, TcpOrderingAcrossModes64KB) {
  const auto nat = quick(Mode::kNative, net::Ipv4Header::kProtoTcp);
  const auto van = quick(Mode::kVanilla, net::Ipv4Header::kProtoTcp);
  const auto rps = quick(Mode::kRps, net::Ipv4Header::kProtoTcp);
  const auto mfl = quick(Mode::kMflow, net::Ipv4Header::kProtoTcp);
  EXPECT_LT(van.goodput_gbps, nat.goodput_gbps);   // overlay tax
  EXPECT_GT(rps.goodput_gbps, van.goodput_gbps);   // RPS helps a bit
  EXPECT_GT(mfl.goodput_gbps, van.goodput_gbps);   // MFLOW helps a lot
  EXPECT_GT(mfl.goodput_gbps, nat.goodput_gbps);   // even beats native
}

TEST(Scenario, DeterministicAcrossRuns) {
  const auto a = quick(Mode::kMflow, net::Ipv4Header::kProtoTcp);
  const auto b = quick(Mode::kMflow, net::Ipv4Header::kProtoTcp);
  EXPECT_DOUBLE_EQ(a.goodput_gbps, b.goodput_gbps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.ooo_arrivals, b.ooo_arrivals);
}

TEST(Scenario, MflowUsesSplittingCores) {
  const auto r = quick(Mode::kMflow, net::Ipv4Header::kProtoUdp);
  // Device scaling: cores 2 and 3 (the splitting cores) must be doing work.
  EXPECT_GT(r.cores.at(2).total, 0.10);
  EXPECT_GT(r.cores.at(3).total, 0.10);
  EXPECT_GT(r.batches_merged, 0u);
}

TEST(Scenario, VanillaSingleCoreBottleneck) {
  const auto r = quick(Mode::kVanilla, net::Ipv4Header::kProtoUdp);
  // All processing lands on core 1, which saturates.
  EXPECT_GT(r.cores.at(1).total, 0.9);
  EXPECT_LT(r.cores.at(2).total, 0.1);
}

TEST(Scenario, SmallMessagesClientBound) {
  // 16B TCP: the sender is the bottleneck, so all modes look alike.
  const auto van = quick(Mode::kVanilla, net::Ipv4Header::kProtoTcp, 16);
  const auto mfl = quick(Mode::kMflow, net::Ipv4Header::kProtoTcp, 16);
  EXPECT_NEAR(mfl.goodput_gbps / van.goodput_gbps, 1.0, 0.25);
}
