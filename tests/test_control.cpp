// Dynamic flow control plane: monitor -> classifier -> scaler units, the
// rescale-drain protocol at BOTH engines' reassemblers, and live
// elephant<->mouse rescales end to end in the DES scenario. The binary links
// the counting global operator new (alloc_counter.hpp), so the control tick's
// steady-state allocation bound can diff the counter across ticks.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "alloc_counter.hpp"
#include "control/classifier.hpp"
#include "control/flowtable.hpp"
#include "control/monitor.hpp"
#include "control/policy.hpp"
#include "core/reassembler.hpp"
#include "core/splitter.hpp"
#include "experiment/scenario.hpp"
#include "rt/reassembler.hpp"

using namespace mflow;
using control::FlowClass;
using Totals = std::vector<control::Controller::FlowTotals>;

// --- RateWindow --------------------------------------------------------------

TEST(RateWindow, RateZeroUntilTwoSamples) {
  const control::MonitorParams mp;
  control::RateWindow w;
  EXPECT_DOUBLE_EQ(w.rate_pps(), 0.0);
  w.record(1000, 1'500'000, 0, mp);
  EXPECT_DOUBLE_EQ(w.rate_pps(), 0.0);
  w.record(2000, 3'000'000, sim::ms(1), mp);
  // 1000 segs / 1ms, 1.5MB / 1ms * 8.
  EXPECT_DOUBLE_EQ(w.rate_pps(), 1e6);
  EXPECT_DOUBLE_EQ(w.rate_bps(), 1.5e6 * 8.0 * 1000.0);
}

TEST(RateWindow, SlidingWindowForgetsOldRate) {
  const control::MonitorParams mp{sim::ms(1), 32};
  control::RateWindow w;
  // 100 segs per 250us for 2ms, then the flow goes silent.
  std::uint64_t total = 0;
  sim::Time t = 0;
  for (int i = 0; i < 8; ++i) {
    total += 100;
    t += sim::us(250);
    w.record(total, total * 1500, t, mp);
  }
  EXPECT_NEAR(w.rate_pps(), 400'000.0, 1.0);
  // Flat samples push the active burst out of the window: rate decays to 0.
  for (int i = 0; i < 8; ++i) {
    t += sim::us(250);
    w.record(total, total * 1500, t, mp);
  }
  EXPECT_DOUBLE_EQ(w.rate_pps(), 0.0);
  EXPECT_EQ(w.total_segs(), total);
}

// The retained sample span must never exceed the window. The old trim
// compared against the second sample, keeping up to window + one interval —
// with a front-loaded burst that inflates the measured rate and delays
// demotion.
TEST(RateWindow, WindowTrimBoundsRetainedSpan) {
  const control::MonitorParams mp{sim::ms(1), 32};
  control::RateWindow w;
  // Burst of 1000 segs in the first interval, then 100 per 250us.
  w.record(0, 0, 0, mp);
  std::uint64_t total = 1000;
  for (int i = 0; i < 5; ++i) {
    w.record(total, total * 1500, sim::us(250) * (i + 1), mp);
    total += 100;
  }
  // Retained samples must span [250us, 1250us]: 400 segs / 1ms. A trim
  // that keeps the t=0 sample reports (1400 - 0) / 1.25ms = 1.12M.
  EXPECT_DOUBLE_EQ(w.rate_pps(), 400'000.0);
}

// --- Classifier hysteresis ---------------------------------------------------

namespace {

control::ClassifierParams band_params() {
  control::ClassifierParams p;
  p.promote_pps = 100'000.0;
  p.demote_pps = 50'000.0;
  p.dwell = sim::us(200);
  return p;
}

/// One flow's hysteresis stepped as the Controller steps it, counting the
/// committed transitions the Controller's transitions() would count.
struct OneFlowClassifier {
  control::ClassifierParams params = band_params();
  control::Hysteresis state;
  std::uint64_t transitions = 0;

  FlowClass update(double rate_pps, sim::Time now) {
    if (state.update(rate_pps, now, params)) ++transitions;
    return state.committed;
  }
};

}  // namespace

TEST(Hysteresis, PromotionRequiresDwell) {
  OneFlowClassifier cl;
  EXPECT_EQ(cl.update(200'000.0, sim::us(0)), FlowClass::kMouse);
  EXPECT_EQ(cl.update(200'000.0, sim::us(100)), FlowClass::kMouse);
  EXPECT_EQ(cl.update(200'000.0, sim::us(200)), FlowClass::kElephant);
  EXPECT_EQ(cl.transitions, 1u);
}

TEST(Hysteresis, BandOscillationNeverFlaps) {
  OneFlowClassifier cl;
  cl.update(200'000.0, 0);
  cl.update(200'000.0, sim::us(200));
  ASSERT_EQ(cl.state.committed, FlowClass::kElephant);
  // Rate bouncing INSIDE the band (above demote, below promote) argues for
  // the committed state: no candidate ever forms, no flap.
  sim::Time t = sim::us(200);
  for (int i = 0; i < 50; ++i) {
    t += sim::us(100);
    cl.update(i % 2 == 0 ? 60'000.0 : 95'000.0, t);
    EXPECT_EQ(cl.state.committed, FlowClass::kElephant);
  }
  EXPECT_EQ(cl.transitions, 1u);
}

TEST(Hysteresis, ThresholdOscillationFasterThanDwellNeverFlaps) {
  OneFlowClassifier cl;
  cl.update(200'000.0, 0);
  cl.update(200'000.0, sim::us(200));
  ASSERT_EQ(cl.state.committed, FlowClass::kElephant);
  // Rate alternating ACROSS the whole band every 100us: each demote
  // candidate is cancelled before the 200us dwell elapses.
  sim::Time t = sim::us(200);
  for (int i = 0; i < 50; ++i) {
    t += sim::us(100);
    cl.update(i % 2 == 0 ? 40'000.0 : 200'000.0, t);
    EXPECT_EQ(cl.state.committed, FlowClass::kElephant);
  }
  EXPECT_EQ(cl.transitions, 1u);
}

TEST(Hysteresis, SustainedLowRateDemotes) {
  OneFlowClassifier cl;
  cl.update(200'000.0, 0);
  cl.update(200'000.0, sim::us(200));
  ASSERT_EQ(cl.state.committed, FlowClass::kElephant);
  EXPECT_EQ(cl.update(10'000.0, sim::us(300)), FlowClass::kElephant);
  EXPECT_EQ(cl.update(10'000.0, sim::us(500)), FlowClass::kMouse);
  EXPECT_EQ(cl.transitions, 2u);
}

// --- ScalingPolicy -----------------------------------------------------------

TEST(ScalingPolicy, MiceGetDegreeZero) {
  control::ScalingPolicy pol;
  EXPECT_EQ(pol.degree_for(FlowClass::kMouse, 1e9, 4), 0u);
}

TEST(ScalingPolicy, ElephantDegreeTracksRate) {
  control::ScalingParams p;
  p.per_core_pps = 100'000.0;
  control::ScalingPolicy pol(p);
  EXPECT_EQ(pol.degree_for(FlowClass::kElephant, 50'000.0, 4), 1u);
  EXPECT_EQ(pol.degree_for(FlowClass::kElephant, 250'000.0, 4), 3u);
  EXPECT_EQ(pol.degree_for(FlowClass::kElephant, 1e9, 4), 4u);  // clamped
}

TEST(ScalingPolicy, MinElephantDegreeFloors) {
  control::ScalingParams p;
  p.per_core_pps = 100'000.0;
  p.min_elephant_degree = 2;
  control::ScalingPolicy pol(p);
  EXPECT_EQ(pol.degree_for(FlowClass::kElephant, 10'000.0, 4), 2u);
  EXPECT_EQ(pol.degree_for(FlowClass::kElephant, 10'000.0, 1), 1u);
}

TEST(ScalingPolicy, ShrinkDeadbandHoldsDegreeNearBoundary) {
  control::ScalingParams p;
  p.per_core_pps = 100'000.0;
  p.shrink_margin = 0.8;
  control::ScalingPolicy pol(p);
  // want = 3 but 290k > 3*100k*0.8: not enough headroom, hold 4.
  EXPECT_EQ(pol.degree_for(FlowClass::kElephant, 290'000.0, 4, 4), 4u);
  // 230k fits 3 lanes with margin: shrink commits.
  EXPECT_EQ(pol.degree_for(FlowClass::kElephant, 230'000.0, 4, 4), 3u);
  // Growing is never deadbanded.
  EXPECT_EQ(pol.degree_for(FlowClass::kElephant, 350'000.0, 4, 2), 4u);
}

// --- Controller loop ---------------------------------------------------------

namespace {

struct FakeTarget final : control::CapacityTarget {
  std::vector<std::pair<net::FlowId, std::uint32_t>> calls;
  void set_flow_degree(net::FlowId flow, std::uint32_t degree) override {
    calls.emplace_back(flow, degree);
  }
  std::uint32_t max_degree() const override { return 4; }
};

}  // namespace

TEST(Controller, PromotesScalesAndDemotes) {
  FakeTarget target;
  // Flow 1 at 500k pps, flow 2 at 1k pps; flow 1 goes silent at 2ms.
  std::uint64_t segs1 = 0, segs2 = 0;
  control::ControllerParams params;  // defaults: 1ms window, 200us dwell
  control::Controller ctl(
      params,
      [&](Totals& out) {
        out = {{1, segs1, segs1 * 1500}, {2, segs2, segs2 * 1500}};
      },
      &target);

  for (sim::Time t = sim::us(100); t <= sim::ms(5); t += sim::us(100)) {
    if (t <= sim::ms(2)) segs1 += 50;  // 500k pps until the throttle
    segs2 += 1;                        // 10k pps mouse throughout
    ctl.tick(t);
  }

  // Flow 1: promoted (500k/150k -> 4 lanes), then demoted back to 0.
  ASSERT_GE(ctl.history().size(), 2u);
  EXPECT_EQ(ctl.history().front().flow, 1u);
  EXPECT_EQ(ctl.history().front().old_degree, 0u);
  EXPECT_EQ(ctl.history().front().new_degree, 4u);
  EXPECT_EQ(ctl.history().back().new_degree, 0u);
  EXPECT_EQ(ctl.degree_of(1), 0u);
  EXPECT_EQ(ctl.elephants(), 0u);
  // The mouse was never retargeted: no call mentions flow 2, and no-op
  // ticks emit nothing (history has exactly the committed changes).
  for (const auto& [flow, degree] : target.calls) EXPECT_EQ(flow, 1u);
  EXPECT_EQ(target.calls.size(), ctl.history().size());
}

// A source that returns its totals by value drives the Controller exactly
// as one that fills the Controller's vector.
TEST(Controller, ValueSourceMatchesFillSource) {
  FakeTarget fill_target, value_target;
  std::uint64_t segs1 = 0, segs2 = 0;
  const auto report = [&] {
    return Totals{{1, segs1, segs1 * 1500}, {2, segs2, segs2 * 1500}};
  };
  control::ControllerParams params;
  control::Controller fill(
      params, [&](Totals& out) { out = report(); }, &fill_target);
  control::Controller value(params, control::Controller::ValueSource(report),
                            &value_target);
  for (sim::Time t = sim::us(100); t <= sim::ms(5); t += sim::us(100)) {
    if (t <= sim::ms(2)) segs1 += 50;
    segs2 += 1;
    fill.tick(t);
    value.tick(t);
  }
  ASSERT_GE(fill.history().size(), 2u);
  ASSERT_EQ(fill.history().size(), value.history().size());
  for (std::size_t i = 0; i < fill.history().size(); ++i) {
    EXPECT_EQ(fill.history()[i].at, value.history()[i].at);
    EXPECT_EQ(fill.history()[i].flow, value.history()[i].flow);
    EXPECT_EQ(fill.history()[i].new_degree, value.history()[i].new_degree);
  }
  EXPECT_EQ(fill_target.calls, value_target.calls);
}

namespace {

/// Controller whose source reports exactly `report` on every tick.
struct ScriptedController {
  FakeTarget target;
  std::vector<control::Controller::FlowTotals> report;
  control::Controller ctl;

  explicit ScriptedController(control::ControllerParams params = {})
      : ctl(params, [this](Totals& out) { out = report; }, &target) {}

  void tick(std::vector<control::Controller::FlowTotals> totals,
            sim::Time now) {
    report = std::move(totals);
    ctl.tick(now);
  }
};

/// Gauges the Controller publishes for itself on every exported tick
/// (control.elephants, control.active_lanes, control.tracked_flows).
constexpr std::size_t kOwnGauges = 3;

}  // namespace

// The exported rate_bps gauge is in bits per second, like rate_bps().
TEST(Controller, RateBpsGaugeMatchesRateBps) {
  trace::Registry reg;
  ScriptedController sc;
  sc.ctl.export_to(&reg);
  sc.tick({{1, 1000, 1'500'000}}, 0);
  sc.tick({{1, 2000, 3'000'000}}, sim::ms(1));
  EXPECT_DOUBLE_EQ(reg.gauge("flow.1.rate_bps"), sc.ctl.rate_bps(1));
  EXPECT_DOUBLE_EQ(reg.gauge("flow.1.rate_bps"), 1.2e10);
  EXPECT_DOUBLE_EQ(reg.gauge("flow.1.rate_pps"), sc.ctl.rate_pps(1));
}

TEST(Controller, FlowsListedInFirstSeenOrder) {
  ScriptedController sc;
  sc.tick({{9, 1, 1}, {3, 1, 1}}, 0);
  sc.tick({{9, 2, 2}}, sim::us(100));
  EXPECT_EQ(sc.ctl.flows(), (std::vector<net::FlowId>{9, 3}));
}

// --- Rescale drain at the merge point, both engines -------------------------

namespace {

// The shared invariant both engines uphold across a live rescale: every
// deposited seq comes out exactly once, in original flow order.
void expect_full_in_order(const std::vector<std::uint64_t>& seqs,
                          std::uint64_t count) {
  ASSERT_EQ(seqs.size(), count);
  for (std::uint64_t i = 0; i < count; ++i) EXPECT_EQ(seqs[i], i);
}

// Deposit `count` packets of micro-flow `batch` carrying seqs
// [first_seq, ...) into the DES reassembler.
void core_deposit(core::Reassembler& ra, net::FlowId flow,
                  std::uint64_t batch, std::uint64_t first_seq, int count) {
  for (int i = 0; i < count; ++i) {
    auto p = net::make_udp_datagram(
        net::FlowKey{net::Ipv4Addr(1, 1, 1, 1), net::Ipv4Addr(2, 2, 2, 2), 1,
                     2, net::Ipv4Header::kProtoUdp},
        100);
    p->flow_id = flow;
    p->wire_seq = first_seq + static_cast<std::uint64_t>(i);
    p->microflow_id = batch;
    ra.deposit(std::move(p), /*from_core=*/-1);
  }
}

// Pop everything the DES reassembler has ready, appending wire seqs.
void core_drain(core::Reassembler& ra, std::vector<std::uint64_t>& seqs) {
  while (auto p = ra.pop_ready()) seqs.push_back(p->wire_seq);
}

// Deposit `count` packets of `batch` carrying seqs [first_seq, ...) into
// buffer ring `w` of the rt reassembler.
void rt_deposit(rt::RtReassembler& ra, std::size_t w, std::uint64_t batch,
                std::uint64_t first_seq, int count) {
  for (int i = 0; i < count; ++i) {
    rt::RtPacket p;
    p.seq = first_seq + static_cast<std::uint64_t>(i);
    p.batch = batch;
    ASSERT_EQ(ra.deposit_batch(w, &p, 1), 1u);
  }
}

// An epoch-flush marker for the epoch opening at `batch`, on ring `w`.
void rt_mark(rt::RtReassembler& ra, std::size_t w, std::uint64_t batch) {
  rt::RtPacket mark;
  mark.batch = batch;
  mark.marker = true;
  ASSERT_EQ(ra.deposit_batch(w, &mark, 1), 1u);
}

void rt_drain(rt::RtReassembler& ra, std::vector<std::uint64_t>& seqs) {
  rt::RtPacket out[8];
  while (const std::size_t n = ra.pop_ready_batch(out, 8))
    for (std::size_t k = 0; k < n; ++k) seqs.push_back(out[k].seq);
}

}  // namespace

// DES reassembler: split at degree 2, demote (unsplit hold), re-split — the
// full rescale-drain protocol.
TEST(CoreReassembler, OrderedAcrossRescale) {
  const net::FlowId kFlow = 7;
  stack::CostModel costs;
  core::Reassembler ra(costs);
  std::vector<std::uint64_t> seqs;

  // Split period 1: batches 1-2, two packets each (seqs 0-3).
  ra.note_flow_split(kFlow, 0, 1);
  ra.note_batch_open(kFlow, 1);
  ra.note_dispatch(kFlow, 1, 1);
  ra.note_dispatch(kFlow, 1, 1);
  ra.note_batch_open(kFlow, 2);
  ra.note_dispatch(kFlow, 2, 1);
  ra.note_dispatch(kFlow, 2, 1);
  // Batch 2 lands first: nothing ready until batch 1 fills in.
  core_deposit(ra, kFlow, 2, 2, 2);
  core_drain(ra, seqs);
  EXPECT_TRUE(seqs.empty());
  core_deposit(ra, kFlow, 1, 0, 2);
  core_drain(ra, seqs);
  EXPECT_EQ(seqs.size(), 4u);

  // Batch 3 opens, gets one of its two packets...
  ra.note_batch_open(kFlow, 3);
  ra.note_dispatch(kFlow, 3, 1);
  ra.note_dispatch(kFlow, 3, 1);
  core_deposit(ra, kFlow, 3, 4, 1);
  core_drain(ra, seqs);
  // ...then the flow demotes: its default-path packet (seq 6) must be held
  // behind batch 3's still-missing seq 5.
  ra.note_flow_unsplit(kFlow);
  core_deposit(ra, kFlow, 0, 6, 1);
  core_drain(ra, seqs);
  EXPECT_EQ(seqs.size(), 5u);  // seq 6 held, seq 5 outstanding
  core_deposit(ra, kFlow, 3, 5, 1);
  core_drain(ra, seqs);

  // Re-split (period 2, batch 4): the pre-split gate waits for the one
  // default-path segment, which the flushed hold supplies.
  ra.note_flow_split(kFlow, 1, 4);
  ra.note_batch_open(kFlow, 4);
  ra.note_dispatch(kFlow, 4, 1);
  ra.note_dispatch(kFlow, 4, 1);
  core_deposit(ra, kFlow, 4, 7, 2);
  core_drain(ra, seqs);

  expect_full_in_order(seqs, 9);
  EXPECT_TRUE(ra.drained());
  EXPECT_GE(ra.batches_merged(), 2u);
}

TEST(CoreReassembler, NoteDropUnblocksMerge) {
  const net::FlowId kFlow = 3;
  stack::CostModel costs;
  core::Reassembler ra(costs);
  ra.note_flow_split(kFlow, 0, 1);
  ra.note_batch_open(kFlow, 1);
  ra.note_dispatch(kFlow, 1, 1);
  ra.note_dispatch(kFlow, 1, 1);
  ra.note_batch_open(kFlow, 2);
  ra.note_dispatch(kFlow, 2, 1);
  // Seq 1 (batch 1) is lost before the merge point; batch 2 would wedge
  // behind it without the retraction.
  std::vector<std::uint64_t> seqs;
  core_deposit(ra, kFlow, 1, 0, 1);
  core_deposit(ra, kFlow, 2, 2, 1);
  core_drain(ra, seqs);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0}));
  ra.note_drop(kFlow, 1, 1);
  core_drain(ra, seqs);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 2}));
  EXPECT_TRUE(ra.drained());
}

// rt reassembler: shrink 2->1 workers then grow back, with the engine's
// epoch-flush markers closing the completion gaps. Each batch goes to the
// ring its epoch assigns, as the engine's generator routes it.
TEST(RtReassembler, OrderedAcrossRescale) {
  rt::RtReassembler ra(2, 64);
  std::vector<std::uint64_t> seqs;

  // Epoch {1, 2 workers}: b1 -> ring 0, b2 -> ring 1, b3 -> ring 0. Batch 2
  // deposited first — order must still come out 0..N.
  rt_deposit(ra, 1, 2, 2, 2);
  rt_deposit(ra, 0, 1, 0, 2);
  rt_deposit(ra, 0, 3, 4, 2);

  // Shrink to 1 worker from batch 4: announce, then flush-mark every
  // previously-active ring exactly as the engine's generator does.
  ASSERT_TRUE(ra.announce_epoch({4, 1}));
  rt_mark(ra, 0, 4);
  rt_mark(ra, 1, 4);
  rt_deposit(ra, 0, 4, 6, 2);
  rt_deposit(ra, 0, 5, 8, 2);

  // Grow back to 2 workers from batch 6 (ring 0 was the only active one):
  // b6 -> ring 0, b7 -> ring 1.
  ASSERT_TRUE(ra.announce_epoch({6, 2}));
  rt_mark(ra, 0, 6);
  rt_deposit(ra, 0, 6, 10, 2);
  rt_deposit(ra, 1, 7, 12, 2);

  rt_drain(ra, seqs);
  // End of stream: the final batches have no successor to prove them
  // complete — the engine force-advances there.
  ra.force_advance();
  rt_drain(ra, seqs);
  ra.force_advance();
  rt_drain(ra, seqs);

  expect_full_in_order(seqs, 14);
  // Every ring empty, including the stale marker the shrink stranded on
  // ring 1 (discarded when the grow epoch made ring 1 active again).
  EXPECT_EQ(ra.occupancy(), 0u);
  EXPECT_EQ(ra.batches_merged(), 7u);
}

// --- BatchAssigner degree overrides ------------------------------------------

TEST(BatchAssigner, DegreeOverrideWinsOverThreshold) {
  core::MflowConfig cfg;
  cfg.batch_size = 4;
  cfg.splitting_cores = {2, 3, 4, 5};
  cfg.elephant_threshold_pkts = 1'000'000;  // static policy: never split
  core::BatchAssigner a(cfg);
  EXPECT_EQ(a.assign(1, 1).microflow_id, 0u);
  a.set_flow_degree(1, 2);
  // Split immediately, round-robin over exactly two distinct cores.
  std::set<int> cores;
  bool first = true;
  for (int i = 0; i < 16; ++i) {
    const auto as = a.assign(1, 1);
    EXPECT_NE(as.microflow_id, 0u);
    EXPECT_EQ(as.first_split, first);
    first = false;
    cores.insert(as.target_core);
  }
  EXPECT_EQ(cores.size(), 2u);
  EXPECT_EQ(a.flow_degree(1), 2u);
}

TEST(BatchAssigner, DegreeZeroForcesUnsplitWithDrainFlag) {
  core::MflowConfig cfg;
  cfg.batch_size = 4;
  cfg.splitting_cores = {2, 3};
  cfg.elephant_threshold_pkts = 0;  // static policy: always split
  core::BatchAssigner a(cfg);
  ASSERT_NE(a.assign(1, 1).microflow_id, 0u);
  a.set_flow_degree(1, 0);
  // First default-path packet after the override carries the unsplit flag
  // (the reassembler's cue to run the drain hold); later ones don't.
  const auto first = a.assign(1, 1);
  EXPECT_EQ(first.microflow_id, 0u);
  EXPECT_TRUE(first.unsplit);
  const auto second = a.assign(1, 1);
  EXPECT_EQ(second.microflow_id, 0u);
  EXPECT_FALSE(second.unsplit);
  // Re-promotion resumes with a fresh split period carrying prior_segs.
  a.set_flow_degree(1, 2);
  const auto resumed = a.assign(1, 1);
  EXPECT_TRUE(resumed.first_split);
  EXPECT_EQ(resumed.prior_segs, 2u);
}

// --- ScenarioConfig::validate ------------------------------------------------

namespace {

exp::ScenarioConfig valid_config() {
  exp::ScenarioConfig cfg;
  cfg.warmup = sim::ms(1);
  cfg.measure = sim::ms(2);
  return cfg;
}

}  // namespace

TEST(ScenarioValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(valid_config().validate());
}

TEST(ScenarioValidate, RejectsOverlappingAppAndKernelCores) {
  auto cfg = valid_config();
  cfg.app_cores = 2;
  cfg.first_kernel_core = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsNonPowerOfTwoNicRing) {
  auto cfg = valid_config();
  cfg.nic_ring_capacity = 1000;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsControlPlaneWithoutMflow) {
  auto cfg = valid_config();
  cfg.control.enabled = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.mode = exp::Mode::kMflow;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ScenarioValidate, RejectsElasticWithoutControl) {
  auto cfg = valid_config();
  cfg.mode = exp::Mode::kMflow;
  cfg.elastic.enabled = true;  // no control plane: nothing to read load from
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.control.enabled = true;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ScenarioValidate, RejectsRateChangeForUnknownSender) {
  auto cfg = valid_config();
  cfg.rate_changes.push_back({cfg.num_flows, sim::ms(1), 0});
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsUsageSplitOutsideMeasurement) {
  auto cfg = valid_config();
  cfg.usage_split_at = cfg.warmup + cfg.measure + sim::ms(1);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.usage_split_at = cfg.warmup + sim::ms(1);
  EXPECT_NO_THROW(cfg.validate());
}

// --- DES live rescale, end to end --------------------------------------------

namespace {

exp::ScenarioConfig live_rescale_config() {
  core::MflowConfig mcfg = core::udp_device_scaling_config();
  mcfg.tcp_in_reader = true;
  mcfg.splitting_cores = {2, 3, 4, 5};
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kMflow;
  cfg.num_flows = 3;
  cfg.server_cores = 8;
  cfg.app_cores = 1;
  cfg.first_kernel_core = 1;
  cfg.kernel_cores = 7;
  cfg.warmup = sim::ms(2);
  cfg.measure = sim::ms(10);
  cfg.mflow = mcfg;
  auto& cp = cfg.control;
  cp.enabled = true;
  cp.interval = sim::us(100);
  cp.params.monitor.window = sim::ms(1);
  cp.params.classifier.promote_pps = 200'000.0;
  cp.params.classifier.demote_pps = 100'000.0;
  cp.params.classifier.dwell = sim::us(300);
  // Flow 0 throttles to mouse rates mid-measurement and surges back: one
  // full elephant -> mouse -> elephant round trip while traffic flows.
  cfg.rate_changes = {{0, sim::ms(5), sim::ms(2)}, {0, sim::ms(9), 0}};
  return cfg;
}

}  // namespace

TEST(ControlScenario, LiveRescaleConservesAndOrders) {
  const auto r = exp::run_scenario(live_rescale_config());
  EXPECT_GT(r.goodput_gbps, 1.0);
  EXPECT_GT(r.messages, 0u);
  // The round trip committed: at least one promotion, one demotion, one
  // re-promotion somewhere in the history.
  EXPECT_GE(r.control.rescales, 3u);
  bool saw_demote = false, saw_promote = false;
  for (const auto& ev : r.control.history) {
    if (ev.new_degree == 0 && ev.old_degree > 0) saw_demote = true;
    if (ev.new_degree > 0 && ev.old_degree == 0) saw_promote = true;
  }
  EXPECT_TRUE(saw_promote);
  EXPECT_TRUE(saw_demote);
  // Conservation through every rescale: a faultless run writes nothing
  // off, never forces a merge-head advance, and delivers nothing out of
  // order past the merge point.
  EXPECT_EQ(r.drops_recovered, 0u);
  EXPECT_EQ(r.evictions, 0u);
  EXPECT_EQ(r.late_deliveries, 0u);
  EXPECT_EQ(r.nic_drops, 0u);
}

TEST(ControlScenario, LiveRescaleDeterministic) {
  const auto a = exp::run_scenario(live_rescale_config());
  const auto b = exp::run_scenario(live_rescale_config());
  EXPECT_DOUBLE_EQ(a.goodput_gbps, b.goodput_gbps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.control.rescales, b.control.rescales);
  ASSERT_EQ(a.control.history.size(), b.control.history.size());
  for (std::size_t i = 0; i < a.control.history.size(); ++i) {
    EXPECT_EQ(a.control.history[i].at, b.control.history[i].at);
    EXPECT_EQ(a.control.history[i].flow, b.control.history[i].flow);
    EXPECT_EQ(a.control.history[i].new_degree,
              b.control.history[i].new_degree);
  }
}

// --- flow-state lifecycle under churn ----------------------------------------

// --- FlowTable value construction --------------------------------------------

namespace {

/// Counts its default constructions; `id` lets the reclaim callback check
/// which value it was handed.
struct Counted {
  static inline int built = 0;
  int id = 0;
  Counted() { ++built; }
};

}  // namespace

// upsert_apply on a resident key must not build a throwaway V (a value that
// allocates in its constructor, like a std::deque, would pay for it on every
// call); an insert builds the new entry and an eviction only re-initialises
// the slot the new entry takes over.
TEST(FlowTable, UpsertBuildsNoValueUnlessInsertingOrEvicting) {
  control::FlowTableParams p;
  p.shards = 1;
  p.capacity = 2;
  control::FlowTable<Counted> table(p);
  std::vector<int> reclaimed;
  table.set_reclaim(
      [&reclaimed](net::FlowId, Counted&& v) { reclaimed.push_back(v.id); });
  auto set_id = [](int id) { return [id](Counted& v) { v.id = id; }; };

  Counted::built = 0;
  table.upsert_apply(1, 1, set_id(1));
  EXPECT_EQ(Counted::built, 1);  // the new entry
  table.upsert_apply(2, 2, set_id(2));
  EXPECT_EQ(Counted::built, 2);

  Counted::built = 0;
  for (int i = 0; i < 10; ++i) {
    table.upsert_apply(1, 3, [](Counted& v) {
      EXPECT_EQ(v.id, 1);
      return true;
    });
    table.upsert_apply(2, 3, [](Counted& v) { EXPECT_EQ(v.id, 2); });
  }
  EXPECT_EQ(Counted::built, 0);  // resident keys build nothing

  // Full shard: key 3 evicts the LRU entry (key 2, still stamped 2; key 1's
  // `true` returns refreshed it to 3) and takes over its slot.
  Counted::built = 0;
  EXPECT_TRUE(table.upsert_apply(3, 4, [](Counted& v) {
    EXPECT_EQ(v.id, 0);  // value-initialised, not the victim's state
    v.id = 3;
  }));
  EXPECT_EQ(Counted::built, 1);
  EXPECT_EQ(reclaimed, (std::vector<int>{2}));
  EXPECT_FALSE(table.contains(2));
  EXPECT_EQ(table.size(), 2u);
}

// A callback returning true refreshes recency in the same probe; false (or
// void) leaves it alone, exactly like a skipped touch().
TEST(FlowTable, UpsertApplyTrueRefreshesRecency) {
  control::FlowTableParams p;
  p.shards = 1;
  p.ttl = 10;
  control::FlowTable<int> table(p);
  table.upsert(1, 0);
  table.upsert(2, 0);
  table.upsert_apply(1, 8, [](int&) { return true; });
  table.upsert_apply(2, 8, [](int&) { return false; });
  table.upsert_apply(2, 9, [](int& v) { ++v; });
  std::vector<net::FlowId> idle;
  table.collect_idle(10, idle);
  EXPECT_EQ(idle, (std::vector<net::FlowId>{2}));
  // Monotone like touch(): an older stamp does not move the entry back, so
  // key 1 (stamped 8) is still live at a deadline of 5.
  table.upsert_apply(1, 5, [](int&) { return true; });
  idle.clear();
  table.collect_idle(15, idle);
  EXPECT_EQ(idle, (std::vector<net::FlowId>{2}));
}

namespace {

control::ControllerParams churn_controller_params() {
  control::ControllerParams p;
  p.monitor.window = sim::us(400);
  p.monitor.table.ttl = sim::us(500);
  p.classifier.promote_pps = 200'000.0;
  p.classifier.demote_pps = 100'000.0;
  p.classifier.dwell = sim::us(200);
  return p;
}

}  // namespace

// A storm of short flows (arrive, send for 3 ticks, vanish) must leave
// table occupancy and the gauge surface bounded by the LIVE window — not
// by cumulative arrivals. This is the unbounded-growth regression test.
TEST(Controller, ChurnStormKeepsStateAndGaugesBounded) {
  FakeTarget target;
  trace::Registry reg;
  constexpr int kPerTick = 20;   // new flows per tick
  constexpr int kLifeTicks = 3;  // ticks a flow advances totals for
  constexpr int kTicks = 500;
  int tick = 0;
  auto source = [&](Totals& v) {
    // Flows are numbered by arrival tick; only live ones report.
    for (int born = std::max(0, tick - kLifeTicks); born <= tick; ++born) {
      const int age = tick - born;
      for (int j = 0; j < kPerTick; ++j) {
        const auto id =
            static_cast<net::FlowId>(born) * kPerTick + j + 1000;
        const auto segs = static_cast<std::uint64_t>(
            (std::min(age, kLifeTicks) + 1) * 5);  // 50k pps: mice
        v.push_back({id, segs, segs * 1500});
      }
    }
  };
  control::Controller ctl(churn_controller_params(), source, &target);
  ctl.export_to(&reg);
  for (tick = 1; tick <= kTicks; ++tick)
    ctl.tick(sim::us(100) * tick);

  const auto cumulative =
      static_cast<std::uint64_t>(kTicks) * kPerTick;
  // Live window: (lifetime + ttl + dwell slack) worth of flows, far under
  // cumulative. 20 flows/tick * ~10 ticks of retention = ~200.
  EXPECT_GE(ctl.expired_flows(), cumulative - 400);
  EXPECT_LE(ctl.peak_tracked(), 300u);
  EXPECT_LE(ctl.tracked_flows(), 300u);
  // Gauge surface is 2 per tracked flow plus the controller's own few: it
  // must shrink with expiry, not accumulate one pair per cumulative flow.
  EXPECT_LE(reg.num_gauges(), 2 * 300 + 8);
  EXPECT_EQ(ctl.release_retries(), 0u);
}

// 400 steady mice whose totals advance every tick: after warm-up a tick
// allocates nothing at all. Each flow's sample ring has reached its peak
// depth, the record's probe builds no value, and the source fills the
// Controller's own totals vector, whose capacity every tick reuses.
TEST(Controller, SteadyStateTickAllocationsPerFlowBounded) {
  FakeTarget target;
  constexpr int kFlows = 400;
  std::uint64_t segs = 0;
  auto source = [&](Totals& v) {
    for (int f = 1; f <= kFlows; ++f)
      v.push_back({static_cast<net::FlowId>(f), segs, segs * 1500});
  };
  control::Controller ctl(churn_controller_params(), source, &target);
  int tick = 0;
  auto run = [&](int ticks) {
    for (int i = 0; i < ticks; ++i) {
      segs += 5;  // 50k pps: mice, no rescales
      ctl.tick(sim::us(100) * ++tick);
    }
  };
  run(200);
  constexpr int kTicks = 1000;
  const std::uint64_t before = alloc_counter::calls();
  run(kTicks);
  const std::uint64_t allocs = alloc_counter::calls() - before;
  EXPECT_EQ(ctl.tracked_flows(), static_cast<std::size_t>(kFlows));
  EXPECT_EQ(ctl.rescales(), 0u);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over " << kTicks
                        << " ticks of " << kFlows << " flows";
}

// A churn-shaped source (40 new flows per tick, each advancing its totals
// for 10 ticks, then silent until the TTL expires it): after warm-up the
// only allocations are one sample-ring growth per new flow. A record that allocated on reset (a std::deque
// allocates in its default constructor) pays about one more per flow.
TEST(Controller, ChurnAllocationsPerExpiredFlowBounded) {
  FakeTarget target;
  constexpr int kPerTick = 40;
  constexpr int kLifeTicks = 10;
  int tick = 0;
  auto source = [&](Totals& v) {
    for (int born = std::max(0, tick - kLifeTicks + 1); born <= tick;
         ++born) {
      const auto segs = static_cast<std::uint64_t>(tick - born + 1) * 5;
      for (int j = 0; j < kPerTick; ++j) {
        const auto id = static_cast<net::FlowId>(born) * kPerTick + j + 1;
        v.push_back({id, segs, segs * 1500});  // 50k pps: mice
      }
    }
  };
  control::Controller ctl(churn_controller_params(), source, &target);
  auto run = [&](int ticks) {
    for (int i = 0; i < ticks; ++i) {
      ++tick;
      ctl.tick(sim::us(100) * tick);
    }
  };
  run(200);
  constexpr int kTicks = 1800;
  const std::uint64_t expired_before = ctl.expired_flows();
  const std::uint64_t before = alloc_counter::calls();
  run(kTicks);
  const std::uint64_t allocs = alloc_counter::calls() - before;
  const std::uint64_t expired = ctl.expired_flows() - expired_before;
  ASSERT_GE(expired, static_cast<std::uint64_t>(kTicks - 20) * kPerTick);
  EXPECT_EQ(ctl.rescales(), 0u);
  const double per_expired =
      static_cast<double>(allocs) / static_cast<double>(expired);
  EXPECT_LE(per_expired, 1.1) << allocs << " allocations for " << expired
                              << " expired flows";
}

namespace {

/// Records release_flow calls (asked, and accepted) and vetoes the first
/// `veto_count`.
struct ReleasingTarget final : control::CapacityTarget {
  std::vector<std::pair<net::FlowId, std::uint32_t>> degree_calls;
  std::vector<net::FlowId> asked;
  std::vector<net::FlowId> releases;
  int veto_count = 0;
  void set_flow_degree(net::FlowId flow, std::uint32_t degree) override {
    degree_calls.emplace_back(flow, degree);
  }
  std::uint32_t max_degree() const override { return 4; }
  bool release_flow(net::FlowId flow) override {
    asked.push_back(flow);
    if (veto_count > 0) {
      --veto_count;
      return false;
    }
    releases.push_back(flow);
    return true;
  }
};

}  // namespace

// An elephant that goes idle is demoted by expiry (degree forced to 0 so
// the drain protocol runs), released, and — when the FlowId later returns
// at mouse rates — starts as a brand-new mouse with no resurrected degree
// override or classifier state.
TEST(Controller, ExpiryDemotesAndFlowIdReuseStartsFresh) {
  ReleasingTarget target;
  std::uint64_t segs = 0;
  bool reporting = true;
  auto source = [&](Totals& v) {
    if (reporting) v.push_back({7, segs, segs * 1500});
  };
  control::Controller ctl(churn_controller_params(), source, &target);

  // Phase 1: elephant (500k pps) promotes.
  sim::Time t = 0;
  for (int i = 0; i < 10; ++i) {
    segs += 50;
    t += sim::us(100);
    ctl.tick(t);
  }
  ASSERT_GT(ctl.degree_of(7), 0u);
  const auto promoted_degree = ctl.degree_of(7);

  // Phase 2: the flow vanishes (source stops reporting it). After the TTL
  // the controller must demote it to 0 (drain) and release it.
  reporting = false;
  for (int i = 0; i < 10; ++i) {
    t += sim::us(100);
    ctl.tick(t);
  }
  EXPECT_EQ(ctl.expired_flows(), 1u);
  EXPECT_EQ(ctl.tracked_flows(), 0u);
  EXPECT_EQ(target.releases, (std::vector<net::FlowId>{7}));
  ASSERT_FALSE(target.degree_calls.empty());
  EXPECT_EQ(target.degree_calls.back(),
            (std::pair<net::FlowId, std::uint32_t>{7, 0}));
  // The expiry demotion is a real history event (old degree -> 0).
  EXPECT_EQ(ctl.history().back().old_degree, promoted_degree);
  EXPECT_EQ(ctl.history().back().new_degree, 0u);

  // Phase 3: FlowId 7 returns at mouse rates. No stale elephant state may
  // resurrect: it stays degree 0 and commits no rescale.
  const auto rescales_before = ctl.rescales();
  reporting = true;
  for (int i = 0; i < 10; ++i) {
    segs += 1;  // 10k pps
    t += sim::us(100);
    ctl.tick(t);
  }
  EXPECT_EQ(ctl.degree_of(7), 0u);
  EXPECT_EQ(ctl.rescales(), rescales_before);
  EXPECT_EQ(ctl.elephants(), 0u);
}

// A vetoed release (drain still in flight) must keep the flow's state
// intact and retry — reclamation is all-or-nothing.
TEST(Controller, ReleaseVetoRetriesUntilAccepted) {
  ReleasingTarget target;
  target.veto_count = 3;
  bool reporting = true;
  std::uint64_t segs = 0;
  auto source = [&](Totals& v) {
    if (reporting) v.push_back({9, segs, segs * 1500});
  };
  control::Controller ctl(churn_controller_params(), source, &target);
  sim::Time t = 0;
  for (int i = 0; i < 5; ++i) {
    segs += 1;
    t += sim::us(100);
    ctl.tick(t);
  }
  reporting = false;
  // Not yet idle for a full TTL (last activity at t=500us, ttl=500us):
  // no candidate, no veto.
  while (t < sim::us(900)) {
    t += sim::us(100);
    ctl.tick(t);
  }
  EXPECT_EQ(ctl.release_retries(), 0u);
  // From t=1000us the flow is a candidate each tick: three ticks are
  // vetoed (flow stays tracked), the fourth reclaims.
  for (int i = 0; i < 3; ++i) {
    t += sim::us(100);
    ctl.tick(t);
  }
  EXPECT_EQ(ctl.expired_flows(), 0u);
  EXPECT_EQ(ctl.tracked_flows(), 1u);
  EXPECT_EQ(ctl.release_retries(), 3u);
  t += sim::us(100);
  ctl.tick(t);
  EXPECT_EQ(ctl.expired_flows(), 1u);
  EXPECT_EQ(ctl.tracked_flows(), 0u);
  EXPECT_EQ(target.releases, (std::vector<net::FlowId>{9}));
}

// Expiry asks for release in (shard, oldest-first) order; a vetoed flow
// keeps its record and its gauges. erase() then drops one record and
// retracts its gauges, and clear() retracts every flow's.
TEST(Controller, EraseRetractsRegistryGauges) {
  trace::Registry reg;
  ReleasingTarget target;
  target.veto_count = 2;
  std::vector<control::Controller::FlowTotals> report;
  control::ControllerParams p;
  p.monitor.table.ttl = sim::ms(1);
  control::Controller ctl(
      p, [&report](Totals& out) { out = report; }, &target);
  ctl.export_to(&reg);
  report = {{1, 100, 1000}, {2, 100, 1000}};
  ctl.tick(0);
  EXPECT_EQ(reg.num_gauges(), kOwnGauges + 4);  // rate_pps + rate_bps each

  report.clear();
  ctl.tick(sim::ms(2));
  EXPECT_EQ(target.asked, (std::vector<net::FlowId>{1, 2}));
  EXPECT_EQ(ctl.tracked_flows(), 2u);
  EXPECT_EQ(reg.num_gauges(), kOwnGauges + 4);
  EXPECT_TRUE(ctl.erase(1));
  EXPECT_EQ(reg.num_gauges(), kOwnGauges + 2);
  EXPECT_FALSE(ctl.erase(1));
  ctl.clear();
  EXPECT_EQ(reg.num_gauges(), kOwnGauges);
  EXPECT_EQ(ctl.tracked_flows(), 0u);
}

// export_to() after a flow's first sample: names are built lazily, so the
// flow's gauges must appear on its next sample, and erase() / clear()
// must still retract them.
TEST(Controller, RegistryAttachedMidRunPublishesAndRetracts) {
  trace::Registry reg;
  ScriptedController sc;
  sc.tick({{1, 100, 1000}, {2, 100, 1000}}, 0);
  sc.tick({{1, 200, 2000}}, sim::us(100));
  EXPECT_EQ(reg.num_gauges(), 0u);

  sc.ctl.export_to(&reg);
  sc.tick({{1, 300, 3000}}, sim::us(200));
  // Flow 1 only: flow 2 has no new sample.
  EXPECT_EQ(reg.num_gauges(), kOwnGauges + 2);
  EXPECT_DOUBLE_EQ(reg.gauge("flow.1.rate_pps"), sc.ctl.rate_pps(1));
  EXPECT_DOUBLE_EQ(reg.gauge("flow.1.rate_pps"), 1e6);
  // Flow 3 is first seen with a registry attached.
  sc.tick({{2, 150, 1500}, {3, 10, 100}}, sim::us(200));
  EXPECT_EQ(reg.num_gauges(), kOwnGauges + 6);

  EXPECT_TRUE(sc.ctl.erase(1));
  EXPECT_EQ(reg.num_gauges(), kOwnGauges + 4);
  EXPECT_DOUBLE_EQ(reg.gauge("flow.1.rate_pps"), 0.0);
  EXPECT_FALSE(sc.ctl.erase(4));
  sc.ctl.clear();
  EXPECT_EQ(reg.num_gauges(), kOwnGauges);
  EXPECT_EQ(sc.ctl.tracked_flows(), 0u);
}

// A table too small for the live flows evicts its LRU record whole: a split
// elephant is demoted through the target (a history event, as expiry does)
// so the data path keeps no split the Controller forgot, its gauges go, and
// its id, when reused, starts as a mouse at degree 0 with no hysteresis or
// degree left over.
TEST(Controller, CapacityEvictionDropsTheWholeRecord) {
  trace::Registry reg;
  ReleasingTarget target;
  std::vector<control::Controller::FlowTotals> report;
  control::ControllerParams p = churn_controller_params();
  p.monitor.table.shards = 1;
  p.monitor.table.capacity = 2;
  p.monitor.table.ttl = 0;  // eviction, not expiry, reclaims here
  control::Controller ctl(
      p, [&report](Totals& out) { out = report; }, &target);
  ctl.export_to(&reg);

  // Flow 7 at 500k pps promotes to a split.
  std::uint64_t segs = 0;
  sim::Time t = 0;
  for (int i = 0; i < 10; ++i) {
    segs += 50;
    t += sim::us(100);
    report = {{7, segs, segs * 1500}};
    ctl.tick(t);
  }
  const std::uint32_t promoted = ctl.degree_of(7);
  ASSERT_GT(promoted, 0u);
  ASSERT_EQ(ctl.classify(7), FlowClass::kElephant);
  ASSERT_EQ(reg.num_gauges(), kOwnGauges + 2);

  // Flow 7 goes silent; two mice arrive and the second evicts it.
  t += sim::us(100);
  report = {{8, 1, 1500}};
  ctl.tick(t);
  t += sim::us(100);
  report = {{9, 1, 1500}};
  ctl.tick(t);
  EXPECT_EQ(ctl.tracked_flows(), 2u);
  EXPECT_EQ(ctl.flows(), (std::vector<net::FlowId>{8, 9}));
  ASSERT_FALSE(target.degree_calls.empty());
  EXPECT_EQ(target.degree_calls.back(),
            (std::pair<net::FlowId, std::uint32_t>{7, 0}));
  EXPECT_EQ(ctl.history().back().at, t);
  EXPECT_EQ(ctl.history().back().flow, 7u);
  EXPECT_EQ(ctl.history().back().old_degree, promoted);
  EXPECT_EQ(ctl.history().back().new_degree, 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("flow.7.rate_pps"), 0.0);
  EXPECT_EQ(reg.num_gauges(), kOwnGauges + 4);  // flows 8 and 9
  EXPECT_TRUE(target.releases.empty());  // eviction does not ask release

  // Id 7 returns at mouse rates: a fresh mouse, degree 0, no rescale.
  const auto rescales_before = ctl.rescales();
  for (int i = 0; i < 10; ++i) {
    segs += 1;  // 10k pps
    t += sim::us(100);
    report = {{7, segs, segs * 1500}};
    ctl.tick(t);
    EXPECT_EQ(ctl.degree_of(7), 0u);
    EXPECT_EQ(ctl.classify(7), FlowClass::kMouse);
  }
  EXPECT_EQ(ctl.rescales(), rescales_before);
  EXPECT_EQ(ctl.elephants(), 0u);
}

TEST(ScenarioValidate, RejectsChurnWithoutControlOrTtl) {
  auto cfg = valid_config();
  cfg.control.churn.enabled = true;
  // Churn without the control plane: nothing would read the totals.
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.mode = exp::Mode::kMflow;
  cfg.control.enabled = true;
  // Control on, but no TTL: churned flows would never expire.
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.control.params.monitor.table.ttl = sim::ms(1);
  EXPECT_NO_THROW(cfg.validate());
}

// --- DES: expiry interleaved with live rescales --------------------------------

namespace {

exp::ScenarioConfig expiring_rescale_config() {
  exp::ScenarioConfig cfg = live_rescale_config();
  // TTL shorter than flow 0's throttled pace (one message per 2ms): the
  // demoted elephant goes idle between messages, expires mid-run with the
  // unsplit drain potentially still in flight, and re-registers fresh on
  // its next message. The release_flow veto keeps that lossless.
  cfg.control.params.monitor.table.ttl = sim::ms(1);
  return cfg;
}

}  // namespace

TEST(ControlScenario, ExpiryDuringLiveRescaleDrainsLosslessly) {
  const auto r = exp::run_scenario(expiring_rescale_config());
  EXPECT_GT(r.goodput_gbps, 1.0);
  EXPECT_GE(r.control.expired, 1u);
  EXPECT_LE(r.control.tracked, 3u);
  // Expiry must not cost a single packet: nothing written off, no forced
  // merge-head advance, nothing late.
  EXPECT_EQ(r.drops_recovered, 0u);
  EXPECT_EQ(r.evictions, 0u);
  EXPECT_EQ(r.late_deliveries, 0u);
  EXPECT_EQ(r.nic_drops, 0u);
}

TEST(ControlScenario, ExpiryDuringLiveRescaleDeterministic) {
  const auto a = exp::run_scenario(expiring_rescale_config());
  const auto b = exp::run_scenario(expiring_rescale_config());
  EXPECT_DOUBLE_EQ(a.goodput_gbps, b.goodput_gbps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.control.expired, b.control.expired);
  EXPECT_EQ(a.control.peak, b.control.peak);
  EXPECT_EQ(a.control.rescales, b.control.rescales);
}

// Synthetic churn merged into the engine's totals: cumulative flows far
// exceed what is ever tracked at once, and the engine accepts the
// release handshake for flows it never carried.
TEST(ControlScenario, ChurnFlowsExpireAndStayBounded) {
  exp::ScenarioConfig cfg = live_rescale_config();
  cfg.rate_changes.clear();
  cfg.control.params.monitor.table.ttl = sim::ms(1);
  cfg.control.churn.enabled = true;
  cfg.control.churn.flows_per_sec = 100'000.0;
  cfg.control.churn.flow_lifetime = sim::ms(1);
  cfg.control.churn.rate_pps = 20'000.0;
  cfg.control.churn.reverse = true;
  const auto r = exp::run_scenario(cfg);
  // 12ms at 100k flows/s, two directions: ~2400 cumulative synthetic
  // flows, but live window is ~(1ms + 1ms) * 100k * 2 = ~400.
  EXPECT_GE(r.control.expired, 1000u);
  EXPECT_LE(r.control.peak, 800u);
  EXPECT_LE(r.control.tracked, 800u);
  EXPECT_GT(r.goodput_gbps, 1.0);
  EXPECT_EQ(r.drops_recovered, 0u);
  EXPECT_EQ(r.late_deliveries, 0u);
}
