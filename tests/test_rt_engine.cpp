// Real-thread engine: lock-free rings, calibration, and the system-level
// invariant that split/process/merge with REAL threads preserves order for
// any worker count and batch size.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "rt/calibrate.hpp"
#include "rt/engine.hpp"
#include "rt/spsc_ring.hpp"
#include "util/rng.hpp"

using namespace mflow::rt;

TEST(SpscRing, FifoSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, PeekDoesNotConsume) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.peek(), nullptr);
  ring.try_push(42);
  ASSERT_NE(ring.peek(), nullptr);
  EXPECT_EQ(*ring.peek(), 42);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(*ring.try_pop(), 42);
}

TEST(SpscRing, WrapsManyTimes) {
  SpscRing<std::uint64_t> ring(4);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    ASSERT_EQ(*ring.try_pop(), i);
  }
}

TEST(SpscRing, TwoThreadsTransferEverythingInOrder) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kN = 200000;
  std::jthread producer([&] {
    for (std::uint64_t i = 0; i < kN; ++i)
      while (!ring.try_push(i)) std::this_thread::yield();
  });
  std::uint64_t expected = 0;
  while (expected < kN) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
}

TEST(SpscRing, NonPowerOfTwoCapacityThrows) {
  // A bad mask silently corrupts data, so the check must be a hard error in
  // every build type, not an assert.
  EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
  EXPECT_THROW(SpscRing<int>(3), std::invalid_argument);
  EXPECT_THROW(SpscRing<int>(1000), std::invalid_argument);
  EXPECT_NO_THROW(SpscRing<int>(1));
  EXPECT_NO_THROW(SpscRing<int>(1024));
}

TEST(SpscRing, FailedRvaluePushLeavesValueIntact) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto keep = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(keep)));
  // The contract move-only packet handles rely on: a rejected push must not
  // have consumed the value.
  ASSERT_NE(keep, nullptr);
  EXPECT_EQ(*keep, 3);
  ASSERT_TRUE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.try_push(std::move(keep)));
  EXPECT_EQ(keep, nullptr);
}

// Property test: a randomized interleaving of scalar and batch operations
// must behave exactly like a plain deque of the same values.
TEST(SpscRing, BatchOpsMatchScalarModel) {
  mflow::util::Rng rng(0xbadc);
  SpscRing<std::uint64_t> ring(64);
  std::deque<std::uint64_t> model;
  std::uint64_t next = 0;
  std::array<std::uint64_t, 97> buf;
  for (int step = 0; step < 20000; ++step) {
    switch (rng.uniform(4)) {
      case 0: {  // scalar push
        const bool had_space = model.size() < 64u;
        const bool ok = ring.try_push(next);
        EXPECT_EQ(ok, had_space);
        if (ok) model.push_back(next++);
        break;
      }
      case 1: {  // scalar pop
        auto v = ring.try_pop();
        ASSERT_EQ(v.has_value(), !model.empty());
        if (v) {
          EXPECT_EQ(*v, model.front());
          model.pop_front();
        }
        break;
      }
      case 2: {  // batch push of random size (may exceed free space)
        const std::size_t want = 1 + rng.uniform(buf.size());
        for (std::size_t i = 0; i < want; ++i) buf[i] = next + i;
        const std::size_t pushed = ring.try_push_batch(buf.data(), want);
        EXPECT_EQ(pushed, std::min<std::size_t>(want, 64 - model.size()));
        for (std::size_t i = 0; i < pushed; ++i) model.push_back(next + i);
        next += pushed;
        break;
      }
      default: {  // batch pop of random size
        const std::size_t want = 1 + rng.uniform(buf.size());
        const std::size_t popped = ring.try_pop_batch(buf.data(), want);
        EXPECT_EQ(popped, std::min(want, model.size()));
        for (std::size_t i = 0; i < popped; ++i) {
          EXPECT_EQ(buf[i], model.front());
          model.pop_front();
        }
        break;
      }
    }
  }
}

TEST(SpscRing, BatchCrossThreadTransferEverythingInOrder) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kN = 200000;
  std::jthread producer([&] {
    std::array<std::uint64_t, 24> chunk;
    std::uint64_t sent = 0;
    while (sent < kN) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk.size(), kN - sent));
      for (std::size_t i = 0; i < want; ++i) chunk[i] = sent + i;
      std::size_t done = 0;
      while (done < want) {
        const std::size_t k = ring.try_push_batch(chunk.data() + done,
                                                  want - done);
        done += k;
        if (k == 0) std::this_thread::yield();
      }
      sent += want;
    }
  });
  std::array<std::uint64_t, 17> out;
  std::uint64_t expected = 0;
  while (expected < kN) {
    const std::size_t k = ring.try_pop_batch(out.data(), out.size());
    if (k == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(out[i], expected++);
  }
}

TEST(Calibrate, RatePositiveAndStable) {
  const double a = spin_iters_per_ns();
  const double b = spin_iters_per_ns();
  EXPECT_GT(a, 0.0);
  EXPECT_DOUBLE_EQ(a, b);  // memoized
}

TEST(RtReassembler, MergesRoundRobinBatches) {
  RtReassembler ra(2, 64);
  // Batch 1 -> worker 0, batch 2 -> worker 1, batch 3 -> worker 0.
  ASSERT_TRUE(ra.deposit(1, RtPacket{2, 2, 0, false}));  // batch 2 first
  ASSERT_TRUE(ra.deposit(0, RtPacket{0, 1, 0, false}));
  ASSERT_TRUE(ra.deposit(0, RtPacket{1, 1, 0, false}));
  ASSERT_TRUE(ra.deposit(0, RtPacket{3, 3, 0, false}));
  std::vector<std::uint64_t> seqs;
  while (auto p = ra.pop_ready()) seqs.push_back(p->seq);
  // Batch 2's ring is dry and no later batch proves it complete — that is
  // only knowable at end of stream, where the engine force-advances.
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2}));
  ra.force_advance();
  while (auto p = ra.pop_ready()) seqs.push_back(p->seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(ra.batches_merged(), 2u);
}

// A micro-flow's final packet completes it at the merge by itself: neither
// a later batch on the same ring nor the end of the stream is needed.
TEST(RtReassembler, BatchEndCompletesMicroflowWithoutLaterEvidence) {
  for (const bool batched : {false, true}) {
    RtReassembler ra(2, 64);
    ASSERT_TRUE(ra.deposit(1, RtPacket{.seq = 2, .batch = 2}));
    ASSERT_TRUE(ra.deposit(0, RtPacket{.seq = 0, .batch = 1}));
    ASSERT_TRUE(
        ra.deposit(0, RtPacket{.seq = 1, .batch = 1, .batch_end = true}));
    std::vector<std::uint64_t> seqs;
    if (batched) {
      RtPacket out[8];
      const std::size_t n = ra.pop_ready_batch(out, 8);
      for (std::size_t k = 0; k < n; ++k) seqs.push_back(out[k].seq);
    } else {
      while (auto p = ra.pop_ready()) seqs.push_back(p->seq);
    }
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2})) << batched;
    EXPECT_EQ(ra.batches_merged(), 1u) << batched;
  }
}

struct RtSweep {
  std::size_t workers;
  std::uint32_t batch;
  std::uint64_t packets;
};

class RtEngineSweep : public ::testing::TestWithParam<RtSweep> {};

TEST_P(RtEngineSweep, InOrderAndLossless) {
  const auto p = GetParam();
  EngineConfig cfg;
  cfg.workers = p.workers;
  cfg.batch_size = p.batch;
  cfg.cost_ns_per_packet = 50;  // keep the test fast
  Engine engine(cfg);
  std::uint64_t observed = 0;
  const auto res = engine.run(p.packets, [&](const RtPacket& pkt) {
    EXPECT_EQ(pkt.seq, observed);
    ++observed;
  });
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, p.packets);
  EXPECT_EQ(observed, p.packets);
  EXPECT_GT(res.packets_per_second(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtEngineSweep,
    ::testing::Values(RtSweep{1, 256, 5000}, RtSweep{2, 1, 5000},
                      RtSweep{2, 7, 5000}, RtSweep{2, 256, 20000},
                      RtSweep{3, 64, 20000}, RtSweep{4, 256, 20000},
                      RtSweep{4, 1024, 3000},  // partial final batch
                      RtSweep{2, 4096, 1000}   // single huge batch
                      ));

TEST(RtReassembler, DepositRetryBudgetBoundsTheSpin) {
  RtReassembler ra(1, 4);
  for (std::uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(ra.deposit(0, RtPacket{i, 1, 0, false}));
  // Ring full and the consumer never runs: a bounded deposit must give up
  // instead of yielding forever.
  EXPECT_FALSE(ra.deposit(0, RtPacket{4, 1, 0, false}, /*max_spins=*/8));
  // Consuming one slot makes the same deposit succeed.
  ASSERT_TRUE(ra.pop_ready().has_value());
  EXPECT_TRUE(ra.deposit(0, RtPacket{4, 1, 0, false}, /*max_spins=*/8));
}

TEST(RtEngine, InjectedDropsRecoverWithoutWedging) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.fault_drop_rate = 0.02;
  cfg.fault_seed = 42;
  constexpr std::uint64_t kTotal = 50000;
  std::uint64_t last_seq = 0;
  bool first = true;
  std::uint64_t observed = 0;
  const auto res = Engine(cfg).run(kTotal, [&](const RtPacket& pkt) {
    if (!first) {
      EXPECT_GT(pkt.seq, last_seq);
    }
    last_seq = pkt.seq;
    first = false;
    ++observed;
  });
  // ~2% of 50k packets vanish mid-pipeline; the merge must neither deliver
  // survivors out of order nor hang waiting for the holes.
  EXPECT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(res.packets + res.packets_dropped, kTotal);
  EXPECT_EQ(observed, res.packets);
  EXPECT_TRUE(res.in_order);
}

// Micro-flows larger than the rings, lossless. The consumer must complete
// a micro-flow whose worker has gone idle or exited while the next
// micro-flow's worker blocks on a full buffer ring (and, mid-stream, the
// generator behind it on a full splitting ring).
TEST(RtEngine, MicroflowLargerThanRingsTerminatesInOrder) {
  struct Case {
    std::size_t workers;
    std::uint32_t batch;
    std::uint64_t total;
  };
  for (const Case c : {Case{2, 100, 200}, Case{3, 1000, 3500}}) {
    EngineConfig cfg;
    cfg.workers = c.workers;
    cfg.batch_size = c.batch;
    cfg.ring_capacity = 64;
    cfg.cost_ns_per_packet = 0;
    cfg.max_push_spins = 0;
    std::uint64_t observed = 0;
    const auto res = Engine(cfg).run(c.total, [&](const RtPacket& pkt) {
      EXPECT_EQ(pkt.seq, observed);
      ++observed;
    });
    EXPECT_TRUE(res.in_order) << c.workers;
    EXPECT_EQ(res.packets, c.total) << c.workers;
    EXPECT_EQ(res.packets_dropped, 0u) << c.workers;
  }
}

// The same shape under injected loss: a worker that drops a micro-flow's
// final packet forwards a marker in its place, so the merge still learns
// the micro-flow is complete.
TEST(RtEngine, MicroflowLargerThanRingsUnderFaultsTerminates) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.batch_size = 1000;
  cfg.ring_capacity = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;
  cfg.fault_drop_rate = 0.05;
  cfg.fault_seed = 7;
  constexpr std::uint64_t kTotal = 100000;
  const auto res = Engine(cfg).run(kTotal);
  EXPECT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(res.packets + res.packets_dropped, kTotal);
  EXPECT_TRUE(res.in_order);
}

TEST(RtEngine, TinyRingWithBoundedRetryDegradesInsteadOfSpinning) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 8;
  cfg.ring_capacity = 8;
  cfg.cost_ns_per_packet = 2000;  // workers slower than the generator
  cfg.max_push_spins = 4;        // almost no patience
  const auto res = Engine(cfg).run(20000);
  // Conservation and survivor ordering hold whether or not backpressure
  // actually triggered on this host.
  EXPECT_EQ(res.packets + res.packets_dropped, 20000u);
  EXPECT_TRUE(res.in_order);
}

TEST(RtEngine, ZeroCostStillOrdered) {
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  const auto res = Engine(cfg).run(50000);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, 50000u);
}

// Live rescale under real concurrency: the stream shrinks to one worker and
// grows back mid-run via epoch messages, with old-epoch batches draining
// under the old mapping while new ones fill under the new. Ordering and
// conservation must hold through both transitions.
TEST(RtEngine, RuntimeRescaleShrinkAndGrowStaysOrdered) {
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;  // lossless: conservation is exact
  cfg.rescales = {{10000, 1}, {25000, 3}};
  constexpr std::uint64_t kTotal = 40000;
  std::uint64_t observed = 0;
  const auto res = Engine(cfg).run(kTotal, [&](const RtPacket& pkt) {
    EXPECT_EQ(pkt.seq, observed);
    ++observed;
  });
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, kTotal);
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_EQ(observed, kTotal);
  EXPECT_EQ(res.rescales_applied, 2u);
}

// Live capacity changes past the merger's epoch budget (64 per run): the
// budget's changes apply, later ones are refused and counted, and a
// refused change leaves the worker mapping untouched, so the run still
// terminates with every packet in order. The poster waits for each change
// to apply, or for proof that the generator sampled it: the generator runs
// at most pool_capacity packets ahead of delivery, so once delivery has
// moved that far plus two batches, a micro-flow boundary has passed.
TEST(RtEngine, LiveCapacityChangesPastEpochBudgetTerminateInOrder) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 8;
  cfg.ring_capacity = 64;
  cfg.pool_capacity = 256;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;  // lossless
  constexpr std::uint64_t kTotal = 200000;
  constexpr int kChanges = 200;
  Engine eng(cfg);
  EngineCapacityAdapter adapter(eng);
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> done{false};
  int posted = 0;
  std::thread poster([&] {
    for (int k = 0; k < kChanges && !done.load(); ++k) {
      const std::uint32_t want = k % 2 == 0 ? 1 : 2;
      adapter.set_active_workers(want);
      ++posted;
      const std::uint64_t from = delivered.load();
      while (!done.load() && adapter.active_workers() != want &&
             delivered.load() < from + cfg.pool_capacity + 2 * cfg.batch_size)
        std::this_thread::yield();
    }
  });
  const auto res = eng.run(kTotal, [&](const RtPacket&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  done.store(true);
  poster.join();
  EXPECT_EQ(posted, kChanges);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, kTotal);
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_EQ(res.rescales_applied, 64u);
  EXPECT_GT(res.rescales_refused, 0u);
}

// Same-degree rescale entries coalesce to no epoch at all.
TEST(RtEngine, NoOpRescaleAnnouncesNothing) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.rescales = {{500, 2}};  // already at 2 workers
  const auto res = Engine(cfg).run(2000);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.rescales_applied, 0u);
}

// Rescaling while packets are being injected-dropped: the drain protocol
// must not double-count or wedge when holes land near epoch boundaries.
TEST(RtEngine, RescaleUnderFaultsConservesSurvivors) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.fault_drop_rate = 0.02;
  cfg.fault_seed = 7;
  cfg.rescales = {{8000, 1}, {16000, 3}, {24000, 2}};
  constexpr std::uint64_t kTotal = 32000;
  const auto res = Engine(cfg).run(kTotal);
  EXPECT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(res.packets + res.packets_dropped, kTotal);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.rescales_applied, 3u);
}

// Flow-state churn tracking: the shared control::FlowTable driven on the
// batch-index clock. Peak occupancy must follow the live window (ttl /
// flow lifetime), not cumulative flows, and — because worker touches
// replay a flow's own batch number, which monotone touch turns into
// no-ops against the generator's stamps — the telemetry must be
// bit-identical across runs despite real threads.
TEST(RtEngine, FlowTableChurnBoundedAndDeterministic) {
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;
  cfg.flow_table.enabled = true;
  cfg.flow_table.capacity = 1 << 10;
  cfg.flow_table.ttl_batches = 64;
  cfg.flow_table.sweep_every = 16;
  cfg.flow_table.flow_lifetime_batches = 4;
  constexpr std::uint64_t kTotal = 80000;  // 5000 batches, ~1250 flows
  const auto a = Engine(cfg).run(kTotal);
  EXPECT_TRUE(a.in_order);
  EXPECT_EQ(a.packets, kTotal);
  EXPECT_GT(a.flow_table.expired, 1000u);
  EXPECT_LE(a.flow_table.peak, 64u);  // live window ~ ttl/lifetime + 1 = 17
  EXPECT_LE(a.flow_table.live, a.flow_table.peak);
  const auto b = Engine(cfg).run(kTotal);
  EXPECT_EQ(b.flow_table.peak, a.flow_table.peak);
  EXPECT_EQ(b.flow_table.expired, a.flow_table.expired);
  EXPECT_EQ(b.flow_table.live, a.flow_table.live);
}

// Overlay mode keeps its batch % flows identity: every flow is re-touched
// well inside the TTL, so the table settles at exactly the flow count and
// nothing ever expires.
TEST(RtEngine, FlowTableOverlayHotSetNeverExpires) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;
  cfg.overlay.enabled = true;
  cfg.overlay.flows = 8;
  cfg.flow_table.enabled = true;
  cfg.flow_table.ttl_batches = 32;
  cfg.flow_table.sweep_every = 8;
  const auto res = Engine(cfg).run(20000);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, 20000u);
  EXPECT_EQ(res.flow_table.peak, 8u);
  EXPECT_EQ(res.flow_table.live, 8u);
  EXPECT_EQ(res.flow_table.expired, 0u);
}
