// Real-thread engine: lock-free rings, calibration, and the system-level
// invariant that split/process/merge with REAL threads preserves order for
// any worker count and batch size.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "drop_breakdown.hpp"
#include "rt/calibrate.hpp"
#include "rt/engine.hpp"
#include "rt/spsc_ring.hpp"
#include "trace/trace.hpp"
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

namespace {

// Deposit one metadata-only packet into buffer ring `w`.
void put(RtReassembler& ra, std::size_t w, std::uint64_t seq,
         std::uint64_t batch, bool batch_end = false) {
  RtPacket pkt;
  pkt.seq = seq;
  pkt.batch = batch;
  pkt.batch_end = batch_end;
  ASSERT_EQ(ra.deposit_batch(w, &pkt, 1), 1u);
}

// Seqs of everything the merge head releases right now, in order.
std::vector<std::uint64_t> pop_seqs(RtReassembler& ra) {
  std::vector<std::uint64_t> seqs;
  RtPacket out[8];
  while (const std::size_t n = ra.pop_ready_batch(out, 8))
    for (std::size_t k = 0; k < n; ++k) seqs.push_back(out[k].seq);
  return seqs;
}

}  // namespace

TEST(RtReassembler, MergesRoundRobinBatches) {
  RtReassembler ra(2, 64);
  // Batch 1 -> worker 0, batch 2 -> worker 1, batch 3 -> worker 0.
  put(ra, 1, 2, 2);  // batch 2 first
  put(ra, 0, 0, 1);
  put(ra, 0, 1, 1);
  put(ra, 0, 3, 3);
  // Batch 2's ring is dry and no later batch proves it complete — that is
  // only knowable at end of stream, where the engine force-advances.
  EXPECT_EQ(pop_seqs(ra), (std::vector<std::uint64_t>{0, 1, 2}));
  ra.force_advance();
  EXPECT_EQ(pop_seqs(ra), (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(ra.batches_merged(), 2u);
}

// A micro-flow's final packet completes it at the merge by itself: neither
// a later batch on the same ring nor the end of the stream is needed.
TEST(RtReassembler, BatchEndCompletesMicroflowWithoutLaterEvidence) {
  RtReassembler ra(2, 64);
  put(ra, 1, 2, 2);
  put(ra, 0, 0, 1);
  put(ra, 0, 1, 1, /*batch_end=*/true);
  EXPECT_EQ(pop_seqs(ra), (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(ra.batches_merged(), 1u);
}

// The epoch ring holds only epochs the merge head has not reached: it
// refuses exactly when it is full of those, takes one more each time the
// head passes one, and so accepts any number over the merger's life.
TEST(RtReassembler, EpochRingRefusesOnlyWhenFullOfUnreachedEpochs) {
  RtReassembler ra(2, 64, /*epoch_capacity_pow2=*/4);
  // Every batch from 2 on opens an epoch, so each batch's owner is ring 0.
  std::uint64_t next_epoch = 2;
  const auto announce = [&] {
    const bool ok = ra.announce_epoch(
        {next_epoch, next_epoch % 2 == 0 ? 1u : 2u});
    if (ok) ++next_epoch;
    return ok;
  };
  for (int k = 0; k < 4; ++k) ASSERT_TRUE(announce());
  EXPECT_FALSE(announce());  // batches 2-5 announced, head still at 1

  put(ra, 0, 0, 1, /*batch_end=*/true);
  EXPECT_EQ(pop_seqs(ra), (std::vector<std::uint64_t>{0}));
  EXPECT_TRUE(announce());   // the head reached batch 2: its epoch retired
  EXPECT_FALSE(announce());  // batches 3-6 unreached

  std::uint64_t seq = 1;
  for (std::uint64_t batch = 2; batch < 1500; ++batch, ++seq) {
    put(ra, 0, seq, batch, /*batch_end=*/true);
    ASSERT_EQ(pop_seqs(ra), (std::vector<std::uint64_t>{seq}));
    ASSERT_TRUE(announce()) << batch;
  }
  EXPECT_GT(next_epoch - 2, 1000u);
  EXPECT_EQ(ra.batches_merged(), 1499u);
  EXPECT_EQ(ra.occupancy(), 0u);
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
  EXPECT_TRUE(res.in_order) << drop_breakdown(res);
  EXPECT_EQ(res.packets, p.packets) << drop_breakdown(res);
  EXPECT_EQ(observed, p.packets) << drop_breakdown(res);
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
  for (std::uint64_t i = 0; i < 4; ++i) put(ra, 0, i, 1);
  // Ring full and the consumer never runs: a bounded deposit must give up
  // instead of yielding forever, leaving the packet with the caller.
  RtPacket pkt;
  pkt.seq = 4;
  pkt.batch = 1;
  EXPECT_EQ(ra.deposit_batch(0, &pkt, 1, /*max_spins=*/8), 0u);
  EXPECT_EQ(pkt.seq, 4u);
  // Consuming one slot makes the same deposit succeed.
  RtPacket out;
  ASSERT_EQ(ra.pop_ready_batch(&out, 1), 1u);
  EXPECT_EQ(ra.deposit_batch(0, &pkt, 1, /*max_spins=*/8), 1u);
}

// Every lost packet is counted under the reason it was lost for. Injected
// faults alone lose packets here, so every drop is a fault drop; the engine
// itself aborts when the reasons do not sum to packets_dropped.
TEST(RtEngine, DropReasonsNameEveryLoss) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;
  cfg.fault_drop_rate = 0.05;
  const auto res = Engine(cfg).run(20000);
  EXPECT_TRUE(res.in_order);
  EXPECT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(res.drops.fault, res.packets_dropped) << drop_breakdown(res);
  EXPECT_EQ(res.packets + res.drops.fault, 20000u);
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

TEST(RtEngine, SplitRingBudgetShedsNotWedges) {
  // Workers far slower than the generator, behind 8-slot split rings: the
  // generator must give up on a full split ring after max_push_spins
  // yields and shed the chunk, not wait for room. A generator that waits
  // without a budget sheds nothing there and fails the first expectation.
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 16;
  cfg.ring_capacity = 8;
  cfg.cost_ns_per_packet = 50'000;
  cfg.max_push_spins = 4;
  constexpr std::uint64_t kTotal = 20000;
  const auto res = Engine(cfg).run(kTotal);
  EXPECT_GT(res.drops.split_ring, 0u) << drop_breakdown(res);
  EXPECT_EQ(res.packets + res.packets_dropped, kTotal) << drop_breakdown(res);
  EXPECT_TRUE(res.in_order) << drop_breakdown(res);
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

// Live capacity changes all apply, in order: epochs retire at the merge
// head, so there is no budget to run out of. Change k is due at delivered
// packet k * kEvery, and the sink holds delivery there until the poster has
// posted it, so the run cannot end before every change is in, however the
// threads are scheduled. The poster then waits for the change to apply, or
// for proof that the generator sampled it: delivery had not passed
// k * kEvery when the change landed, and the generator runs at most
// pool_capacity packets ahead of delivery, so once delivery is two batches
// past that, a micro-flow boundary has passed. kEvery exceeds that distance,
// so the proof never waits on the next checkpoint.
TEST(RtEngine, LiveCapacityChangesAllApplyInOrder) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 8;
  cfg.ring_capacity = 64;
  cfg.pool_capacity = 256;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;  // lossless
  constexpr std::uint64_t kTotal = 200000;
  constexpr int kChanges = 200;
  constexpr std::uint64_t kEvery = kTotal / kChanges;
  const std::uint64_t sample_lag = cfg.pool_capacity + 2 * cfg.batch_size;
  ASSERT_GT(kEvery, sample_lag);
  Engine eng(cfg);
  EngineCapacityAdapter adapter(eng);
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<int> posted{0};
  std::atomic<bool> done{false};
  std::thread poster([&] {
    for (int k = 0; k < kChanges && !done.load(); ++k) {
      const std::uint32_t want = k % 2 == 0 ? 1 : 2;
      adapter.set_active_workers(want);
      posted.store(k + 1);
      const std::uint64_t sampled_by =
          static_cast<std::uint64_t>(k) * kEvery + sample_lag;
      while (!done.load() && adapter.active_workers() != want &&
             delivered.load() < sampled_by)
        std::this_thread::yield();
    }
  });
  const auto res = eng.run(kTotal, [&](const RtPacket&) {
    const std::uint64_t n = delivered.load();
    if (n % kEvery == 0) {
      const auto due = static_cast<int>(n / kEvery);
      while (posted.load() <= due) std::this_thread::yield();
    }
    delivered.store(n + 1);
  });
  done.store(true);
  poster.join();
  EXPECT_EQ(posted.load(), kChanges);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, kTotal);
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_EQ(res.rescales_applied, static_cast<std::uint64_t>(kChanges));
}

namespace {

// A schedule of `changes` entries, one every `every` packets from packet 0,
// alternating 1 and 2 workers (so every entry changes the mapping).
std::vector<EngineConfig::Rescale> alternating_schedule(std::uint64_t changes,
                                                        std::uint64_t every) {
  std::vector<EngineConfig::Rescale> s;
  for (std::uint64_t k = 0; k < changes; ++k)
    s.push_back({k * every, k % 2 == 0 ? 1u : 2u});
  return s;
}

}  // namespace

// 10k scheduled changes, each due at its own micro-flow boundary: a
// lossless run applies every one and delivers in order.
TEST(RtEngine, TenThousandScheduledChangesAllApply) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 8;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;  // lossless
  constexpr std::uint64_t kChanges = 10000;
  cfg.rescales = alternating_schedule(kChanges, 2 * cfg.batch_size);
  const std::uint64_t total = kChanges * 2 * cfg.batch_size;
  std::uint64_t observed = 0;
  const auto res = Engine(cfg).run(total, [&](const RtPacket& pkt) {
    EXPECT_EQ(pkt.seq, observed);
    ++observed;
  });
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, total);
  EXPECT_EQ(observed, total);
  EXPECT_EQ(res.rescales_applied, kChanges);
}

// Worst case for the epoch ring's depth: one-packet micro-flows, a change
// at every boundary, and a pool sized so pool / batch_size + 2 is exactly a
// power of two — the ring is as small as the engine ever makes it. The
// processing cost lets the generator run a whole pool ahead of the merge,
// so an unmerged epoch sits behind every slab. Lossless, so every change
// applies.
TEST(RtEngine, ChangeAtEveryUnitBatchBoundaryAllApply) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 1;
  cfg.ring_capacity = 64;
  cfg.pool_capacity = 62;
  cfg.cost_ns_per_packet = 200;
  cfg.max_push_spins = 0;  // lossless
  constexpr std::uint64_t kTotal = 20000;
  cfg.rescales = alternating_schedule(kTotal, 1);
  const auto res = Engine(cfg).run(kTotal);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, kTotal);
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_EQ(res.rescales_applied, kTotal);
}

// The 10k schedule with injected drops and bounded retries: a full epoch
// ring may defer a change, but the run terminates with every packet
// accounted for and the survivors in order.
TEST(RtEngine, TenThousandScheduledChangesUnderFaultsTerminate) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 8;
  cfg.cost_ns_per_packet = 0;
  cfg.fault_drop_rate = 0.02;
  cfg.fault_seed = 11;
  cfg.max_push_spins = 1u << 12;
  constexpr std::uint64_t kChanges = 10000;
  cfg.rescales = alternating_schedule(kChanges, 2 * cfg.batch_size);
  const std::uint64_t total = kChanges * 2 * cfg.batch_size;
  const auto res = Engine(cfg).run(total);
  EXPECT_GT(res.packets_dropped, 0u);
  EXPECT_EQ(res.packets + res.packets_dropped, total);
  EXPECT_TRUE(res.in_order);
  EXPECT_GT(res.rescales_applied, 0u);
  EXPECT_LE(res.rescales_applied, kChanges);
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

// Flow-state churn tracking: the generator's control::FlowTable driven on
// the batch-index clock. Peak occupancy must follow the live window (ttl /
// flow lifetime), not cumulative flows, and — because only the generator
// thread touches the table — the telemetry must be bit-identical across
// runs despite real threads.
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

// A config no run could serve fails at construction, not mid-run: zero
// workers used to divide by zero at the first micro-flow, zero-packet
// micro-flows never advanced the generator, and a descending schedule
// silently lost its later entry. Entries due at one packet are ascending.
TEST(RtEngine, RejectsInvalidConfig) {
  EngineConfig no_workers;
  no_workers.workers = 0;
  EXPECT_THROW(Engine{no_workers}, std::invalid_argument);
  EngineConfig empty_microflows;
  empty_microflows.batch_size = 0;
  EXPECT_THROW(Engine{empty_microflows}, std::invalid_argument);
  EngineConfig descending;
  descending.rescales = {{5000, 1}, {1000, 2}};
  EXPECT_THROW(Engine{descending}, std::invalid_argument);
  EngineConfig tied;
  tied.rescales = {{1000, 1}, {1000, 2}};
  EXPECT_NO_THROW(Engine{tied});
}

// A tracer only observes: the rt-overlay-nf shape (VXLAN with per-worker
// caches, flow table, nat,fw,lb under SCR, 2<->1 rescales) delivers the
// same stream and the same state with one set as without. Injected faults
// make the delivered sequence depend on every worker's per-packet path;
// each worker's fault draws are a function of the packets it is given,
// and a lossless run gives it the same packets every time.
TEST(RtEngine, TracingChangesNoDeliveredState) {
  if (!mflow::trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;  // no backpressure drops: faults are the only loss
  cfg.fault_drop_rate = 0.01;
  cfg.fault_seed = 3;
  cfg.overlay.enabled = true;
  cfg.overlay.cache = true;
  cfg.overlay.flows = 24;
  cfg.overlay.cache_slots = 16;  // conflict evictions: hits and misses both
  cfg.flow_table.enabled = true;
  cfg.nf.enabled = true;
  cfg.nf.strategy = mflow::nf::Strategy::kScr;
  cfg.nf.chain.chain = {mflow::nf::Kind::kNat, mflow::nf::Kind::kFirewall,
                        mflow::nf::Kind::kLoadBalancer};
  constexpr std::uint64_t kTotal = 20000;
  cfg.rescales = {{5000, 1}, {10000, 2}, {15000, 1}};
  const auto run = [&](mflow::trace::Tracer* tracer,
                       std::vector<std::uint64_t>& seqs) {
    mflow::trace::set_current(tracer);
    const auto res = Engine(cfg).run(
        kTotal, [&](const RtPacket& pkt) { seqs.push_back(pkt.seq); });
    mflow::trace::set_current(nullptr);
    return res;
  };
  std::vector<std::uint64_t> plain_seqs, traced_seqs;
  const EngineResult plain = run(nullptr, plain_seqs);
  mflow::trace::Tracer tr({.enabled = true});
  const EngineResult traced = run(&tr, traced_seqs);
  EXPECT_FALSE(tr.sorted_events().empty());
  EXPECT_TRUE(plain.in_order);
  EXPECT_TRUE(traced.in_order);
  EXPECT_GT(plain.packets_dropped, 0u);
  EXPECT_EQ(traced_seqs, plain_seqs);
  EXPECT_EQ(traced.nf_state_digest, plain.nf_state_digest);
  EXPECT_EQ(traced.cache_hits + traced.cache_misses,
            plain.cache_hits + plain.cache_misses);
  EXPECT_EQ(traced.rescales_applied, 3u);
  EXPECT_EQ(plain.rescales_applied, 3u);
}
