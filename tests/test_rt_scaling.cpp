// Tests for the rt scaling stack: topology discovery + core planning
// (rt/topology.hpp), the scalability profiler and its attribution model
// (rt/profiler.hpp), the SpscRing batched-path contracts the fan-in
// fabric depends on, and cross-thread ordering/conservation of the
// per-worker fan-in merge at several widths (with live rescales and
// injected faults). Everything here must be green under asan-ubsan AND
// tsan — the fan-in properties are exactly the ones a data race would
// corrupt first.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "drop_breakdown.hpp"
#include "rt/engine.hpp"
#include "rt/profiler.hpp"
#include "rt/spsc_ring.hpp"
#include "rt/topology.hpp"
#include "util/rng.hpp"

using namespace mflow;
using namespace mflow::rt;

namespace {

// ---------------------------------------------------------------- cpulist

TEST(ParseCpulist, RangesSinglesAndJunk) {
  EXPECT_EQ(parse_cpulist("0-3,5,7-8"),
            (std::vector<int>{0, 1, 2, 3, 5, 7, 8}));
  EXPECT_EQ(parse_cpulist("4"), (std::vector<int>{4}));
  EXPECT_EQ(parse_cpulist("0-1\n"), (std::vector<int>{0, 1}));
  EXPECT_TRUE(parse_cpulist("").empty());
  // Malformed chunks are skipped, valid ones kept; duplicates collapse.
  EXPECT_EQ(parse_cpulist("x,2,2,1-x,3"), (std::vector<int>{2, 3}));
}

// ----------------------------------------------------------- fake sysfs

/// Writes a fake sysfs topology tree: `pairs` physical cores, two logical
/// CPUs each (SMT), split across `nodes` NUMA nodes. Layout mirrors the
/// kernel's: cpu i and cpu i+pairs are siblings of core i.
class FakeSysfs {
 public:
  FakeSysfs(int pairs, int nodes) {
    root_ = std::filesystem::temp_directory_path() /
            ("mflow_sysfs_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    const int total = 2 * pairs;
    const auto cpu_dir = root_ / "devices/system/cpu";
    std::filesystem::create_directories(cpu_dir);
    write(cpu_dir / "online", "0-" + std::to_string(total - 1) + "\n");
    for (int c = 0; c < total; ++c) {
      const auto topo = cpu_dir / ("cpu" + std::to_string(c)) / "topology";
      std::filesystem::create_directories(topo);
      write(topo / "core_id", std::to_string(c % pairs) + "\n");
      write(topo / "physical_package_id", "0\n");
    }
    for (int n = 0; n < nodes; ++n) {
      const auto node_dir =
          root_ / "devices/system/node" / ("node" + std::to_string(n));
      std::filesystem::create_directories(node_dir);
      // Split the core pairs evenly across nodes, keeping siblings
      // together: node n owns cores [n*pairs/nodes, (n+1)*pairs/nodes).
      const int lo = n * pairs / nodes, hi = (n + 1) * pairs / nodes;
      std::string list;
      for (int core = lo; core < hi; ++core) {
        if (!list.empty()) list += ",";
        list += std::to_string(core) + "," + std::to_string(core + pairs);
      }
      write(node_dir / "cpulist", list + "\n");
    }
  }
  ~FakeSysfs() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  std::string root() const { return root_.string(); }

 private:
  static void write(const std::filesystem::path& p, const std::string& s) {
    std::ofstream(p) << s;
  }
  std::filesystem::path root_;
  static inline int counter_ = 0;
};

TEST(CpuTopologyTest, DiscoversFakeTree) {
  FakeSysfs fs(/*pairs=*/4, /*nodes=*/2);  // 8 logical CPUs
  const CpuTopology topo = CpuTopology::discover(fs.root());
  ASSERT_EQ(topo.size(), 8u);
  EXPECT_EQ(topo.cpus[0].cpu, 0);
  EXPECT_EQ(topo.cpus[0].core_id, 0);
  EXPECT_EQ(topo.cpus[4].core_id, 0);  // SMT sibling of cpu 0
  EXPECT_EQ(topo.cpus[0].numa_node, 0);
  EXPECT_EQ(topo.cpus[3].numa_node, 1);  // core 3 lives on node 1
  EXPECT_EQ(topo.cpus[7].numa_node, 1);
}

TEST(CpuTopologyTest, MissingSysfsSynthesizesIndependentCores) {
  const CpuTopology topo = CpuTopology::discover("/nonexistent-sysfs-root");
  ASSERT_EQ(topo.size(),
            std::max(1u, std::thread::hardware_concurrency()));
  for (const auto& c : topo.cpus) {
    EXPECT_EQ(c.core_id, c.cpu);  // independent cores, one node
    EXPECT_EQ(c.numa_node, 0);
  }
}

// ------------------------------------------------------------ plan_cores

/// core_id of a logical cpu in `topo`, -1 if unknown.
int core_of(const CpuTopology& topo, int cpu) {
  for (const auto& c : topo.cpus)
    if (c.cpu == cpu) return c.core_id;
  return -1;
}
int node_of(const CpuTopology& topo, int cpu) {
  for (const auto& c : topo.cpus)
    if (c.cpu == cpu) return c.numa_node;
  return -1;
}

TEST(PlanCoresTest, WorkersOnDistinctPhysicalCoresFirst) {
  FakeSysfs fs(/*pairs=*/4, /*nodes=*/1);  // 4 cores x 2 SMT = 8 CPUs
  const CpuTopology topo = CpuTopology::discover(fs.root());
  const CorePlan plan = plan_cores(topo, /*workers=*/3);
  ASSERT_EQ(plan.workers.size(), 3u);
  std::vector<int> cores;
  for (int cpu : plan.workers) {
    ASSERT_GE(cpu, 0);
    cores.push_back(core_of(topo, cpu));
  }
  std::sort(cores.begin(), cores.end());
  EXPECT_EQ(std::unique(cores.begin(), cores.end()), cores.end())
      << "two workers share a physical core while cores are spare";
  // Generator + consumer co-located on the SMT siblings of the one spare
  // physical core.
  ASSERT_GE(plan.generator, 0);
  ASSERT_GE(plan.consumer, 0);
  EXPECT_NE(plan.generator, plan.consumer);
  EXPECT_EQ(core_of(topo, plan.generator), core_of(topo, plan.consumer));
}

TEST(PlanCoresTest, UnpinnedWhenHostTooSmall) {
  FakeSysfs fs(/*pairs=*/2, /*nodes=*/1);  // 4 logical CPUs
  const CpuTopology topo = CpuTopology::discover(fs.root());
  // 4 workers + generator + consumer = 6 threads > 4 CPUs: pinning would
  // serialize the pipeline behind the scheduler.
  EXPECT_FALSE(plan_cores(topo, 4).any());
  // 2 workers + 2 = 4 threads fits exactly.
  EXPECT_TRUE(plan_cores(topo, 2).any());
}

TEST(PlanCoresTest, StaysOnHomeNumaNode) {
  FakeSysfs fs(/*pairs=*/4, /*nodes=*/2);  // 2 cores x 2 SMT per node
  const CpuTopology topo = CpuTopology::discover(fs.root());
  const CorePlan plan = plan_cores(topo, /*workers=*/2);
  ASSERT_TRUE(plan.any());
  const int home = node_of(topo, plan.workers[0]);
  for (int cpu : plan.workers) EXPECT_EQ(node_of(topo, cpu), home);
  EXPECT_EQ(node_of(topo, plan.generator), home);
  EXPECT_EQ(node_of(topo, plan.consumer), home);
}

TEST(PinThreadTest, PinAndRestore) {
  EXPECT_FALSE(pin_current_thread(-1));
#if defined(__linux__)
  // CPU 0 exists on any host this test runs on.
  EXPECT_TRUE(pin_current_thread(0));
  EXPECT_TRUE(unpin_current_thread());
#endif
}

// ------------------------------------------------------------- profiler

TEST(StallClockTest, EpisodeAccounting) {
  StallClock clock;
  std::uint64_t episodes = 0, ns = 0;
  clock.resolve(episodes, ns);  // not armed: no-op
  EXPECT_EQ(episodes, 0u);
  clock.stall();
  EXPECT_TRUE(clock.armed());
  clock.stall();  // re-arming while armed is free and keeps t0
  clock.resolve(episodes, ns);
  EXPECT_EQ(episodes, 1u);
  EXPECT_FALSE(clock.armed());
  clock.stall();
  clock.resolve(episodes, ns);
  EXPECT_EQ(episodes, 2u);
}

/// Build a worker block: `items` processed over `busy_ns` of busy time,
/// plus the given stalls (active = busy + stalls).
StageCounters make_worker(std::uint64_t items, std::uint64_t busy_ns,
                          std::uint64_t dry_ns, std::uint64_t full_ns) {
  StageCounters c;
  c.items = items;
  c.input_dry_ns = dry_ns;
  c.output_full_ns = full_ns;
  c.active_ns = busy_ns + dry_ns + full_ns;
  return c;
}

TEST(AttributionTest, StallsExplainLossExactly) {
  // Two workers at exactly the anchor rate (1 pkt per 100 ns), each
  // stalled half the run: ideal = 2 x anchor, measured = half of that,
  // and the named points must explain the entire gap.
  ProfileReport rep;
  rep.enabled = true;
  rep.workers = 2;
  rep.wall_seconds = 1.0;
  const std::uint64_t ns = 1'000'000'000;
  rep.worker.push_back(make_worker(ns / 200, ns / 2, ns / 2, 0));
  rep.worker.push_back(make_worker(ns / 200, ns / 2, 0, ns / 2));
  const double anchor = 1e9 / 100.0;  // 1-worker rate, pkts/s
  const double measured = 2.0 * (ns / 200) / 1.0;
  const ScalingAttribution attr = attribute_scaling(rep, anchor, measured);
  EXPECT_DOUBLE_EQ(attr.ideal_pps, 2.0 * anchor);
  EXPECT_NEAR(attr.lost_pps, anchor, 1.0);
  EXPECT_NEAR(attr.coverage, 1.0, 1e-6);
  ASSERT_EQ(attr.points.size(), 3u);
  // Sorted by lost_pps: starved and backpressured each explain half.
  EXPECT_NEAR(attr.points[0].lost_pps, anchor / 2, 1.0);
  EXPECT_NEAR(attr.points[1].lost_pps, anchor / 2, 1.0);
  EXPECT_DOUBLE_EQ(attr.points[2].lost_pps, 0.0);
}

TEST(AttributionTest, SlowdownResidualCatchesUnstallLoss) {
  // One worker, never stalled, but running at half the anchor rate
  // (cache/SMT contention): no stall point fires, so the slowdown
  // residual must carry the whole loss.
  ProfileReport rep;
  rep.enabled = true;
  rep.workers = 1;
  rep.wall_seconds = 1.0;
  const std::uint64_t ns = 1'000'000'000;
  rep.worker.push_back(make_worker(ns / 200, ns, 0, 0));  // 1 per 200ns
  const double anchor = 1e9 / 100.0;                      // 1 per 100ns
  const double measured = static_cast<double>(ns / 200);
  const ScalingAttribution attr = attribute_scaling(rep, anchor, measured);
  EXPECT_NEAR(attr.coverage, 1.0, 1e-6);
  EXPECT_NE(attr.points[0].name.find("slowdown"), std::string::npos);
  EXPECT_NEAR(attr.points[0].share, 1.0, 1e-6);
}

TEST(AttributionTest, DisabledReportYieldsEmpty) {
  const ScalingAttribution attr = attribute_scaling({}, 1e6, 5e5);
  EXPECT_TRUE(attr.points.empty());
  EXPECT_EQ(attr.ideal_pps, 0.0);
}

// ----------------------------------------------- SpscRing batched paths

TEST(SpscRingBatch, ZeroCountOpsAreNoOps) {
  SpscRing<int> ring(8);
  int buf[4] = {1, 2, 3, 4};
  // Zero-size push/pop must not publish a no-op index store (the fan-in
  // consumer polls these lines) and must not disturb ring state.
  EXPECT_EQ(ring.try_push_batch(buf, 0), 0u);
  EXPECT_EQ(ring.try_pop_batch(buf, 0), 0u);
  EXPECT_EQ(ring.try_push_batch(buf, 4), 4u);
  EXPECT_EQ(ring.try_pop_batch(buf, 0), 0u);
  int out[4] = {};
  EXPECT_EQ(ring.try_pop_batch(out, 4), 4u);
  EXPECT_EQ(out[3], 4);
}

TEST(SpscRingBatch, PopRefreshesCachedHeadOnShortfall) {
  // Regression guard for the batched-pop cached-index contract
  // (spsc_ring.hpp): once the producer's publication is visible through
  // ANY release/acquire chain, the consumer's FIRST try_pop_batch asking
  // for that many items must deliver them all — a stale cached head may
  // only ever under-report transiently, never after a synchronized
  // handoff.
  constexpr int kItems = 64;
  SpscRing<int> ring(128);
  std::atomic<bool> published{false};
  std::jthread producer([&] {
    int vals[kItems];
    for (int i = 0; i < kItems; ++i) vals[i] = i;
    ASSERT_EQ(ring.try_push_batch(vals, kItems),
              static_cast<std::size_t>(kItems));
    published.store(true, std::memory_order_release);
  });
  while (!published.load(std::memory_order_acquire))
    std::this_thread::yield();
  int out[kItems] = {};
  // The consumer's cached head still says "empty"; the shortfall must
  // force an acquire refresh that sees the whole published batch.
  EXPECT_EQ(ring.try_pop_batch(out, kItems),
            static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(out[i], i);
}

TEST(SpscRingBatch, FanInConservationAcrossRings) {
  // N producers, one consumer draining all rings round-robin with
  // batched pops: every item arrives exactly once, in per-ring FIFO
  // order — the exact access pattern of the merge fabric and the
  // generator's drop-ring sweep.
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  std::vector<std::unique_ptr<SpscRing<std::uint64_t>>> rings;
  for (std::size_t p = 0; p < kProducers; ++p)
    rings.push_back(std::make_unique<SpscRing<std::uint64_t>>(256));
  std::vector<std::jthread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t vals[32];
      std::uint64_t next = 0;
      while (next < kPerProducer) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(32, kPerProducer - next));
        for (std::size_t i = 0; i < want; ++i) vals[i] = next + i;
        std::size_t done = 0;
        while (done < want) {
          const std::size_t k =
              rings[p]->try_push_batch(vals + done, want - done);
          done += k;
          if (k == 0) std::this_thread::yield();
        }
        next += want;
      }
    });
  }
  std::vector<std::uint64_t> expected_next(kProducers, 0);
  std::uint64_t total = 0;
  std::uint64_t out[64];
  while (total < kProducers * kPerProducer) {
    bool progressed = false;
    for (std::size_t p = 0; p < kProducers; ++p) {
      const std::size_t k = rings[p]->try_pop_batch(out, 64);
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_EQ(out[i], expected_next[p]) << "FIFO violated on ring " << p;
        ++expected_next[p];
      }
      total += k;
      progressed = progressed || k > 0;
    }
    if (!progressed) std::this_thread::yield();
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
}

// ------------------------------------------------- SpscRing span access

// reserve/publish and front/release against a model of the two indices:
// every span is exactly as long as the request, the free (or published)
// slots and the slots left before the wrap allow. Chunk sizes do not divide
// the capacity, and a random prefix of each span is published (released),
// so spans start at every offset and many are cut by the wrap.
void check_spans(std::size_t cap, std::size_t put, std::size_t take) {
  SCOPED_TRACE("capacity " + std::to_string(cap));
  SpscRing<std::uint64_t> ring(cap);
  mflow::util::Rng rng(cap * 31 + put);
  std::uint64_t head = 0, tail = 0;
  std::size_t cut_put = 0, cut_take = 0;
  for (int step = 0; step < 40'000; ++step) {
    if (rng.uniform(2) == 0) {
      const std::span<std::uint64_t> room = ring.reserve(put);
      const std::size_t to_wrap = cap - head % cap;
      ASSERT_EQ(room.size(), std::min({put, cap - (head - tail), to_wrap}));
      if (room.size() < put && room.size() == to_wrap) ++cut_put;
      const std::size_t k = rng.uniform(room.size() + 1);
      for (std::size_t i = 0; i < k; ++i) room[i] = head + i;
      ring.publish(k);
      head += k;
    } else {
      const std::span<std::uint64_t> items = ring.front(take);
      const std::size_t to_wrap = cap - tail % cap;
      ASSERT_EQ(items.size(), std::min({take, head - tail, to_wrap}));
      if (items.size() < take && items.size() == to_wrap) ++cut_take;
      for (std::size_t i = 0; i < items.size(); ++i)
        ASSERT_EQ(items[i], tail + i);
      const std::size_t k = rng.uniform(items.size() + 1);
      ring.release(k);
      tail += k;
    }
    ASSERT_EQ(ring.size(), head - tail);
  }
  EXPECT_GT(cut_put, 0u) << "no reserve() span ended at the wrap";
  EXPECT_GT(cut_take, 0u) << "no front() span ended at the wrap";
}

TEST(SpscRingSpan, SpansStopAtTheWrapAtEveryCapacity) {
  check_spans(1, 2, 3);
  check_spans(8, 3, 5);
  check_spans(1024, 100, 127);
}

TEST(SpscRingSpan, TwoThreadsMoveOnlyFifoAndMovedFromRelease) {
  // The consumer moves every item out of its slot before releasing it;
  // the producer checks that every slot it reserves is moved-from, so a
  // slot released with a live item fails here.
  constexpr std::uint64_t kItems = 100'000;
  SpscRing<std::unique_ptr<std::uint64_t>> ring(64);
  std::atomic<std::uint64_t> live_slots{0};
  std::jthread producer([&] {
    std::uint64_t next = 0;
    while (next < kItems) {
      const auto room = ring.reserve(
          static_cast<std::size_t>(std::min<std::uint64_t>(7, kItems - next)));
      if (room.empty()) {
        std::this_thread::yield();
        continue;
      }
      for (auto& slot : room) {
        if (slot) live_slots.fetch_add(1, std::memory_order_relaxed);
        slot = std::make_unique<std::uint64_t>(next++);
      }
      ring.publish(room.size());
    }
  });
  std::uint64_t expected = 0;
  while (expected < kItems) {
    const auto items = ring.front(5);
    if (items.empty()) {
      std::this_thread::yield();
      continue;
    }
    for (auto& slot : items) {
      const std::unique_ptr<std::uint64_t> item = std::move(slot);
      ASSERT_NE(item, nullptr);
      ASSERT_EQ(*item, expected++) << "FIFO violated";
    }
    ring.release(items.size());
  }
  producer.join();
  EXPECT_EQ(live_slots.load(), 0u) << "a released slot still held its item";
  EXPECT_TRUE(ring.empty());
}

// ------------------------------------------- engine fan-in + profiler

TEST(RtScalingEngine, ProfilePopulatedAndConsistent) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.profile = true;
  const std::uint64_t total = 20'000;
  const EngineResult res = Engine(cfg).run(total);
  ASSERT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, total);
  ASSERT_TRUE(res.profile.enabled);
  ASSERT_EQ(res.profile.worker.size(), 2u);
  EXPECT_EQ(res.profile.generator.items, total);
  EXPECT_EQ(res.profile.consumer.items, total);
  EXPECT_EQ(res.profile.workers_total().items, total);
  for (const auto& w : res.profile.worker) EXPECT_GT(w.active_ns, 0u);
  // The formatter accepts any populated report.
  const std::string txt = format_profile(res.profile);
  EXPECT_NE(txt.find("generator"), std::string::npos);
  EXPECT_NE(txt.find("worker1"), std::string::npos);
}

TEST(RtScalingEngine, ProfileOffWritesNothing) {
  EngineConfig cfg;
  cfg.workers = 2;
  const EngineResult res = Engine(cfg).run(5'000);
  EXPECT_FALSE(res.profile.enabled);
  EXPECT_EQ(res.profile.worker.size(), 0u);
  EXPECT_EQ(res.profile.generator.items, 0u);
}

TEST(RtScalingEngine, FanInOrderAndConservationAcrossWidths) {
  // The tentpole property: at 2, 4 and 8 workers, with live rescales AND
  // injected faults, the fan-in merge still delivers survivors in strict
  // seq order and conserves every packet (delivered + dropped == total).
  for (std::size_t workers : {2u, 4u, 8u}) {
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.batch_size = 32;
    cfg.ring_capacity = 256;
    cfg.cost_ns_per_packet = 0;
    cfg.fault_drop_rate = 0.02;
    cfg.profile = true;
    cfg.rescales = {{8'000, 1}, {16'000, workers}};
    const std::uint64_t total = 30'000;
    std::uint64_t seen = 0;
    std::uint64_t last_seq = 0;
    bool order_ok = true;
    const EngineResult res =
        Engine(cfg).run(total, [&](const RtPacket& pkt) {
          if (seen > 0 && pkt.seq <= last_seq) order_ok = false;
          last_seq = pkt.seq;
          ++seen;
        });
    EXPECT_TRUE(order_ok) << "w=" << workers;
    EXPECT_TRUE(res.in_order) << "w=" << workers;
    EXPECT_EQ(res.packets, seen) << "w=" << workers;
    EXPECT_EQ(res.packets + res.packets_dropped, total) << "w=" << workers;
    EXPECT_EQ(res.rescales_applied, 2u) << "w=" << workers;
    EXPECT_EQ(res.profile.worker.size(), workers);
    // Faults fired, so the drop-return fan-in must have carried slabs.
    EXPECT_GT(res.packets_dropped, 0u) << "w=" << workers;
    EXPECT_GT(res.recycle_ring_returns, 0u) << "w=" << workers;
  }
}

TEST(RtScalingEngine, DropReturnRingsCarryFaultedSlabs) {
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.fault_drop_rate = 0.05;
  cfg.max_push_spins = 0;  // lossless pushes: only the faults drop
  cfg.pool_capacity = 8192;
  const std::uint64_t total = 40'000;
  // Several runs: the counts must be exact on every schedule, not on one
  // lucky interleaving.
  for (int run = 0; run < 4; ++run) {
    SCOPED_TRACE(run);
    const EngineResult res = Engine(cfg).run(total);
    EXPECT_TRUE(res.in_order);
    ASSERT_GT(res.packets_dropped, 0u);
    // Every slab goes home over exactly one return ring: a delivered one
    // over the consumer's, a faulted one over its worker's.
    EXPECT_EQ(res.recycle_ring_returns, total);
    // No slab goes back to the pool's free list mid-run, so the generator
    // draws each slab off it at most once: every acquire is a free-list
    // draw.
    EXPECT_EQ(res.recycle_cas_fallbacks, res.pool_acquired);
    EXPECT_LE(res.pool_acquired, cfg.pool_capacity);
    EXPECT_EQ(res.pool_exhausted, 0u);
  }
}

// Half the packets die at four workers while the generator cycles 64
// slabs: most slabs go home over the workers' return rings, and the
// generator waits on them. The run stays in order and accounts for every
// packet and every slab.
TEST(RtScalingEngine, TinyPoolUnderHeavyFaultsConservesEverySlab) {
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.batch_size = 8;
  cfg.ring_capacity = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.fault_drop_rate = 0.5;
  cfg.max_push_spins = 0;
  cfg.pool_capacity = 64;
  const std::uint64_t total = 20'000;
  const EngineResult res = Engine(cfg).run(total);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets + res.packets_dropped, total);
  EXPECT_GT(res.packets_dropped, total / 4);
  EXPECT_GT(res.packets, total / 4);
  EXPECT_EQ(res.recycle_ring_returns, total);
  EXPECT_EQ(res.recycle_cas_fallbacks, res.pool_acquired);
  EXPECT_LE(res.pool_acquired, cfg.pool_capacity);
}

TEST(RtScalingEngine, ExplicitTopologyOverridePins) {
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.topology.pin_threads = true;
  // Explicit overrides bypass the "host too small" auto-plan: every
  // pipeline thread lands on CPU 0, which exists everywhere. Correctness
  // (not speed) is the claim on a 1-CPU host.
  cfg.topology.generator_cpu = 0;
  cfg.topology.consumer_cpu = 0;
  cfg.topology.worker_cpus = {0};
  const EngineResult res = Engine(cfg).run(5'000);
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, 5'000u);
#if defined(__linux__)
  EXPECT_EQ(res.threads_pinned, 3u);
#endif
}

TEST(RtScalingEngine, AutoPlanNeverBreaksCorrectness) {
  // pin_threads with no overrides: whatever the host looks like (enough
  // cores -> pinned, too few -> unpinned plan), the run must stay correct.
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.topology.pin_threads = true;
  const EngineResult res = Engine(cfg).run(10'000);
  EXPECT_TRUE(res.in_order) << drop_breakdown(res);
  EXPECT_EQ(res.packets, 10'000u) << drop_breakdown(res);
}

}  // namespace
