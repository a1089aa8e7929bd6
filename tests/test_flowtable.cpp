// Sharded, expiring FlowTable (control/flowtable): open-addressing
// correctness under delete-heavy churn (backward-shift deletion), the
// monotone recency chain, TTL expiry, capacity eviction and the
// determinism contract the control plane and rt engine rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "control/flowtable.hpp"

using namespace mflow;
using control::FlowTable;
using control::FlowTableParams;

namespace {

FlowTableParams small_params(std::size_t capacity, sim::Time ttl = 0,
                             std::size_t shards = 1) {
  FlowTableParams p;
  p.shards = shards;
  p.capacity = capacity;
  p.ttl = ttl;
  return p;
}

}  // namespace

TEST(FlowTable, InsertFindErase) {
  FlowTable<int> t(small_params(64));
  bool inserted = false;
  t.upsert(7, 10, &inserted) = 42;
  EXPECT_TRUE(inserted);
  t.upsert(7, 20, &inserted) = 43;
  EXPECT_FALSE(inserted);
  ASSERT_NE(t.find(7), nullptr);
  EXPECT_EQ(*t.find(7), 43);
  EXPECT_EQ(t.find(8), nullptr);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.erase(7));
  EXPECT_FALSE(t.erase(7));
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

// Collision-heavy churn in one tiny shard: every live key must stay
// findable through interleaved inserts and deletes — the property
// backward-shift deletion exists to preserve (a tombstone-free linear
// probe breaks lookups if deletion leaves false empties in probe runs).
TEST(FlowTable, BackwardShiftDeletionKeepsProbeRunsIntact) {
  FlowTable<std::uint64_t> t(small_params(128));
  std::set<net::FlowId> live;
  std::uint64_t next_key = 1;
  sim::Time now = 0;
  // Deterministic mixed workload: phases of insert bursts and deletes of
  // every third live key, several times over, at near-full occupancy.
  for (int round = 0; round < 20; ++round) {
    while (live.size() < 100) {
      const net::FlowId k = next_key++;
      t.upsert(k, ++now) = k * 3;
      live.insert(k);
    }
    int i = 0;
    for (auto it = live.begin(); it != live.end();) {
      if (++i % 3 == 0) {
        EXPECT_TRUE(t.erase(*it));
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    for (const net::FlowId k : live) {
      ASSERT_NE(t.find(k), nullptr) << "lost key " << k;
      EXPECT_EQ(*t.find(k), k * 3);
    }
    EXPECT_EQ(t.size(), live.size());
  }
}

TEST(FlowTable, TtlExpiresIdleOldestFirst) {
  FlowTable<int> t(small_params(64, /*ttl=*/100));
  t.upsert(1, 0) = 1;
  t.upsert(2, 10) = 2;
  t.upsert(3, 50) = 3;
  t.touch(1, 60);  // refreshed: now youngest

  std::vector<net::FlowId> idle;
  t.collect_idle(110, idle);  // deadline 10: keys stamped <= 10
  EXPECT_EQ(idle, (std::vector<net::FlowId>{2}));

  std::vector<std::pair<net::FlowId, int>> expired;
  const std::size_t n = t.expire_idle(
      150, [&](net::FlowId k, int&& v) { expired.emplace_back(k, v); });
  EXPECT_EQ(n, 2u);  // deadline 50: key 2 (t=10) and key 3 (t=50)
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].first, 2u);
  EXPECT_EQ(expired[1].first, 3u);
  EXPECT_NE(t.find(1), nullptr);
  EXPECT_EQ(t.find(2), nullptr);
  EXPECT_EQ(t.expirations(), 2u);
}

TEST(FlowTable, TtlZeroNeverExpires) {
  FlowTable<int> t(small_params(8, /*ttl=*/0));
  t.upsert(1, 0) = 1;
  EXPECT_EQ(t.expire_idle(1'000'000), 0u);
  std::vector<net::FlowId> idle;
  t.collect_idle(1'000'000, idle);
  EXPECT_TRUE(idle.empty());
}

TEST(FlowTable, CapacityEvictsLruThroughReclaim) {
  FlowTable<int> t(small_params(4));
  std::vector<std::pair<net::FlowId, int>> reclaimed;
  t.set_reclaim(
      [&](net::FlowId k, int&& v) { reclaimed.emplace_back(k, v); });
  for (net::FlowId k = 1; k <= 4; ++k)
    t.upsert(k, static_cast<sim::Time>(k)) = static_cast<int>(k * 10);
  t.touch(1, 100);  // 2 becomes the LRU
  t.upsert(5, 101) = 50;
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.evictions(), 1u);
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0].first, 2u);
  EXPECT_EQ(reclaimed[0].second, 20);
  EXPECT_EQ(t.find(2), nullptr);
  EXPECT_NE(t.find(1), nullptr);
  EXPECT_NE(t.find(5), nullptr);
}

// A FlowId reused after expiry must start value-initialized — no stale
// state resurrection (the churn bug class this table exists to fix).
TEST(FlowTable, ReuseAfterExpiryStartsFresh) {
  FlowTable<int> t(small_params(8, /*ttl=*/10));
  t.upsert(1, 0) = 99;
  EXPECT_EQ(t.expire_idle(20), 1u);
  bool inserted = false;
  int& v = t.upsert(1, 21, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(v, 0);
}

TEST(FlowTable, TouchIsMonotone) {
  FlowTable<int> t(small_params(8, /*ttl=*/10));
  t.upsert(1, 100) = 1;
  t.upsert(2, 101) = 2;
  // A stale touch (older than the stamp) is refused and does not disturb
  // expiry order; an equal-time touch is accepted but must not reorder.
  EXPECT_FALSE(t.touch(1, 50));
  EXPECT_TRUE(t.touch(1, 100));
  EXPECT_FALSE(t.touch(99, 100));  // absent: never resurrects
  std::vector<net::FlowId> expired;
  t.expire_idle(111, [&](net::FlowId k, int&&) { expired.push_back(k); });
  EXPECT_EQ(expired, (std::vector<net::FlowId>{1, 2}));
}

// Same operation history => same iteration order and same counters, the
// property every DES consumer (and the rt engine's batch-clock scheme)
// depends on.
TEST(FlowTable, DeterministicAcrossIdenticalHistories) {
  auto run = [] {
    FlowTable<std::uint64_t> t(small_params(256, /*ttl=*/64, /*shards=*/4));
    for (std::uint64_t i = 0; i < 2000; ++i) {
      t.upsert(i % 300, static_cast<sim::Time>(i)) = i;
      if (i % 7 == 0) t.touch(i % 150, static_cast<sim::Time>(i));
      if (i % 97 == 0) t.expire_idle(static_cast<sim::Time>(i));
    }
    std::vector<std::pair<net::FlowId, std::uint64_t>> entries;
    t.for_each([&](net::FlowId k, const std::uint64_t& v) {
      entries.emplace_back(k, v);
    });
    return std::tuple(entries, t.size(), t.peak_size(), t.evictions(),
                      t.expirations());
  };
  EXPECT_EQ(run(), run());

  // Interleaved key ranges over 8 shards: three ranges upsert_apply and
  // touch in turn while a sweep runs every 64 ticks; a final sweep past
  // the ttl empties the table, and the high-water mark stays in bounds.
  FlowTable<std::uint64_t> t(small_params(1 << 12, /*ttl=*/256,
                                          /*shards=*/8));
  constexpr std::uint64_t kOps = 20'000;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    for (net::FlowId r = 1; r <= 3; ++r) {
      const net::FlowId k = (r << 32) + (i % 512);
      t.upsert_apply(k, static_cast<sim::Time>(i),
                     [i](std::uint64_t& v) { v = i; });
      t.touch(k, static_cast<sim::Time>(i));
    }
    if (i % 64 == 0) t.expire_idle(static_cast<sim::Time>(i));
  }
  t.expire_idle(static_cast<sim::Time>(kOps + 1000));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_LE(t.peak_size(), t.capacity());
}

TEST(FlowTable, PeakTracksHighWaterNotCumulative) {
  FlowTable<int> t(small_params(1024, /*ttl=*/8));
  for (std::uint64_t i = 0; i < 512; ++i) {
    t.upsert(i, static_cast<sim::Time>(i)) = 1;
    t.expire_idle(static_cast<sim::Time>(i));
  }
  // Live window is ttl entries (one insert per tick): cumulative 512
  // flows, but never more than ~ttl+1 resident.
  EXPECT_LE(t.peak_size(), 9u);
  EXPECT_EQ(t.expirations() + t.size(), 512u);
}
