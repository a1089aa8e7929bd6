// rt::PacketPool: RAII slab recycling, exhaustion backpressure, loud
// failure on ownership bugs, and the PR's headline invariant — the rt
// engine's steady state performs ZERO heap allocations. The binary links
// the counting global operator new (alloc_counter.hpp) so the guard test
// can diff the allocation counter across a steady-state window.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "rt/engine.hpp"
#include "rt/pool.hpp"

using namespace mflow;
using rt::PacketPool;
using rt::PoolConfig;

TEST(PacketPool, ExhaustionReturnsNullNotAllocation) {
  PacketPool pool(PoolConfig{.slabs = 4});
  std::vector<net::PacketPtr> held;
  for (int i = 0; i < 4; ++i) {
    auto p = pool.acquire();
    ASSERT_NE(p, nullptr);
    held.push_back(std::move(p));
  }
  EXPECT_EQ(pool.in_use(), 4u);
  // Pool dry: the handle is null and the miss is counted — the caller
  // backpressures, the pool NEVER falls back to the heap.
  const std::uint64_t allocs_before = alloc_counter::calls();
  EXPECT_EQ(pool.acquire(), nullptr);
  EXPECT_EQ(pool.acquire(), nullptr);
  EXPECT_EQ(alloc_counter::calls(), allocs_before);
  EXPECT_EQ(pool.exhausted(), 2u);
  // Releasing one slab makes the next acquire succeed again.
  held.pop_back();
  auto p = pool.acquire();
  EXPECT_NE(p, nullptr);
  held.push_back(std::move(p));
  EXPECT_EQ(pool.acquired(), 5u);
  held.clear();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.recycled(), 5u);
}

TEST(PacketPool, RecycledPacketsAreFullyReset) {
  PacketPool pool(PoolConfig{.slabs = 2});
  net::Packet* first_addr = nullptr;
  const net::FlowKey flow{net::Ipv4Addr(10, 0, 1, 2),
                          net::Ipv4Addr(10, 0, 1, 3), 40000, 5001,
                          net::Ipv4Header::kProtoTcp};
  {
    auto pkt = net::make_tcp_segment(pool.acquire(), flow, 1448, 1448);
    ASSERT_NE(pkt, nullptr);
    first_addr = pkt.get();
    // Dirty every metadata field and the buffer (headroom consumed by the
    // pushed Ethernet header, bytes appended for IP/TCP).
    net::vxlan_encap(*pkt, net::Ipv4Addr(192, 168, 0, 1),
                     net::Ipv4Addr(192, 168, 0, 2), 7);
    pkt->flow_id = 9;
    pkt->wire_seq = 123;
    pkt->message_id = 77;
    pkt->message_bytes = 65536;
    pkt->skb_allocated = true;
    pkt->t_wire = 42;
    pkt->gro_segs = 3;
    pkt->microflow_id = 5;
    EXPECT_LT(pkt->buf.headroom(), 64u);
    EXPECT_GT(pkt->buf.size(), 0u);
  }  // handle death -> recycle
  EXPECT_EQ(pool.in_use(), 0u);

  // LIFO free list: the next acquire returns the same slab, reset to the
  // just-constructed state.
  auto again = pool.acquire();
  ASSERT_EQ(again.get(), first_addr);
  EXPECT_EQ(again->buf.size(), 0u);
  EXPECT_EQ(again->buf.headroom(), 64u);
  EXPECT_EQ(again->payload_len, 0u);
  EXPECT_EQ(again->flow, net::FlowKey{});
  EXPECT_EQ(again->flow_id, 0u);
  EXPECT_FALSE(again->encapsulated);
  EXPECT_EQ(again->wire_seq, 0u);
  EXPECT_EQ(again->tcp_seq, 0u);
  EXPECT_EQ(again->message_id, 0u);
  EXPECT_EQ(again->message_bytes, 0u);
  EXPECT_FALSE(again->skb_allocated);
  EXPECT_EQ(again->t_wire, 0);
  EXPECT_EQ(again->gro_segs, 1u);
  EXPECT_EQ(again->microflow_id, 0u);
}

TEST(PacketPool, SlabReuseDoesNotAllocate) {
  PacketPool pool(PoolConfig{.slabs = 2});
  const net::FlowKey flow{net::Ipv4Addr(10, 0, 1, 2),
                          net::Ipv4Addr(10, 0, 1, 3), 40000, 5001,
                          net::Ipv4Header::kProtoTcp};
  const std::uint64_t before = alloc_counter::calls();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto p = net::make_tcp_segment(pool.acquire(), flow, i * 1448, 1448);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(alloc_counter::calls(), before);
}

// Construction makes three allocations whatever the slab count: the slab
// arena and the two side arrays (free-list links, live flags). No slab owns
// a heap block of its own.
TEST(PacketPool, ConstructionAllocationsDoNotGrowWithSlabs) {
  for (const std::size_t slabs : {1u, 64u, 16384u}) {
    const std::uint64_t before = alloc_counter::calls();
    PacketPool pool(PoolConfig{.slabs = slabs});
    EXPECT_EQ(alloc_counter::calls() - before, 3u) << slabs << " slabs";
    auto p = pool.acquire();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->buf.headroom(), 64u);
    EXPECT_EQ(p->buf.size(), 0u);
  }
}

// A heap packet is one allocation: the Packet block with its header bytes
// inline. net::Packet is over-aligned, so this goes through the align_val_t
// operator new, which the counting allocator counts like any other.
TEST(HeapPacket, MakeAndCloneAllocateOnce) {
  std::uint64_t before = alloc_counter::calls();
  net::PacketPtr made = net::make_packet();
  EXPECT_EQ(alloc_counter::calls() - before, 1u);
  ASSERT_NE(made, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(made.get()) % 64, 0u);
  made->buf.append(40);
  before = alloc_counter::calls();
  net::PacketPtr copy = net::clone_packet(*made);
  EXPECT_EQ(alloc_counter::calls() - before, 1u);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->buf.size(), 40u);
}

// Every slab starts a cache line and owns whole lines: two slabs never
// share a line, and a slab's header bytes lie inside its own block.
TEST(PacketPool, SlabsAreLineAlignedAndShareNoLine) {
  constexpr std::size_t kSlabs = 257;
  PacketPool pool(PoolConfig{.slabs = kSlabs});
  std::vector<net::PacketPtr> held;
  std::vector<std::uintptr_t> addrs;
  for (std::size_t i = 0; i < kSlabs; ++i) {
    held.push_back(pool.acquire());
    ASSERT_NE(held.back(), nullptr);
    const auto a = reinterpret_cast<std::uintptr_t>(held.back().get());
    EXPECT_EQ(a % 64, 0u) << "slab " << i;
    const auto bytes =
        reinterpret_cast<std::uintptr_t>(held.back()->buf.data().data());
    EXPECT_GE(bytes, a);
    EXPECT_LT(bytes, a + sizeof(net::Packet));
    addrs.push_back(a);
  }
  std::sort(addrs.begin(), addrs.end());
  for (std::size_t i = 1; i < addrs.size(); ++i)
    EXPECT_GE(addrs[i] - addrs[i - 1], sizeof(net::Packet));
}

using PacketPoolDeathTest = ::testing::Test;

TEST(PacketPoolDeathTest, DoubleReleaseAborts) {
  EXPECT_DEATH(
      {
        PacketPool pool(PoolConfig{.slabs = 2});
        auto handle = pool.acquire();
        net::Packet* raw = handle.get();
        handle.reset();     // first release: legal
        pool.recycle(raw);  // second release of the same slab: abort
      },
      "double release");
}

TEST(PacketPoolDeathTest, ForeignPacketAborts) {
  EXPECT_DEATH(
      {
        PacketPool pool(PoolConfig{.slabs = 2});
        net::Packet stack_pkt;
        pool.recycle(&stack_pkt);
      },
      "foreign packet");
}

// The pool has one owner, the thread that built it. Recycling a slab on, or
// acquiring one from, any other thread aborts instead of racing the free
// list.
TEST(PacketPoolDeathTest, ForeignThreadAborts) {
  EXPECT_DEATH(
      {
        PacketPool pool(PoolConfig{.slabs = 2});
        auto handle = pool.acquire();
        std::thread([&handle] { handle.reset(); }).join();
      },
      "recycle from a thread that does not own the pool");
  EXPECT_DEATH(
      {
        PacketPool pool(PoolConfig{.slabs = 2});
        std::thread([&pool] { (void)pool.acquire(); }).join();
      },
      "acquire from a thread that does not own the pool");
}

TEST(PacketPoolDeathTest, LeakedSlabAbortsAtPoolDestruction) {
  EXPECT_DEATH(
      {
        auto pool = std::make_unique<PacketPool>(PoolConfig{.slabs = 2});
        auto handle = pool->acquire();
        net::Packet* leaked = handle.release();  // escape the RAII handle
        pool.reset();                            // slab still out -> abort
        (void)leaked;
      },
      "still in use");
}

// The tentpole invariant: once the rt pipeline reaches steady state, NO
// thread touches the global allocator — packets live in pool slabs, rings
// move handles, recycling is ring-based. The window [2000, 18000) skips
// engine startup (thread spawn, ring/pool construction) and shutdown.
// Two runtime rescales land INSIDE the window: epoch messages ride the
// merger's pre-sized internal ring and the flush markers are plain stack
// values, so a live degree change must not allocate either.
TEST(PacketPool, EngineSteadyStateIsAllocationFree) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;  // lossless: backpressure, never drop
  cfg.rescales = {{6000, 1}, {11000, 2}};
  constexpr std::uint64_t kTotal = 20000;
  std::atomic<std::uint64_t> at_start{0}, at_end{0};
  std::atomic<std::uint64_t> missing_skb{0};
  const auto res = rt::Engine(cfg).run(kTotal, [&](const rt::RtPacket& pkt) {
    if (!pkt.skb) missing_skb.fetch_add(1, std::memory_order_relaxed);
    if (pkt.seq == 2000)
      at_start.store(alloc_counter::calls(), std::memory_order_relaxed);
    else if (pkt.seq == 18000)
      at_end.store(alloc_counter::calls(), std::memory_order_relaxed);
  });
  ASSERT_TRUE(res.in_order);
  ASSERT_EQ(res.packets, kTotal);
  ASSERT_EQ(res.packets_dropped, 0u);
  ASSERT_EQ(res.rescales_applied, 2u);
  EXPECT_EQ(missing_skb.load(), 0u);
  EXPECT_GT(res.pool_acquired, 0u);
  // Zero allocations across 16k steady-state packets, from ANY thread.
  EXPECT_EQ(at_end.load() - at_start.load(), 0u)
      << "rt hot path allocated " << (at_end.load() - at_start.load())
      << " times between seq 2000 and 18000";
}

// The acceptance bar for the fast-path cache, in the full shape of the
// rt-overlay-nf benchmark workload: overlay mode copies each micro-flow's
// VXLAN header template into every slab, workers probe per-worker cache
// tables and splice on hits, the flow table tracks every batch, and the
// nat,fw,lb chain runs under SCR — all of it inside the same
// zero-allocation envelope. Cache tables and the header template are sized
// before thread spawn; the copy stays within the slab's inline header
// bytes; rescale epochs invalidate entries without touching the heap.
// A worker's NF replica table grows only the first time that worker sees
// a flow: with an odd flow count each worker sees every flow within 14
// batches, long before the window opens.
TEST(PacketPool, OverlayCachedSteadyStateIsAllocationFree) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;
  cfg.rescales = {{6000, 1}, {11000, 2}};
  cfg.overlay.enabled = true;
  cfg.overlay.cache = true;
  cfg.overlay.flows = 7;
  cfg.flow_table.enabled = true;
  cfg.nf.enabled = true;
  cfg.nf.strategy = nf::Strategy::kScr;
  cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                        nf::Kind::kLoadBalancer};
  constexpr std::uint64_t kTotal = 20000;
  std::atomic<std::uint64_t> at_start{0}, at_end{0};
  std::atomic<std::uint64_t> missing_skb{0};
  const auto res = rt::Engine(cfg).run(kTotal, [&](const rt::RtPacket& pkt) {
    if (!pkt.skb) missing_skb.fetch_add(1, std::memory_order_relaxed);
    if (pkt.seq == 2000)
      at_start.store(alloc_counter::calls(), std::memory_order_relaxed);
    else if (pkt.seq == 18000)
      at_end.store(alloc_counter::calls(), std::memory_order_relaxed);
  });
  ASSERT_TRUE(res.in_order);
  ASSERT_EQ(res.packets, kTotal);
  ASSERT_EQ(res.packets_dropped, 0u);
  ASSERT_EQ(res.rescales_applied, 2u);
  ASSERT_EQ(res.decap_failures, 0u);
  EXPECT_EQ(missing_skb.load(), 0u);
  EXPECT_GT(res.cache_hits, 0u);
  EXPECT_GT(res.cache_invalidations, 0u);  // the rescales bit
  EXPECT_EQ(res.nf_packets, kTotal);
  EXPECT_EQ(res.nf_nat_rewrites, kTotal);
  EXPECT_EQ(res.flow_table.live, 7u);
  EXPECT_EQ(at_end.load() - at_start.load(), 0u)
      << "overlay fast path allocated " << (at_end.load() - at_start.load())
      << " times between seq 2000 and 18000";
}

// Pool smaller than the packets in flight: the generator must backpressure
// on slab exhaustion (recycle-ring + pool both dry) and still deliver
// everything in order, rather than allocating or deadlocking.
TEST(PacketPool, TinyPoolBackpressuresLosslessAndOrdered) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 8;
  cfg.ring_capacity = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.max_push_spins = 0;  // lossless
  cfg.pool_capacity = 64;  // far fewer slabs than the rings could hold
  const auto res = rt::Engine(cfg).run(20000);
  EXPECT_EQ(res.packets, 20000u);
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_TRUE(res.in_order);
  EXPECT_GT(res.pool_acquired, 0u);
}
