// sim::EventQueue / Simulator: ordering, FIFO ties, ownership of pending
// callables, and the event loop's headline invariant — a steady-state run
// performs ZERO heap allocations. The binary links the counting global
// operator new (alloc_counter.hpp) so that test can diff the counter
// across a window.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "rt/pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "stack/machine.hpp"
#include "util/rng.hpp"
#include "workload/sender.hpp"

using namespace mflow::sim;
using mflow::net::PacketPtr;
using mflow::rt::PacketPool;
using mflow::rt::PoolConfig;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreak) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, RandomizedOrderInvariant) {
  EventQueue q;
  mflow::util::Rng rng(4);
  for (int i = 0; i < 5000; ++i)
    q.push(static_cast<Time>(rng.uniform(1000)), [] {});
  Time last = -1;
  while (!q.empty()) {
    auto [when, fn] = q.pop();
    EXPECT_GE(when, last);
    last = when;
  }
}

TEST(EventQueue, ClearEmpties) {
  EventQueue q;
  q.push(1, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator sim;
  Time seen = -1;
  sim.at(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, AfterIsRelative) {
  Simulator sim;
  Time seen = -1;
  sim.at(50, [&] { sim.after(25, [&] { seen = sim.now(); }); });
  sim.run();
  EXPECT_EQ(seen, 75);
}

TEST(Simulator, RunUntilStopsBeforeBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  const auto n = sim.run_until(20);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.after(1, recurse);
  };
  sim.at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
}

// A reserved sequence number holds the event's place in the FIFO tie-break:
// pushed late, it still pops before a same-time event pushed in between.
TEST(EventQueue, ReservedSeqPopsBeforeLaterSameTimePush) {
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t seq = q.reserve_seq();
  q.push(5, [&] { order.push_back(2); });
  q.push(4, [&] { order.push_back(0); });
  q.push_reserved(5, seq, [&] { order.push_back(1); });
  q.push(5, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, TicketKeepsItsPlaceAcrossTime) {
  Simulator sim;
  std::vector<int> order;
  // Reserve at t=0 for t=100; an after() made at t=50 for the same instant
  // must still run second, although the ticket is only scheduled at t=60.
  const Ticket ticket = sim.reserve_after(100);
  sim.at(50, [&] { sim.at(100, [&] { order.push_back(2); }); });
  sim.at(60, [&] { sim.at(ticket, [&] { order.push_back(1); }); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

namespace {

/// One step of a wire script: at `at`, put a packet on the wire, or push a
/// foreign event for `foreign_when`.
struct WireAction {
  Time at;
  bool transmit;
  Time foreign_when;
};

/// The wire a WireLink replaces: one simulator event per packet.
class PerPacketWire {
 public:
  PerPacketWire(Simulator& sim, mflow::stack::Machine& dst, Time latency)
      : sim_(sim), dst_(dst), latency_(latency) {}
  void transmit(PacketPtr pkt) {
    sim_.after(latency_, [this, p = std::move(pkt)]() mutable {
      dst_.nic().deliver(std::move(p), sim_.now());
    });
  }

 private:
  Simulator& sim_;
  mflow::stack::Machine& dst_;
  Time latency_;
};

/// What each foreign event saw: the instant it ran at and how many packets
/// had reached the NIC by then.
using WireLog = std::vector<std::pair<Time, std::uint64_t>>;

/// Replay `script` over a `Wire` into an idle receiver (never started, so
/// delivered packets just sit in its NIC ring).
template <class Wire>
WireLog replay_wire(const std::vector<WireAction>& script, Time latency) {
  struct Rig {
    explicit Rig(Time latency) : wire(sim, rx, latency) {}
    Simulator sim;
    mflow::stack::Machine rx{sim, mflow::stack::MachineParams{}};
    Wire wire;
    WireLog log;
    std::uint64_t received() {
      return rx.nic().total_delivered() + rx.nic().total_drops();
    }
  };
  Rig rig(latency);
  Rig* r = &rig;
  for (const WireAction& a : script) {
    rig.sim.at(a.at, [r, &a] {
      if (a.transmit) {
        r->wire.transmit(mflow::net::make_udp_datagram(
            mflow::net::FlowKey{mflow::net::Ipv4Addr(10, 0, 1, 2),
                                mflow::net::Ipv4Addr(10, 0, 1, 3), 40000,
                                5000, mflow::net::Ipv4Header::kProtoUdp},
            64));
      } else {
        r->sim.at(a.foreign_when, [r] {
          r->log.emplace_back(r->sim.now(), r->received());
        });
      }
    });
  }
  rig.sim.run();
  return rig.log;
}

}  // namespace

// The delay-line wire keeps one event pending, scheduled when the previous
// head arrives, yet every delivery keeps the place in the event order that
// a per-packet event pushed at transmit time would have had. A foreign
// event pushed between a packet's transmit and its predecessor's arrival,
// for the packet's own arrival instant, must still see the packet first.
TEST(WireLink, InterleavesLikePerPacketEvents) {
  using mflow::workload::WireLink;
  // The minimal case: P2 is sent at t=10 (due 110), F is pushed at t=20 for
  // t=110, and the line only schedules P2 when P1 arrives at t=100.
  const std::vector<WireAction> minimal = {
      {0, true, 0}, {10, true, 0}, {20, false, 110}};
  EXPECT_EQ(replay_wire<PerPacketWire>(minimal, 100),
            (WireLog{{110, 2}}));
  EXPECT_EQ(replay_wire<WireLink>(minimal, 100), (WireLog{{110, 2}}));

  // A random script: steps 100 ns apart, a latency of 10 steps, and foreign
  // events aimed at the arrival instants of packets sent up to 10 steps
  // earlier (or at none), interleaved with transmits at the same steps.
  constexpr Time kStep = 100;
  constexpr Time kLatency = 10 * kStep;
  mflow::util::Rng rng(7);
  std::vector<WireAction> script;
  for (Time k = 0; k < 400; ++k) {
    const std::uint64_t actions = rng.uniform(5);
    for (std::uint64_t i = 0; i < actions; ++i) {
      if (rng.uniform(2) == 0) {
        script.push_back({k * kStep, true, 0});
      } else {
        const Time back = static_cast<Time>(rng.uniform(11));
        const Time when = (k - std::min(k, back)) * kStep + kLatency +
                          (rng.uniform(4) == 0 ? 1 : 0);
        script.push_back({k * kStep, false, when});
      }
    }
  }
  const WireLog want = replay_wire<PerPacketWire>(script, kLatency);
  ASSERT_GT(want.size(), 100u);
  EXPECT_EQ(replay_wire<WireLink>(script, kLatency), want);
}

// ---- lazy wire arrivals ---------------------------------------------------------
//
// While the receiver's driver is scheduled, a WireLink gives its packets no
// events; the driver's next poll pulls them. These replay one script over
// WireLinks and over one-event-per-packet wires into a started receiver
// whose driver hands each packet straight to a terminal, and compare what
// the terminal saw and what the driver core was charged.

namespace {

/// One packet as the receiver's terminal saw it.
struct Seen {
  Time polled;  // the driver slice that popped it
  Time t_wire;  // the arrival time the NIC stamped
  std::uint64_t id;
  std::uint64_t wire_seq;
  bool operator==(const Seen&) const = default;
};

/// A started receiver (empty path: the driver delivers to the terminal)
/// fed by two wires of different latencies carrying one flow.
template <class Wire>
struct RxRig {
  static mflow::stack::MachineParams params() {
    mflow::stack::MachineParams mp;
    mp.num_cores = 2;  // the driver runs on core 1
    return mp;
  }
  Simulator sim;
  mflow::stack::Machine rx{sim, params()};
  Wire a{sim, rx, 1000};
  Wire b{sim, rx, 1500};
  std::vector<Seen> seen;
  std::uint64_t next_id = 0;

  RxRig() {
    rx.set_path({});
    rx.set_terminal([this](PacketPtr p, int) {
      seen.push_back({sim.now(), p->t_wire, p->message_id, p->wire_seq});
    });
    rx.start();
  }
  Core& driver_core() { return rx.core(1); }
  void send(Wire& w) {
    PacketPtr p = mflow::net::make_udp_datagram(
        mflow::net::FlowKey{mflow::net::Ipv4Addr(10, 0, 1, 2),
                            mflow::net::Ipv4Addr(10, 0, 1, 3), 40000, 5000,
                            mflow::net::Ipv4Header::kProtoUdp},
        64);
    p->flow_id = 1;
    p->message_id = next_id++;
    w.transmit(std::move(p));
  }
};

/// What a replay produced: the terminal's log, the driver core's IRQ and
/// driver busy time, and the events the simulator ran.
struct RxReplay {
  std::vector<Seen> seen;
  Time irq_ns, driver_ns;
  std::uint64_t events;
};

/// A random script every 100 ns: transmit on either wire, or keep the
/// driver core busy for up to 4 us (which holds the driver scheduled while
/// packets arrive), or nothing.
template <class Wire>
RxReplay replay_rx(std::uint64_t seed) {
  RxRig<Wire> rig;
  RxRig<Wire>* r = &rig;
  mflow::util::Rng rng(seed);
  for (Time k = 0; k < 2000; ++k) {
    const std::uint64_t what = rng.uniform(8);
    const Time busy = static_cast<Time>(rng.uniform(4000));
    rig.sim.at(k * 100, [r, what, busy] {
      if (what < 2) r->send(r->a);
      if (what == 2 || what == 3) r->send(r->b);
      if (what == 4) r->driver_core().inject(Tag::kOther, busy);
    });
  }
  const std::uint64_t events = rig.sim.run();
  return {std::move(rig.seen), rig.driver_core().busy_ns(Tag::kIrq),
          rig.driver_core().busy_ns(Tag::kDriver), events};
}

}  // namespace

// While the driver is scheduled, transmits add no events, and the next
// poll sees every packet in transmit order with its own arrival time.
TEST(WireLink, HoldsArrivalsWhileTheDriverIsScheduled) {
  RxRig<mflow::workload::WireLink> rig;
  auto* r = &rig;
  // Core 1 is busy until t = 50 us, so the IRQ raised by the first arrival
  // (t = 1 us) schedules a driver poll that cannot start before then.
  rig.driver_core().inject(Tag::kOther, us(50));
  rig.sim.at(0, [r] { r->send(r->a); });
  constexpr int kN = 20;
  std::vector<std::size_t> pending;
  for (int i = 0; i < kN; ++i) {
    rig.sim.at(us(2) + i * 500, [r, &pending] {
      const std::size_t before = r->sim.pending_events();
      r->send(r->a);
      pending.push_back(r->sim.pending_events() - before);
    });
  }
  rig.sim.run();
  EXPECT_EQ(pending, std::vector<std::size_t>(kN, 0));
  ASSERT_EQ(rig.seen.size(), static_cast<std::size_t>(kN + 1));
  for (int i = 0; i <= kN; ++i) {
    const Seen& s = rig.seen[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(s.t_wire, i == 0 ? 1000 : us(2) + (i - 1) * 500 + 1000);
    EXPECT_EQ(s.polled, rig.seen.front().polled);  // all in one poll
  }
  EXPECT_GE(rig.seen.front().polled, us(50));
  EXPECT_EQ(rig.driver_core().busy_ns(Tag::kIrq), rig.rx.costs().irq);
}

// A driver that goes idle wakes the wire: the next arrival is an event
// again and raises the IRQ at its own time, as a per-packet wire's does.
TEST(WireLink, IdleDriverRearmsTheWire) {
  const Time irq = mflow::stack::default_costs().irq;
  auto run = [](auto tag) {
    using Wire = typename decltype(tag)::type;
    RxRig<Wire> rig;
    auto* r = &rig;
    // The first arrival (1 us) raises the IRQ; core 1 is busy until 10 us,
    // so the poll runs at 10 us + irq and drains the ring. The packet sent
    // at 11.5 us is still on the wire then, held without an event, when
    // the driver goes idle; its arrival must raise the second IRQ.
    rig.driver_core().inject(Tag::kOther, us(10));
    for (Time t : {Time{0}, Time{100}, Time{200}, Time{11500}, us(30)})
      rig.sim.at(t, [r] { r->send(r->a); });
    rig.sim.run();
    return std::pair{rig.seen, rig.driver_core().busy_ns(Tag::kIrq)};
  };
  const auto lazy = run(std::type_identity<mflow::workload::WireLink>{});
  const auto eager = run(std::type_identity<PerPacketWire>{});
  EXPECT_EQ(lazy, eager);
  ASSERT_EQ(lazy.first.size(), 5u);
  EXPECT_EQ(lazy.first[2].polled, us(10) + irq);
  EXPECT_EQ(lazy.first[3].t_wire, 12500);
  EXPECT_GE(lazy.first[3].polled, 12500 + irq);
  // Three IRQs: at 1 us, 12.5 us and 31 us.
  EXPECT_EQ(lazy.second, 3 * irq);
}

// Two wires into one receiver (the webserving layout): the merged arrival
// order, the per-flow wire sequence, every poll's contents, and the IRQ and
// driver time equal one event per packet — with far fewer events.
TEST(WireLink, TwoWiresInterleaveLikePerPacketEvents) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const RxReplay lazy = replay_rx<mflow::workload::WireLink>(seed);
    const RxReplay eager = replay_rx<PerPacketWire>(seed);
    ASSERT_GT(eager.seen.size(), 500u);
    EXPECT_EQ(lazy.seen, eager.seen) << "seed " << seed;
    EXPECT_EQ(lazy.irq_ns, eager.irq_ns) << "seed " << seed;
    EXPECT_EQ(lazy.driver_ns, eager.driver_ns) << "seed " << seed;
    EXPECT_LT(lazy.events, eager.events) << "seed " << seed;
  }
}

// A wire with a fault injector keeps one event per packet: its verdicts
// must be drawn at each arrival instant.
TEST(WireLink, FaultedWireKeepsOneEventPerPacket) {
  auto run = [](bool faulted) {
    RxRig<mflow::workload::WireLink> rig;
    mflow::net::FaultInjector faults(mflow::net::FaultPlan{});
    if (faulted) {
      rig.a.set_fault_injector(&faults);
      rig.b.set_fault_injector(&faults);
    }
    auto* r = &rig;
    rig.driver_core().inject(Tag::kOther, us(50));
    for (int i = 0; i < 40; ++i)
      rig.sim.at(i * 250, [r, i] { r->send(i % 2 == 0 ? r->a : r->b); });
    return std::pair{rig.sim.run(), rig.seen};
  };
  const auto [lazy_events, lazy_seen] = run(false);
  const auto [faulted_events, faulted_seen] = run(true);
  EXPECT_EQ(faulted_seen, lazy_seen);
  // Unfaulted, only each wire's first packet (sent while the driver was
  // idle) arrives as an event; faulted, all 40 do.
  EXPECT_EQ(faulted_events - lazy_events, 38u);
}

TEST(Simulator, SeededRngDeterministic) {
  Simulator a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.rng().next(), b.rng().next());
}

TEST(EventQueue, FifoTieBreakSurvivesSlotReuse) {
  // Pops free slots and the LIFO free list hands them back in reverse, so
  // slot order stops matching insertion order; ties must still pop FIFO.
  EventQueue q;
  std::vector<int> order;
  int next = 0;
  for (; next < 8; ++next)
    q.push(5, [&order, i = next] { order.push_back(i); });
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 3; ++k) q.pop().second();
    for (int k = 0; k < 5; ++k, ++next)
      q.push(5, [&order, i = next] { order.push_back(i); });
  }
  q.push(4, [&order] { order.push_back(-1); });  // earlier time jumps ahead
  while (!q.empty()) q.pop().second();
  std::vector<int> want;
  for (int i = 0; i < 12; ++i) want.push_back(i);
  want.push_back(-1);
  for (int i = 12; i < next; ++i) want.push_back(i);
  EXPECT_EQ(order, want);
}

TEST(EventQueue, PendingMoveOnlyCaptureIsReleasedOnClear) {
  PacketPool pool(PoolConfig{.slabs = 8});  // outlives the queues below
  {
    EventQueue q;
    for (int i = 0; i < 3; ++i) q.push(10 + i, [p = pool.acquire()] {});
    EXPECT_EQ(pool.in_use(), 3u);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(pool.in_use(), 0u);
    q.push(1, [p = pool.acquire()] {});
    EXPECT_EQ(pool.in_use(), 1u);
  }  // destroyed with the event still pending
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(EventQueue, NonTrivialCapturesSurviveSlabGrowth) {
  // Growing the slab relocates every pending callable; captures that own
  // memory must arrive intact.
  EventQueue q;
  long sum = 0;
  for (int i = 0; i < 1000; ++i)
    q.push(1000 - i, [&sum, v = std::make_unique<int>(i)] { sum += *v; });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(sum, 999L * 1000 / 2);
}

namespace {

/// Self-rescheduling event whose capture fills EventFn's whole buffer.
struct FullCapture {
  Simulator* sim;
  std::uint64_t* fired;
  std::array<std::uint64_t, 5> payload;
  void operator()() {
    ++*fired;
    ++payload[0];
    sim->after(3 + static_cast<Time>(payload[0] % 5), *this);
  }
};
static_assert(sizeof(FullCapture) == EventFn::kCapacity);

/// Self-rescheduling event that owns a pooled packet and trades it for a
/// fresh one each time it fires.
struct PacketCapture {
  Simulator* sim;
  PacketPool* pool;
  std::uint64_t* fired;
  PacketPtr pkt;
  void operator()() {
    ++*fired;
    pkt = pool->acquire();
    sim->after(7, PacketCapture{sim, pool, fired, std::move(pkt)});
  }
};

}  // namespace

TEST(Simulator, SteadyStateEventLoopIsAllocationFree) {
  PacketPool pool(PoolConfig{.slabs = 64});
  Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 32; ++i) {
    sim.at(i, FullCapture{&sim, &fired, {}});
    sim.at(i, PacketCapture{&sim, &pool, &fired, pool.acquire()});
    sim.at(i, [&sim, &fired] {
      ++fired;
      sim.after(11, [&fired] { ++fired; });  // one-shot events too
    });
  }
  sim.run_until(1'000);  // warm-up: slab, heap and free list reach depth
  const std::uint64_t before = alloc_counter::calls();
  const std::uint64_t fired_before = fired;
  sim.run_until(100'000);
  const std::uint64_t allocs = alloc_counter::calls() - before;
  EXPECT_GT(fired - fired_before, 100'000u);
  EXPECT_EQ(allocs, 0u) << "steady-state event loop touched the allocator";
  EXPECT_EQ(pool.in_use(), 32u);
}
