// Stage framework: the in-kernel packet-processing pipeline.
//
// A Path is an ordered list of Stages (driver, GRO, IP, VXLAN, bridge, veth,
// transport). Packets move between stages through *stage transition
// functions* — in our model, Machine::inject_into_path() — which enqueue the
// skb into the next stage's per-core queue. Where that queue lives is decided
// by the installed SteeringPolicy (vanilla / RPS / FALCON) or intercepted by
// a TransitionHook (MFLOW's flow-splitting function re-purposes exactly this
// transition point, per paper §III-A). A poll resolves the transition once
// per run of same-flow packets (TransitionMemo).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "sim/core.hpp"
#include "stack/costs.hpp"
#include "util/fifo.hpp"

namespace mflow::stack {

class Machine;
class StageQueue;
class TransitionHook;

/// Identifies a pipeline stage kind (a "network device" or function).
enum class StageId : std::uint8_t {
  kDriver,   // descriptor poll + skb allocation (stage 1)
  kGro,      // generic receive offload (a heavyweight *function*)
  kIpOuter,  // host-side IP receive of the encapsulated packet
  kVxlan,    // VXLAN decapsulation device
  kBridge,   // virtual bridge
  kVeth,     // container veth ingress
  kIp,       // (inner) IP receive
  kTcp,      // TCP receive
  kUdp,      // UDP receive
  kSocket,   // terminal: socket ingest
  kNf,       // stateful network function (src/nf: NAT / firewall / LB)
};

std::string_view stage_name(StageId id);

/// Steering decision interface implemented by vanilla/RPS/FALCON (steering/)
/// and consulted at every stage transition.
///
/// Contract: the core depends only on (stage, the packet's flow — its
/// FlowId and FlowKey —, from_core). A poll asks once per run of
/// consecutive packets that agree on all three and reuses the answer for
/// the rest of the run (TransitionMemo), so a stateful policy sees one call
/// per run, not per packet; per-flow state it keeps (FALCON's pin table)
/// must give the same answers and the same recency order either way.
class SteeringPolicy {
 public:
  virtual ~SteeringPolicy() = default;

  /// Core that should run `stage` for this packet; `from_core` ran the
  /// previous stage ("stay local" policies return it unchanged).
  virtual int core_for(StageId stage, const net::Packet& pkt,
                       int from_core) = 0;

  /// Extra per-packet cost charged on `from_core` at this transition
  /// (e.g. the RPS hash computation).
  virtual Time steer_cost(StageId /*stage*/) const { return 0; }

  virtual std::string_view name() const = 0;
};

/// One stage transition resolved for a run of packets: while the next
/// packet enters the same stage from the same core with the same flow,
/// Machine::inject_into_path reuses the hook check, the steering target and
/// charge and the target queue, and raises the target only once. A memo
/// lives for one poll and no longer: a queue raised inside a poll stays
/// scheduled, on a core whose loop stays armed, until the poll's event
/// ends, so the run's later raises would be no-ops.
struct TransitionMemo {
  static constexpr std::size_t kNone = ~std::size_t{0};

  // The run's key.
  std::size_t index = kNone;  // the stage the run enters
  int from_core = -1;
  net::FlowId flow = 0;
  net::FlowKey key{};
  // What the key resolved to.
  TransitionHook* hook = nullptr;  // per-packet hook; queue unused then
  StageQueue* queue = nullptr;
  int target = -1;
  Time charge = 0;      // steer cost plus the local or remote enqueue
  bool raised = false;  // the target queue has been raised in this run

  bool holds(std::size_t next, int from, const net::Packet& pkt) const {
    return next == index && from == from_core && pkt.flow_id == flow &&
           pkt.flow == key;
  }
};

struct StageContext {
  Machine& machine;
  sim::Core& core;
  std::size_t stage_index;  // index of the *current* stage in the path
  TransitionMemo memo{};    // this poll's transitions out of the stage

  /// Send the skb onward through the stage transition function.
  void forward(net::PacketPtr pkt);
};

/// A pipeline stage. Stateful stages keep per-core state internally (the
/// same Stage object serves its queues on every core).
class Stage {
 public:
  virtual ~Stage() = default;
  virtual StageId id() const = 0;
  virtual sim::Tag tag() const = 0;
  /// CPU cost of processing this skb at this stage.
  virtual Time cost(const net::Packet& pkt) const = 0;
  /// Act on the skb and forward (or absorb) it.
  virtual void process(net::PacketPtr pkt, StageContext& ctx) = 0;
  /// Called when a poll batch on `ctx.core` ends (GRO flush point).
  virtual void end_batch(StageContext& /*ctx*/) {}
};

/// Per-(stage, core) work queue; a Pollable scheduled on its core like the
/// per-device softirq backlog it models.
class StageQueue : public sim::Pollable {
 public:
  StageQueue(Machine& machine, Stage& stage, std::size_t stage_index,
             int core_id)
      : machine_(machine),
        stage_(stage),
        stage_index_(stage_index),
        core_id_(core_id) {}

  void enqueue(net::PacketPtr&& pkt) {
    fifo_.emplace_back() = std::move(pkt);
  }
  std::size_t depth() const { return fifo_.size(); }
  int core_id() const { return core_id_; }

  bool poll(sim::Core& core, int budget) override;
  std::string_view poll_name() const override {
    return stage_name(stage_.id());
  }

 private:
  Machine& machine_;
  Stage& stage_;
  std::size_t stage_index_;
  int core_id_;
  util::Fifo<net::PacketPtr> fifo_;
};

/// Hook intercepting the transition *into* path stage `next_index`.
/// MFLOW's flow-splitting function is implemented as one of these.
class TransitionHook {
 public:
  virtual ~TransitionHook() = default;
  virtual void on_forward(net::PacketPtr pkt, std::size_t next_index,
                          int from_core) = 0;
};

}  // namespace mflow::stack
