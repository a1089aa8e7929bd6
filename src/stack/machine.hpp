// The receiving host: cores + NIC + software path + sockets, wired together.
//
// Machine owns the per-(stage, core) queues and implements the stage
// transition function (inject_into_path): every skb movement between stages
// goes through it, consulting the installed SteeringPolicy or a
// TransitionHook (MFLOW's splitter). This is the single seam where vanilla,
// RPS, FALCON and MFLOW differ — everything else in the pipeline is shared,
// exactly as in the paper where MFLOW reuses the unmodified kernel stack and
// only re-purposes netif_rx and the driver poll. A poll resolves the
// transition once per run of same-flow packets (TransitionMemo); the
// per-packet charges, fault verdicts and trace records stay per packet.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/fault.hpp"
#include "net/nic.hpp"
#include "sim/core.hpp"
#include "sim/simulator.hpp"
#include "stack/socket.hpp"
#include "stack/stage.hpp"

namespace mflow::stack {

class FlowCache;

struct MachineParams {
  int num_cores = 16;
  net::NicParams nic{};
  CostModel costs{};
  sim::CoreParams core_params{};
  /// RX-queue -> core affinity (like /proc/irq/*/smp_affinity). Default set
  /// in the constructor: queue i -> core 1 + i.
  std::vector<int> irq_affinity{};
};

class Machine final : private net::IrqLine {
 public:
  Machine(sim::Simulator& sim, MachineParams params);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Simulator& simulator() { return sim_; }
  net::Nic& nic() { return nic_; }
  const CostModel& costs() const { return params_.costs; }
  const MachineParams& params() const { return params_; }

  sim::Core& core(int id) { return *cores_.at(static_cast<std::size_t>(id)); }
  int num_cores() const { return static_cast<int>(cores_.size()); }

  // --- topology setup --------------------------------------------------------
  /// Install the software path: the ordered stages every received packet
  /// traverses after the driver. Terminal socket ingest is implicit.
  void set_path(std::vector<std::unique_ptr<Stage>> stages);
  std::size_t path_length() const { return path_.size(); }
  Stage& stage_at(std::size_t index) { return *path_.at(index); }
  /// Index of the first stage with this id; throws if absent.
  std::size_t stage_index(StageId id) const;
  bool has_stage(StageId id) const;

  void set_steering(std::unique_ptr<SteeringPolicy> policy);
  SteeringPolicy* steering() { return steering_.get(); }

  /// Per-flow fast-path cache installed on the overlay stages (non-owning;
  /// overlay::install_flow_cache wires the stage-side pointers). Exposed so
  /// control-plane invalidation (MflowEngine::set_flow_degree) can reach it
  /// without the engine knowing about the overlay wiring.
  void set_flow_cache(FlowCache* cache) { flow_cache_ = cache; }
  FlowCache* flow_cache() { return flow_cache_; }

  /// Intercept the transition into path stage `index` (non-owning; the
  /// installer keeps the hook alive).
  void set_transition_hook(std::size_t index, TransitionHook* hook);

  Socket& add_socket(std::uint16_t port, SocketConfig cfg);
  Socket& socket(std::uint16_t port);

  /// Create the default per-queue driver pollables and IRQ wiring.
  /// Call after set_path/set_steering.
  void start();

  /// Replace the driver for `queue` (MFLOW IRQ-splitting installs its
  /// first-half pollable here). Non-owning.
  void override_driver(int queue, sim::Pollable* driver, int core_id);

  // --- runtime plumbing (stages, hooks, workloads) -----------------------------
  /// Route a packet into path stage `index` (hooks/steering applied);
  /// index == path_length() means terminal socket ingest. `memo` is the
  /// caller's poll's transition: the hook check, steering decision and
  /// target queue are reused while (index, from_core, flow) repeat, and the
  /// target is raised once per run. Callers outside a poll pass a fresh
  /// memo.
  void inject_into_path(std::size_t index, int from_core, net::PacketPtr pkt,
                        TransitionMemo& memo);

  /// Place a packet directly onto stage `index`'s queue on `target_core`,
  /// bypassing steering (MFLOW's splitter uses this with its own amortized
  /// charging; charge_handoff selects the default per-skb handoff charge).
  /// Raises the target for this packet alone.
  void deliver_to_stage(std::size_t index, int target_core, int from_core,
                        net::PacketPtr pkt, bool charge_handoff);

  /// Terminal delivery into the owning socket's queues.
  void socket_ingest(net::PacketPtr pkt, int from_core);

  /// Override the terminal: packets leaving the last stage go to `fn`
  /// instead of socket lookup. Used to model *transmit* pipelines, where
  /// the end of the path is the wire, not a socket.
  using Terminal = std::function<void(net::PacketPtr, int from_core)>;
  void set_terminal(Terminal fn) { terminal_ = std::move(fn); }

  // --- lazy wire arrivals ------------------------------------------------------
  /// A wire feeding this machine's NIC (workload::WireLink; stack/ does not
  /// see workload/). While every RX-queue consumer is scheduled, an arrival
  /// only fills a ring that the consumer's next poll reads, so the source
  /// holds such packets without events and the machine pulls them: when a
  /// consumer's poll starts, when any arrival event runs, and at measurement
  /// boundaries. When a consumer goes idle, the machine wakes its sources,
  /// and each schedules its oldest packet's arrival again.
  class RxSource {
   public:
    /// Ticket of the oldest packet held without an event; false if none.
    virtual bool lazy_head(sim::Ticket& due) const = 0;
    /// Deliver, in order, the held packets whose tickets sort before
    /// `limit`, each stamped with its own arrival time.
    virtual void pull(sim::Ticket limit) = 0;
    /// Give the oldest held packet its arrival event back.
    virtual void wake() = 0;

   protected:
    ~RxSource() = default;
  };
  /// Register a source (non-owning; it unregisters before it dies).
  void add_rx_source(RxSource* src) { rx_sources_.push_back(src); }
  void remove_rx_source(RxSource* src);

  /// True while every RX-queue consumer (driver or IRQ-split first half) is
  /// scheduled: an arrival then needs no event of its own.
  bool rx_polling() const {
    if (drivers_.empty()) return false;  // not started: nothing polls
    for (const DriverEntry& d : drivers_)
      if (!d.pollable->scheduled()) return false;
    return true;
  }

  /// A held arrival a source delivers from pull(): into the NIC without
  /// the IRQ path. Its queue's consumer is scheduled (the source held it
  /// only while every consumer was, and a consumer that goes idle wakes the
  /// sources first), so the interrupt is masked and an IRQ would change
  /// nothing.
  void receive_polled(net::PacketPtr pkt, sim::Time at) {
    [[maybe_unused]] const int q = nic_.receive(std::move(pkt), at);
    assert(q < 0 ||
           drivers_[static_cast<std::size_t>(q)].pollable->scheduled());
  }

  /// Deliver every held arrival whose ticket sorts before `limit`, merged
  /// across sources in ticket order. An RX consumer calls it with
  /// sim::Simulator::running() when its poll starts; so does every arrival
  /// event before its own packet, and a caller that reads the NIC between
  /// runs passes {now, 0}.
  void pull_arrivals(sim::Ticket limit);

  /// An RX consumer went idle (its poll returned false, its ring empty):
  /// the next arrival must be an event again, to raise the IRQ.
  void wake_rx_sources() {
    for (RxSource* src : rx_sources_) src->wake();
  }

  // --- fault injection ---------------------------------------------------------
  /// Perturb packets crossing the inter-core steering handoff (non-owning;
  /// the same injector is usually also installed on the wire and splitter).
  void set_fault_injector(net::FaultInjector* inj) { faults_ = inj; }
  net::FaultInjector* fault_injector() { return faults_; }

  /// Notification that a packet died inside the path (verification drop,
  /// injected fault) — `handler` receives every lost packet that belonged
  /// to a split micro-flow, so merge bookkeeping can retract it.
  using SplitDropHandler = std::function<void(const net::Packet&)>;
  void set_split_drop_handler(SplitDropHandler handler) {
    split_drop_ = std::move(handler);
  }
  /// Stages call this before freeing a packet they refuse to forward.
  void note_lost_in_flight(const net::Packet& pkt);

  // --- measurement ---------------------------------------------------------------
  /// Zero core accounting and socket stats (warmup boundary).
  void reset_measurement();

  std::uint64_t socket_ingest_count() const { return ingested_; }

 private:
  /// net::IrqLine: a wire delivery landed on `queue`'s ring.
  void irq(int queue) override;

  StageQueue& queue(std::size_t index, int core_id);
  /// Resolve `t` for packets like `pkt` entering stage `index` from
  /// `from_core`: hook, or steering target, charge and queue.
  void resolve(TransitionMemo& t, std::size_t index, int from_core,
               const net::Packet& pkt);
  /// Put `pkt` on t.queue, raising the target unless t.raised says this
  /// run already did; `fc` is the core paying for the handoff.
  void enqueue(TransitionMemo& t, sim::Core& fc, net::PacketPtr&& pkt);

  struct DriverEntry {
    sim::Pollable* pollable = nullptr;  // points into owned_drivers_ or override
    int core_id = 1;
  };

  sim::Simulator& sim_;
  MachineParams params_;
  std::vector<std::unique_ptr<sim::Core>> cores_;
  net::Nic nic_;

  std::vector<std::unique_ptr<Stage>> path_;
  std::unique_ptr<SteeringPolicy> steering_;
  std::vector<TransitionHook*> hooks_;  // indexed by target stage index

  // queues_[stage index * num_cores + core id], made on first use
  std::vector<std::unique_ptr<StageQueue>> queues_;

  std::vector<std::unique_ptr<sim::Pollable>> owned_drivers_;
  std::vector<DriverEntry> drivers_;  // per NIC queue

  std::vector<RxSource*> rx_sources_;
  std::unordered_map<std::uint16_t, std::unique_ptr<Socket>> sockets_;
  Terminal terminal_;
  net::FaultInjector* faults_ = nullptr;
  FlowCache* flow_cache_ = nullptr;
  SplitDropHandler split_drop_;
  std::uint64_t ingested_ = 0;
};

}  // namespace mflow::stack
