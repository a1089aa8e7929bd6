#include "workload/txhost.hpp"

#include "steering/modes.hpp"

namespace mflow::workload {

/// The sending application: generates message fragments into the egress
/// path on the app core (sendmsg syscall + per-fragment socket work).
class TxHost::App final : public sim::Pollable {
 public:
  explicit App(TxHost& host) : host_(host) {}

  bool poll(sim::Core& core, int budget) override {
    TxHost& h = host_;
    const stack::CostModel& costs = h.config_.costs;
    stack::TransitionMemo into_path;
    for (int n = 0; n < budget; ++n) {
      if (frag_off_ == 0)
        core.charge(sim::Tag::kApp, costs.client_per_msg);
      const std::uint32_t len = std::min<std::uint32_t>(
          h.config_.mss, h.config_.message_size - frag_off_);
      core.charge(sim::Tag::kSender, costs.client_udp_per_pkt);

      auto pkt = net::make_udp_datagram(h.config_.flow, len);
      pkt->flow_id = h.config_.flow_id;
      pkt->message_id = messages_;
      pkt->message_bytes = h.config_.message_size;
      // wire_seq doubles as the sender-side order stamp so the TX merge has
      // ground truth; the receiver NIC re-stamps it on arrival.
      pkt->wire_seq = order_++;
      h.machine_.inject_into_path(0, core.id(), std::move(pkt), into_path);

      frag_off_ += len;
      if (frag_off_ >= h.config_.message_size) {
        frag_off_ = 0;
        ++messages_;
        if (h.config_.pace_per_message != 0) {
          h.sim_.after(h.config_.pace_per_message, [this] {
            host_.machine_.core(0).raise(*this);
          });
          return false;
        }
      }
    }
    return true;
  }

  std::string_view poll_name() const override { return "tx-app"; }
  std::uint64_t messages() const { return messages_; }

 private:
  TxHost& host_;
  std::uint32_t frag_off_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t order_ = 0;
};

/// MFLOW-TX wire drain: merges micro-flows back into flow order and puts
/// them on the wire (runs on its own core, like the NIC TX queue's lock).
class TxHost::WireDrain final : public sim::Pollable {
 public:
  explicit WireDrain(TxHost& host) : host_(host) {}

  bool poll(sim::Core& core, int budget) override {
    TxHost& h = host_;
    for (int n = 0; n < budget; ++n) {
      net::PacketPtr pkt = h.merger_->pop_ready();
      const sim::Time merge_ns = h.merger_->take_pending_charge();
      if (merge_ns > 0) core.charge(sim::Tag::kMerge, merge_ns);
      if (!pkt) return false;
      ++h.on_wire_;
      h.payload_bytes_out_ += pkt->payload_len;
      h.wire_.transmit(std::move(pkt));
    }
    return h.merger_->pop_ready_available();
  }

  std::string_view poll_name() const override { return "tx-wire-drain"; }

 private:
  TxHost& host_;
};

namespace {
stack::MachineParams tx_machine_params(const TxHost::Config& cfg) {
  stack::MachineParams mp;
  mp.num_cores = cfg.cores;
  mp.costs = cfg.costs;
  mp.nic.num_queues = 1;  // unused: this machine only transmits
  return mp;
}
}  // namespace

TxHost::TxHost(sim::Simulator& sim, Config config, WireLink& wire)
    : sim_(sim),
      config_(std::move(config)),
      wire_(wire),
      machine_(sim, tx_machine_params(config_)) {
  machine_.set_path(stack::build_tx_path(machine_.costs(),
                                         config_.outer_src,
                                         config_.outer_dst, config_.vni));
  machine_.set_steering(steer::make_policy(exp::Mode::kVanilla));
  machine_.set_terminal(
      [this](net::PacketPtr pkt, int from_core) {
        wire_out(std::move(pkt), from_core);
      });

  app_ = std::make_unique<App>(*this);
  if (config_.mflow_tx) {
    merger_ = std::make_unique<core::Reassembler>(machine_.costs());
    drain_ = std::make_unique<WireDrain>(*this);
    // Install the flow-splitting function before the encapsulation stage —
    // the heavyweight device of the *egress* path.
    core::MflowConfig mcfg;
    mcfg.batch_size = config_.batch_size;
    mcfg.splitting_cores = config_.splitting_cores;
    mcfg.split_point = core::SplitPoint::kBeforeStage;
    mcfg.split_before = stack::StageId::kVxlan;
    // The splitter holds the config by reference; this TxHost owns it.
    mflow_cfg_ = std::make_unique<core::MflowConfig>(mcfg);
    splitter_ = std::make_unique<core::FlowSplitter>(
        machine_, *mflow_cfg_,
        [this](const net::Packet&) { return merger_.get(); });
    machine_.set_transition_hook(machine_.stage_index(stack::StageId::kVxlan),
                                 splitter_.get());
  }
}

TxHost::~TxHost() = default;

void TxHost::start() { machine_.core(0).raise(*app_); }

std::uint64_t TxHost::messages_generated() const { return app_->messages(); }

double TxHost::offered_gbps(sim::Time window) const {
  return static_cast<double>(payload_bytes_out_) * 8.0 /
         sim::to_seconds(window) / 1e9;
}

void TxHost::wire_out(net::PacketPtr pkt, int from_core) {
  if (config_.mflow_tx) {
    // Order must be restored before the wire: deposit into the per-core
    // buffer queues and let the drain merge micro-flows.
    merger_->deposit(std::move(pkt), from_core);
    const bool remote = from_core != config_.wire_core;
    if (machine_.core(config_.wire_core).raise(*drain_, remote) && remote)
      machine_.core(from_core).charge(sim::Tag::kSteer,
                                      machine_.costs().ipi_cost);
    return;
  }
  ++on_wire_;
  payload_bytes_out_ += pkt->payload_len;
  wire_.transmit(std::move(pkt));
}

}  // namespace mflow::workload
