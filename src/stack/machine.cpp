#include "stack/machine.hpp"

#include "stack/driver.hpp"
#include "trace/trace.hpp"

namespace mflow::stack {

Machine::Machine(sim::Simulator& sim, MachineParams params)
    : sim_(sim), params_(std::move(params)), nic_(params_.nic) {
  cores_.reserve(static_cast<std::size_t>(params_.num_cores));
  for (int i = 0; i < params_.num_cores; ++i)
    cores_.push_back(
        std::make_unique<sim::Core>(sim_, i, params_.core_params));
  if (params_.irq_affinity.empty()) {
    // Default: queue i handled by core 1 + i (core 0 is the app core).
    for (int q = 0; q < params_.nic.num_queues; ++q)
      params_.irq_affinity.push_back(1 + q % (params_.num_cores - 1));
  }
}

Machine::~Machine() = default;

void Machine::set_path(std::vector<std::unique_ptr<Stage>> stages) {
  path_ = std::move(stages);
  hooks_.assign(path_.size() + 1, nullptr);
  queues_.clear();
  queues_.resize(path_.size() * cores_.size());
}

std::size_t Machine::stage_index(StageId id) const {
  for (std::size_t i = 0; i < path_.size(); ++i)
    if (path_[i]->id() == id) return i;
  throw std::out_of_range("stage not present in path");
}

bool Machine::has_stage(StageId id) const {
  for (const auto& s : path_)
    if (s->id() == id) return true;
  return false;
}

void Machine::set_steering(std::unique_ptr<SteeringPolicy> policy) {
  steering_ = std::move(policy);
}

void Machine::set_transition_hook(std::size_t index, TransitionHook* hook) {
  hooks_.at(index) = hook;
}

Socket& Machine::add_socket(std::uint16_t port, SocketConfig cfg) {
  auto [it, inserted] =
      sockets_.emplace(port, std::make_unique<Socket>(*this, cfg));
  if (!inserted) throw std::invalid_argument("port already bound");
  return *it->second;
}

Socket& Machine::socket(std::uint16_t port) {
  auto it = sockets_.find(port);
  if (it == sockets_.end()) throw std::out_of_range("no socket on port");
  return *it->second;
}

void Machine::start() {
  drivers_.clear();
  owned_drivers_.clear();
  for (int q = 0; q < nic_.num_queues(); ++q) {
    const int core_id =
        params_.irq_affinity[static_cast<std::size_t>(q) %
                             params_.irq_affinity.size()];
    owned_drivers_.push_back(
        std::make_unique<DriverPollable>(*this, nic_.queue(q), core_id));
    drivers_.push_back(DriverEntry{owned_drivers_.back().get(), core_id});
  }
  nic_.set_irq_line(this);
}

void Machine::irq(int queue) {
  DriverEntry& d = drivers_[static_cast<std::size_t>(queue)];
  sim::Core& c = core(d.core_id);
  // NAPI: the device interrupt is masked while its pollable is scheduled;
  // only a fresh wakeup pays top-half cost.
  if (!d.pollable->scheduled()) {
    c.inject(sim::Tag::kIrq, params_.costs.irq);
    if (trace::Tracer* tr = trace::active())
      tr->mark(trace::EventKind::kIrqRaise, sim_.now(), d.core_id,
               static_cast<std::uint64_t>(queue));
  }
  c.raise(*d.pollable, /*remote=*/false);
}

void Machine::override_driver(int queue, sim::Pollable* driver, int core_id) {
  auto& d = drivers_.at(static_cast<std::size_t>(queue));
  d.pollable = driver;
  d.core_id = core_id;
}

StageQueue& Machine::queue(std::size_t index, int core_id) {
  std::unique_ptr<StageQueue>& q =
      queues_.at(index * cores_.size() + static_cast<std::size_t>(core_id));
  if (!q) q = std::make_unique<StageQueue>(*this, *path_[index], index, core_id);
  return *q;
}

void Machine::remove_rx_source(RxSource* src) {
  std::erase(rx_sources_, src);
}

void Machine::pull_arrivals(sim::Ticket limit) {
  // Merge by ticket: deliver the earliest source's packets up to the next
  // source's head (or the limit), then look again. One source takes one
  // round.
  for (;;) {
    RxSource* first = nullptr;
    sim::Ticket first_due;
    sim::Ticket bound = limit;
    for (RxSource* src : rx_sources_) {
      sim::Ticket due;
      if (!src->lazy_head(due) || !(due < bound)) continue;
      if (first == nullptr || due < first_due) {
        if (first != nullptr) bound = first_due;
        first = src;
        first_due = due;
      } else {
        bound = due;
      }
    }
    if (first == nullptr) return;
    first->pull(bound);
  }
}

void Machine::resolve(TransitionMemo& t, std::size_t index, int from_core,
                      const net::Packet& pkt) {
  t.index = index;
  t.from_core = from_core;
  t.flow = pkt.flow_id;
  t.key = pkt.flow;
  t.raised = false;
  t.hook = hooks_[index];
  if (t.hook != nullptr) return;
  const StageId next_id = path_[index]->id();
  int target = from_core;
  Time steer_cost = 0;
  if (steering_) {
    target = steering_->core_for(next_id, pkt, from_core);
    steer_cost = steering_->steer_cost(next_id);
  }
  t.target = target;
  t.charge = steer_cost + (target != from_core ? params_.costs.remote_enqueue
                                               : params_.costs.local_enqueue);
  t.queue = &queue(index, target);
}

void Machine::inject_into_path(std::size_t index, int from_core,
                               net::PacketPtr pkt, TransitionMemo& memo) {
  if (index >= path_.size()) {
    if (terminal_) {
      terminal_(std::move(pkt), from_core);
    } else {
      socket_ingest(std::move(pkt), from_core);
    }
    return;
  }
  if (!memo.holds(index, from_core, *pkt))
    resolve(memo, index, from_core, *pkt);
  if (memo.hook != nullptr) {
    memo.hook->on_forward(std::move(pkt), index, from_core);
    return;
  }
  const int target = memo.target;
  const bool handoff = target != from_core;
  sim::Core& fc = core(from_core);
  fc.charge(sim::Tag::kSteer, memo.charge);
  trace::Tracer* tr = trace::active();
  if (handoff && tr != nullptr)
    tr->packet(trace::EventKind::kHandoff, fc.vnow(), from_core, pkt->flow_id,
               pkt->wire_seq, pkt->microflow_id,
               static_cast<std::uint64_t>(target));
  if (handoff && faults_ != nullptr) {
    const net::FaultAction action = faults_->decide(net::FaultPoint::kHandoff);
    if (tr != nullptr && action != net::FaultAction::kNone) {
      tr->registry().add("fault.handoff_verdicts");
      tr->packet(trace::EventKind::kFaultVerdict, fc.vnow(), from_core,
                 pkt->flow_id, pkt->wire_seq, pkt->microflow_id,
                 static_cast<std::uint64_t>(action));
    }
    switch (action) {
      case net::FaultAction::kDrop:
        faults_->note_dropped_segs(pkt->gro_segs);
        if (tr != nullptr)
          tr->packet(trace::EventKind::kDrop, fc.vnow(), from_core,
                     pkt->flow_id, pkt->wire_seq, pkt->microflow_id);
        note_lost_in_flight(*pkt);
        return;  // the skb vanishes between the cores
      case net::FaultAction::kCorrupt:
        faults_->corrupt(*pkt);
        break;
      case net::FaultAction::kDuplicate:
        enqueue(memo, fc, net::clone_packet(*pkt));
        break;
      case net::FaultAction::kDelay: {
        sim_.after(faults_->delay_ns(net::FaultPoint::kHandoff),
                   [this, index, target, from_core,
                    held = std::move(pkt)]() mutable {
                     deliver_to_stage(index, target, from_core,
                                      std::move(held),
                                      /*charge_handoff=*/false);
                   });
        return;
      }
      case net::FaultAction::kNone:
        break;
    }
  }
  enqueue(memo, fc, std::move(pkt));
}

void Machine::enqueue(TransitionMemo& t, sim::Core& fc, net::PacketPtr&& pkt) {
  if (trace::Tracer* tr = trace::active())
    tr->packet(trace::EventKind::kEnqueue, fc.vnow(), t.target, pkt->flow_id,
               pkt->wire_seq, pkt->microflow_id,
               static_cast<std::uint64_t>(path_[t.index]->id()));
  t.queue->enqueue(std::move(pkt));
  if (t.raised) {
    // Raised earlier in this poll: the queue is still scheduled.
    assert(t.queue->scheduled());
    return;
  }
  t.raised = true;
  const bool remote = t.target != fc.id();
  if (core(t.target).raise(*t.queue, remote) && remote)
    fc.charge(sim::Tag::kSteer, params_.costs.ipi_cost);
}

void Machine::note_lost_in_flight(const net::Packet& pkt) {
  if (pkt.microflow_id != 0 && split_drop_) split_drop_(pkt);
}

void Machine::deliver_to_stage(std::size_t index, int target_core,
                               int from_core, net::PacketPtr pkt,
                               bool charge_handoff) {
  sim::Core& fc = core(from_core);
  if (charge_handoff)
    fc.charge(sim::Tag::kSteer, target_core != from_core
                                    ? params_.costs.remote_enqueue
                                    : params_.costs.local_enqueue);
  TransitionMemo once;  // one packet: no run to share the raise with
  once.index = index;
  once.target = target_core;
  once.queue = &queue(index, target_core);
  enqueue(once, fc, std::move(pkt));
}

void Machine::socket_ingest(net::PacketPtr pkt, int from_core) {
  ++ingested_;
  auto it = sockets_.find(pkt->flow.dst_port);
  if (it == sockets_.end()) return;  // no listener: drop (like ICMP unreach)
  core(from_core).charge(sim::Tag::kSteer, params_.costs.sock_enqueue);
  it->second->ingest(std::move(pkt), from_core);
}

void Machine::reset_measurement() {
  for (auto& c : cores_) c->reset_accounting();
  for (auto& [_, s] : sockets_) s->reset_stats();
}

}  // namespace mflow::stack
