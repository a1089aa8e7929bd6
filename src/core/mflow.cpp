#include "core/mflow.hpp"

#include <algorithm>

#include "stack/flowcache.hpp"

namespace mflow::core {

MflowEngine::MflowEngine(stack::Machine& machine, MflowConfig config)
    : machine_(machine), config_(std::move(config)) {}

MflowEngine::~MflowEngine() = default;

void MflowEngine::attach_socket(std::uint16_t port, stack::Socket& socket) {
  auto ra = std::make_unique<Reassembler>(
      machine_.costs(), &machine_.simulator(),
      ReassemblerParams{config_.merge_eviction_timeout,
                        config_.split_gate_grace});
  // Eviction can turn buffered data ready with no deposit in sight; the
  // reader must still wake up or the recovered packets sit forever.
  stack::Socket* sock = &socket;
  ra->set_ready_callback([sock] { sock->notify_merge_ready(); });
  socket.set_merge_buffer(ra.get());
  reassemblers_[port] = std::move(ra);
}

Reassembler* MflowEngine::reassembler_for_port(std::uint16_t port) {
  const auto it = reassemblers_.find(port);
  return it == reassemblers_.end() ? nullptr : it->second.get();
}

void MflowEngine::install() {
  auto lookup = [this](const net::Packet& pkt) {
    return reassembler_for_port(pkt.flow.dst_port);
  };

  // Any split packet that dies inside the path (checksum drop of a
  // corrupted skb, injected handoff loss) is retracted here so its batch
  // does not wait for it.
  machine_.set_split_drop_handler([this](const net::Packet& pkt) {
    if (Reassembler* ra = reassembler_for_port(pkt.flow.dst_port))
      ra->note_drop(pkt.flow_id, pkt.microflow_id, pkt.gro_segs);
  });

  switch (config_.split_point) {
    case SplitPoint::kBeforeStage: {
      const std::size_t idx = machine_.stage_index(config_.split_before);
      splitter_ =
          std::make_unique<FlowSplitter>(machine_, config_, lookup);
      machine_.set_transition_hook(idx, splitter_.get());
      break;
    }
    case SplitPoint::kIrq: {
      for (int q = 0; q < machine_.nic().num_queues(); ++q) {
        const auto& affinity = machine_.params().irq_affinity;
        const int irq_core =
            affinity[static_cast<std::size_t>(q) % affinity.size()];
        irq_splitters_.push_back(std::make_unique<IrqSplitter>(
            machine_, config_, machine_.nic().queue(q), irq_core, lookup));
        irq_splitters_.back()->install(q);
      }
      break;
    }
  }
}

std::uint64_t MflowEngine::ooo_arrivals() const {
  std::uint64_t total = 0;
  for (const auto& [_, ra] : reassemblers_) total += ra->ooo_arrivals();
  return total;
}

std::uint64_t MflowEngine::batches_merged() const {
  std::uint64_t total = 0;
  for (const auto& [_, ra] : reassemblers_) total += ra->batches_merged();
  return total;
}

std::uint64_t MflowEngine::packets_merged() const {
  std::uint64_t total = 0;
  for (const auto& [_, ra] : reassemblers_) total += ra->packets_merged();
  return total;
}

std::uint64_t MflowEngine::drops_recovered() const {
  std::uint64_t total = 0;
  for (const auto& [_, ra] : reassemblers_) total += ra->drops_recovered();
  return total;
}

std::uint64_t MflowEngine::evictions() const {
  std::uint64_t total = 0;
  for (const auto& [_, ra] : reassemblers_) total += ra->evictions();
  return total;
}

std::uint64_t MflowEngine::late_deliveries() const {
  std::uint64_t total = 0;
  for (const auto& [_, ra] : reassemblers_) total += ra->late_deliveries();
  return total;
}

bool MflowEngine::any_flow_blocked() const {
  for (const auto& [_, ra] : reassemblers_)
    if (ra->any_flow_blocked()) return true;
  return false;
}

bool MflowEngine::drained() const {
  for (const auto& [_, ra] : reassemblers_)
    if (!ra->drained()) return false;
  return true;
}

void MflowEngine::set_flow_degree(net::FlowId flow, std::uint32_t degree) {
  if (splitter_ != nullptr) splitter_->assigner().set_flow_degree(flow, degree);
  for (auto& irq : irq_splitters_) irq->assigner().set_flow_degree(flow, degree);
  // A rescale opens a new epoch for the flow: any cached fast-path decision
  // predates it and must not be applied — the first packets under the new
  // degree re-resolve through the slow path and re-commit.
  if (stack::FlowCache* cache = machine_.flow_cache())
    cache->invalidate_flow(flow);
}

bool MflowEngine::release_flow(net::FlowId flow) {
  for (const auto& [_, ra] : reassemblers_)
    if (!ra->flow_quiesced(flow)) return false;
  for (auto& [_, ra] : reassemblers_) ra->forget_flow(flow);
  if (splitter_ != nullptr) splitter_->assigner().erase_flow(flow);
  for (auto& irq : irq_splitters_) irq->assigner().erase_flow(flow);
  if (stack::FlowCache* cache = machine_.flow_cache())
    cache->invalidate_flow(flow);
  return true;
}

void MflowEngine::flow_totals(
    std::vector<control::Controller::FlowTotals>& out) const {
  if (splitter_ != nullptr) splitter_->assigner().append_totals(out);
  // With IRQ splitting each flow's queue is fixed, so the per-queue
  // assigners see disjoint flow sets — concatenation is the union.
  for (const auto& irq : irq_splitters_) irq->assigner().append_totals(out);
}

util::RunningStats MflowEngine::recovery_latency_ns() const {
  util::RunningStats all;
  for (const auto& [_, ra] : reassemblers_)
    all.merge(ra->recovery_latency_ns());
  return all;
}

void MflowEngine::reset_stats() {
  for (auto& [_, ra] : reassemblers_) ra->reset_stats();
}

MflowCapacityAdapter::MflowCapacityAdapter(MflowEngine& engine,
                                           std::uint32_t initial_workers)
    : engine_(engine) {
  active_ = clamp_workers(initial_workers == 0 ? engine_.max_degree()
                                               : initial_workers);
}

std::uint32_t MflowCapacityAdapter::clamp_workers(
    std::uint32_t workers) const {
  const std::uint32_t limit = std::max<std::uint32_t>(worker_limit(), 1);
  return std::min(std::max<std::uint32_t>(workers, 1), limit);
}

void MflowCapacityAdapter::set_flow_degree(net::FlowId flow,
                                           std::uint32_t degree) {
  const std::uint32_t want = std::min(degree, active_);
  const auto it = degrees_.find(flow);
  const std::uint32_t current = it == degrees_.end() ? 0 : it->second;
  if (want == current) return;  // dedup: engine calls invalidate caches
  if (want == 0)
    degrees_.erase(it);
  else
    degrees_[flow] = want;
  engine_.set_flow_degree(flow, want);
}

bool MflowCapacityAdapter::release_flow(net::FlowId flow) {
  if (!engine_.release_flow(flow)) return false;
  degrees_.erase(flow);
  return true;
}

bool MflowCapacityAdapter::set_active_workers(std::uint32_t workers) {
  const std::uint32_t want = clamp_workers(workers);
  if (want >= active_) {
    // Growth (or no-op): the lanes already exist, the flow dimension picks
    // them up on its next tick through max_degree().
    active_ = want;
    return true;
  }
  // Shrink: demote every flow whose degree exceeds the new budget. The
  // engine runs the rescale-drain protocol per flow; the demotions are
  // issued once (the mirror map is updated immediately, so a vetoed
  // retry does not re-issue them).
  for (auto it = degrees_.begin(); it != degrees_.end(); ++it) {
    if (it->second > want) {
      it->second = want;
      engine_.set_flow_degree(it->first, want);
    }
  }
  // The retiring lanes may still carry in-flight batches from the old
  // degrees; committing now would hand the Controller a budget the data
  // path has not vacated. Veto until the drain completes.
  if (!engine_.drained()) return false;
  active_ = want;
  return true;
}

}  // namespace mflow::core
