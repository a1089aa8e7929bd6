#include "core/reassembler.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace mflow::core {
namespace {

std::uint32_t lookup(const std::map<std::uint64_t, std::uint32_t>& m,
                     std::uint64_t key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

}  // namespace

Reassembler::FlowMerge& Reassembler::flow_state(net::FlowId flow) {
  auto [it, inserted] = flows_.try_emplace(flow);
  if (inserted) {
    it->second.id = flow;
    flow_order_.push_back(flow);
  }
  return it->second;
}

void Reassembler::note_dispatch(net::FlowId flow, std::uint64_t batch_id,
                                std::uint32_t segs) {
  flow_state(flow).dispatched[batch_id] += segs;
  segs_dispatched_ += segs;
  ensure_reaper();
}

void Reassembler::note_batch_open(net::FlowId flow, std::uint64_t batch_id) {
  FlowMerge& fm = flow_state(flow);
  fm.open_batch = std::max(fm.open_batch, batch_id);
}

void Reassembler::note_flow_split(net::FlowId flow, std::uint64_t prior_segs,
                                  std::uint64_t first_batch) {
  FlowMerge& fm = flow_state(flow);
  fm.prior_expected = std::max(fm.prior_expected, prior_segs);
  fm.gate_batch = std::max(fm.gate_batch, first_batch);
  if (sim_ != nullptr) {
    fm.split_at = sim_->now();
    // When the grace expires the gate may open with no deposit in sight;
    // wake the reader so queued gated packets do not sit forever.
    if (params_.gate_grace > 0)
      sim_->after(params_.gate_grace, [this] { notify_ready_if_available(); });
  }
  ensure_reaper();
}

void Reassembler::note_flow_unsplit(net::FlowId flow) {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return;  // never actually split: nothing in flight
  FlowMerge& fm = it->second;
  fm.hold_barrier = std::max(fm.hold_barrier, fm.open_batch);
  if (fm.holding || old_work_drained(fm)) return;
  fm.holding = true;
  // Deadline backstop, mirroring the pre-split gate: if the old batches
  // never fully drain (loss with eviction disabled), release the held
  // packets anyway rather than stall the flow forever.
  if (sim_ != nullptr && params_.gate_grace > 0) {
    sim_->after(params_.gate_grace, [this, flow] {
      const auto it2 = flows_.find(flow);
      if (it2 == flows_.end() || !it2->second.holding) return;
      flush_hold(it2->second, /*force=*/true);
      notify_ready_if_available();
    });
  }
}

bool Reassembler::old_work_drained(const FlowMerge& fm) const {
  if (fm.merge_counter > fm.hold_barrier) return true;
  if (fm.merge_counter < fm.hold_barrier) return false;
  // Sitting exactly on the barrier batch: drained once its queue is empty
  // and every dispatched segment is consumed or written off (the counter
  // itself cannot advance past a still-open batch).
  const auto qit = fm.queues.find(fm.merge_counter);
  if (qit != fm.queues.end() && !qit->second.empty()) return false;
  return lookup(fm.consumed, fm.merge_counter) +
             lookup(fm.dropped, fm.merge_counter) >=
         lookup(fm.dispatched, fm.merge_counter);
}

void Reassembler::flush_hold(FlowMerge& fm, bool force) {
  if (!fm.holding) return;
  if (!force && !old_work_drained(fm)) return;
  if (force && !old_work_drained(fm)) {
    ++forced_hold_releases_;
    ++evictions_;
    if (trace::Tracer* tr = trace::active()) {
      tr->registry().add("reasm.evictions");
      tr->registry().add("reasm.forced_hold_releases");
      tr->mark(trace::EventKind::kReasmEvict,
               sim_ != nullptr ? sim_->now() : 0, /*core=*/-1, fm.id);
    }
  }
  while (!fm.hold.empty()) {
    // Segments are credited to the pre-split gate supply only now, at
    // release: a subsequent re-split's first batch cannot open before the
    // held packets it must stay behind are actually deliverable.
    passthrough_segs_[fm.id] += fm.hold.front()->gro_segs;
    passthrough_.push_back(std::move(fm.hold.front()));
    fm.hold.pop_front();
  }
  fm.holding = false;
}

void Reassembler::note_drop(net::FlowId flow, std::uint64_t batch_id,
                            std::uint32_t segs, std::uint32_t ahead) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) return;
  FlowMerge& fm = it->second;
  // Segments of a batch the merge counter already passed were written off
  // at eviction time; recovering them again would double-count.
  if (batch_id < fm.merge_counter) return;
  const std::uint32_t disp = lookup(fm.dispatched, batch_id) - ahead;
  const std::uint32_t cons = lookup(fm.consumed, batch_id);
  const std::uint32_t drop = lookup(fm.dropped, batch_id);
  if (cons + drop >= disp) return;  // batch already complete
  const std::uint32_t add = std::min(segs, disp - cons - drop);
  fm.dropped[batch_id] += add;
  drops_recovered_ += add;
  fm.stall_marked = false;  // retraction is progress
  flush_hold(fm, /*force=*/false);
  notify_ready_if_available();
}

void Reassembler::deposit(net::PacketPtr pkt, int /*from_core*/) {
  ++buffered_;
  max_buffered_ = std::max(max_buffered_, buffered_);
  if (pkt->microflow_id == 0) {
    // A demoted flow's default-path packets are parked until its old split
    // batches drain; everything else passes straight through.
    if (const auto it = flows_.find(pkt->flow_id);
        it != flows_.end() && it->second.holding) {
      it->second.hold.push_back(std::move(pkt));
      ensure_reaper();
      return;
    }
    passthrough_segs_[pkt->flow_id] += pkt->gro_segs;
    passthrough_.push_back(std::move(pkt));
    return;
  }
  FlowMerge& fm = flow_state(pkt->flow_id);
  // Out-of-order arrival metric (Figure 7): a packet whose per-flow wire
  // index is below one already seen here would be delivered out of order
  // were it not for the reassembler.
  if (fm.any_seen && pkt->wire_seq < fm.max_wire_seen) {
    ++ooo_arrivals_;
    if (trace::Tracer* tr = trace::active())
      tr->registry().add("reasm.ooo_arrivals");
  }
  fm.max_wire_seen = std::max(fm.max_wire_seen, pkt->wire_seq);
  fm.any_seen = true;
  if (pkt->microflow_id < fm.merge_counter) {
    // Duplicate or post-eviction straggler: its batch is already merged
    // past. Deliver out of order rather than buffer it forever.
    ++late_deliveries_;
    if (trace::Tracer* tr = trace::active()) {
      tr->registry().add("reasm.late_deliveries");
      tr->packet(trace::EventKind::kLateDelivery,
                 sim_ != nullptr ? sim_->now() : 0, /*core=*/-1, pkt->flow_id,
                 pkt->wire_seq, pkt->microflow_id);
    }
    passthrough_.push_back(std::move(pkt));
    return;
  }
  fm.queues[pkt->microflow_id].push_back(std::move(pkt));
  ensure_reaper();
}

bool Reassembler::gate_open_at(const FlowMerge& fm,
                               std::uint64_t batch) const {
  // Only batches of the current split period are gated; batches from
  // before a re-split keep flowing (they are what the gate waits behind).
  if (fm.prior_expected == 0 || batch < fm.gate_batch) return true;
  const auto it = passthrough_segs_.find(fm.id);
  const std::uint64_t seen = it == passthrough_segs_.end() ? 0 : it->second;
  if (seen >= fm.prior_expected) return true;
  // Stragglers are loss-or-backlog delayed: holding a deadline workload's
  // flow costs more than the residual reorder the transport absorbs.
  return sim_ != nullptr && params_.gate_grace > 0 &&
         sim_->now() >= fm.split_at + params_.gate_grace;
}

bool Reassembler::gate_open(const FlowMerge& fm) const {
  return gate_open_at(fm, fm.merge_counter);
}

net::PacketPtr Reassembler::try_pop_flow(FlowMerge& fm, bool charge) {
  while (true) {
    if (!gate_open_at(fm, fm.merge_counter)) return nullptr;
    auto qit = fm.queues.find(fm.merge_counter);
    if (qit != fm.queues.end() && !qit->second.empty()) {
      net::PacketPtr pkt = std::move(qit->second.front());
      qit->second.pop_front();
      fm.consumed[fm.merge_counter] += pkt->gro_segs;
      fm.stall_marked = false;
      if (charge) {
        pending_charge_ += costs_.mflow_merge_per_skb;
        ++packets_merged_;
        segs_merged_ += pkt->gro_segs;
        --buffered_;
      }
      flush_hold(fm, /*force=*/false);
      return pkt;
    }
    // Current batch's queue is dry: advance only when the batch is closed
    // (the splitter moved past it) and fully accounted for — consumed plus
    // retracted segments cover everything dispatched.
    const std::uint32_t disp = lookup(fm.dispatched, fm.merge_counter);
    const std::uint32_t cons = lookup(fm.consumed, fm.merge_counter);
    const std::uint32_t drop = lookup(fm.dropped, fm.merge_counter);
    if (cons + drop >= disp && fm.open_batch > fm.merge_counter) {
      fm.dispatched.erase(fm.merge_counter);
      fm.consumed.erase(fm.merge_counter);
      fm.dropped.erase(fm.merge_counter);
      fm.queues.erase(fm.merge_counter);
      ++fm.merge_counter;
      fm.stall_marked = false;
      if (charge) {
        pending_charge_ += costs_.mflow_merge_per_batch;
        ++batches_merged_;
      }
      flush_hold(fm, /*force=*/false);
      continue;
    }
    return nullptr;
  }
}

bool Reassembler::flow_has_ready(const FlowMerge& fm) const {
  std::uint64_t counter = fm.merge_counter;
  while (true) {
    if (!gate_open_at(fm, counter)) return false;
    const auto qit = fm.queues.find(counter);
    if (qit != fm.queues.end() && !qit->second.empty()) return true;
    if (lookup(fm.consumed, counter) + lookup(fm.dropped, counter) >=
            lookup(fm.dispatched, counter) &&
        fm.open_batch > counter) {
      ++counter;
      continue;
    }
    return false;
  }
}

bool Reassembler::flow_blocked(const FlowMerge& fm) const {
  if (flow_has_ready(fm)) return false;
  // Held default-path packets are blocked work too: without this the
  // reaper would stop watching a demoted flow whose hold can only be
  // released by force (old batches complete but counter parked on the
  // barrier).
  if (!fm.hold.empty()) return true;
  for (const auto& [batch, q] : fm.queues)
    if (!q.empty()) return true;
  for (const auto& [batch, disp] : fm.dispatched)
    if (lookup(fm.consumed, batch) + lookup(fm.dropped, batch) < disp)
      return true;
  return false;
}

bool Reassembler::any_flow_blocked() const {
  for (const auto& [_, fm] : flows_)
    if (flow_blocked(fm)) return true;
  return false;
}

bool Reassembler::flow_quiesced(net::FlowId flow) const {
  const auto it = flows_.find(flow);
  if (it == flows_.end()) return true;
  const FlowMerge& fm = it->second;
  if (fm.holding || !fm.hold.empty()) return false;
  for (const auto& [batch, q] : fm.queues)
    if (!q.empty()) return false;
  for (const auto& [batch, disp] : fm.dispatched)
    if (lookup(fm.consumed, batch) + lookup(fm.dropped, batch) < disp)
      return false;
  return true;
}

void Reassembler::forget_flow(net::FlowId flow) {
  flows_.erase(flow);
  passthrough_segs_.erase(flow);
  const auto it = std::find(flow_order_.begin(), flow_order_.end(), flow);
  if (it != flow_order_.end()) {
    const auto pos = static_cast<std::size_t>(it - flow_order_.begin());
    flow_order_.erase(it);
    if (rr_ > pos) --rr_;
    if (rr_ >= flow_order_.size()) rr_ = 0;
  }
}

bool Reassembler::drained() const {
  if (buffered_ != 0) return false;
  for (const auto& [_, fm] : flows_) {
    if (!fm.hold.empty()) return false;
    for (const auto& [batch, disp] : fm.dispatched)
      if (lookup(fm.consumed, batch) + lookup(fm.dropped, batch) < disp)
        return false;
  }
  return true;
}

bool Reassembler::evict_step(FlowMerge& fm) {
  const sim::Time now = sim_ != nullptr ? sim_->now() : 0;
  if (!gate_open(fm)) {
    // Pre-split packets lost in flight: forgive the gate; stragglers that
    // do arrive later are still delivered (out of order) via passthrough.
    fm.prior_expected = 0;
    ++evictions_;
    if (trace::Tracer* tr = trace::active()) {
      tr->registry().add("reasm.evictions");
      tr->mark(trace::EventKind::kReasmEvict, now, /*core=*/-1, fm.id);
    }
    recovery_ns_.add(static_cast<double>(now - fm.stall_marked_at));
    return true;
  }
  const std::uint64_t head = fm.merge_counter;
  const std::uint32_t disp = lookup(fm.dispatched, head);
  const std::uint32_t cons = lookup(fm.consumed, head);
  const std::uint32_t drop = lookup(fm.dropped, head);
  if (cons + drop < disp) {
    // Missing segments in the head batch: write them off as recovered
    // drops and charge the eviction sweep.
    const std::uint32_t missing = disp - cons - drop;
    fm.dropped[head] += missing;
    drops_recovered_ += missing;
    ++evictions_;
    if (trace::Tracer* tr = trace::active()) {
      tr->registry().add("reasm.evictions");
      tr->registry().add("reasm.drops_recovered", missing);
      tr->mark(trace::EventKind::kReasmEvict, now, /*core=*/-1, fm.id);
    }
    pending_charge_ += costs_.mflow_evict_per_batch;
    recovery_ns_.add(static_cast<double>(now - fm.stall_marked_at));
  }
  // Advance past the (now complete) head if the splitter has moved on;
  // an open head batch stays current — its retraction above already
  // unblocked the flow.
  if (fm.open_batch > head) {
    fm.dispatched.erase(head);
    fm.consumed.erase(head);
    fm.dropped.erase(head);
    fm.queues.erase(head);
    ++fm.merge_counter;
    return true;
  }
  return false;
}

void Reassembler::ensure_reaper() {
  if (reaper_scheduled_ || sim_ == nullptr || params_.eviction_timeout <= 0)
    return;
  reaper_scheduled_ = true;
  sim_->after(params_.eviction_timeout, [this] { reap(); });
}

void Reassembler::reap() {
  reaper_scheduled_ = false;
  bool keep_watching = false;
  for (net::FlowId flow : flow_order_) {
    FlowMerge& fm = flows_[flow];
    if (!flow_blocked(fm)) {
      fm.stall_marked = false;
      continue;
    }
    if (!fm.stall_marked) {
      // First sweep that sees the stall: arm, evict on the next one.
      fm.stall_marked = true;
      fm.stall_marked_at = sim_->now();
      keep_watching = true;
      continue;
    }
    // Blocked for at least one full timeout: force the head forward until
    // the flow is ready or nothing more can be reclaimed.
    while (flow_blocked(fm) && evict_step(fm)) {
    }
    flush_hold(fm, /*force=*/false);
    fm.stall_marked = false;
    if (flow_blocked(fm)) keep_watching = true;
  }
  if (keep_watching) ensure_reaper();
  notify_ready_if_available();
}

void Reassembler::notify_ready_if_available() {
  if (ready_cb_ && pop_ready_available()) ready_cb_();
}

net::PacketPtr Reassembler::pop_ready() {
  if (!passthrough_.empty()) {
    net::PacketPtr pkt = std::move(passthrough_.front());
    passthrough_.pop_front();
    --buffered_;
    return pkt;
  }
  const std::size_t n = flow_order_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (rr_ + i) % n;
    FlowMerge& fm = flows_[flow_order_[idx]];
    if (net::PacketPtr pkt = try_pop_flow(fm, /*charge=*/true)) {
      rr_ = (idx + 1) % n;
      return pkt;
    }
  }
  return nullptr;
}

bool Reassembler::pop_ready_available() const {
  if (!passthrough_.empty()) return true;
  for (const auto& [_, fm] : flows_)
    if (flow_has_ready(fm)) return true;
  return false;
}

bool Reassembler::has_buffered() const { return buffered_ > 0; }

sim::Time Reassembler::take_pending_charge() {
  const sim::Time t = pending_charge_;
  pending_charge_ = 0;
  return t;
}

void Reassembler::reset_stats() {
  ooo_arrivals_ = 0;
  batches_merged_ = 0;
  packets_merged_ = 0;
  segs_dispatched_ = 0;
  segs_merged_ = 0;
  drops_recovered_ = 0;
  evictions_ = 0;
  late_deliveries_ = 0;
  forced_hold_releases_ = 0;
  recovery_ns_.clear();
  max_buffered_ = buffered_;
}

}  // namespace mflow::core
