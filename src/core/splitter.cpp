#include "core/splitter.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace mflow::core {

void BatchAssigner::init_entry(PerFlow& st, net::FlowId flow) {
  if (st.known) return;
  st.known = true;
  // Stagger the starting splitting core per flow so concurrent elephants
  // spread their first micro-flows instead of piling onto the same core.
  st.rr = static_cast<std::size_t>(flow * 7919u) %
          std::max<std::size_t>(1, config_.splitting_cores.size());
  st.seq = next_seq_++;
}

BatchAssigner::Run BatchAssigner::place(PerFlow& st, net::FlowId flow,
                                        std::uint32_t pkts,
                                        std::uint32_t segs) {
  init_entry(st, flow);
  st.seen_segs += segs;

  // Split decision: a control-plane override wins; otherwise the static
  // elephant threshold decides (the paper's setup-time policy).
  bool split;
  std::size_t degree = config_.splitting_cores.size();
  if (st.has_override) {
    split = st.override_degree > 0;
    degree = std::min<std::size_t>(st.override_degree, degree);
  } else {
    split = st.seen_segs > config_.elephant_threshold_pkts;
  }

  // Packets after the first repeat its decision with every flag clear, so
  // the run only has to find where that stops: the override and degree
  // hold for the whole run, and seen_segs only grows.
  Run run;
  Assignment& out = run.first;
  std::uint64_t more = pkts - 1;  // packets that may follow the first
  if (!split || degree == 0) {
    // Default path. If a splitting period just ended, flag it so the
    // reassembler can hold this flow's default-path packets behind the
    // period's in-flight batches (rescale-drain protocol).
    out.unsplit = st.split_active;
    st.split_active = false;
    // Without an override, packet i stays a mouse while the threshold
    // still covers its count.
    if (more > 0 && degree != 0 && !st.has_override && segs > 0)
      more = std::min<std::uint64_t>(
          more, (config_.elephant_threshold_pkts - st.seen_segs) / segs);
    st.default_segs += (more + 1) * segs;
  } else {
    if (!st.split_active) {
      out.first_split = true;
      out.prior_segs = st.default_segs;
      st.split_active = true;
    }
    if (out.first_split || st.in_batch >= config_.batch_size) {
      // Open the next micro-flow and pick its splitting core round-robin —
      // equal-size batches spread evenly give similar per-core load
      // (§III-A). Degree changes bite here, never mid-batch.
      ++st.batch;
      st.in_batch = 0;
      st.target = config_.splitting_cores[st.rr % degree];
      ++st.rr;
      out.new_batch = true;
    }
    st.in_batch += segs;
    // Packet i joins while the batch is not yet full before it.
    if (st.in_batch >= config_.batch_size) {
      more = 0;
    } else if (more > 0 && segs > 0) {
      more = std::min<std::uint64_t>(
          more, (config_.batch_size - st.in_batch + segs - 1) / segs);
    }
    st.in_batch += static_cast<std::uint32_t>(more * segs);
    out.microflow_id = st.batch;
    out.target_core = st.target;
  }
  st.seen_segs += more * segs;
  run.taken = static_cast<std::uint32_t>(more + 1);
  return run;
}

void BatchAssigner::set_flow_degree(net::FlowId flow, std::uint32_t degree) {
  flows_.upsert_apply(flow, static_cast<sim::Time>(++ops_),
                      [&](PerFlow& st) {
                        init_entry(st, flow);
                        st.has_override = true;
                        st.override_degree = degree;
                      });
}

std::uint32_t BatchAssigner::flow_degree(net::FlowId flow) const {
  const PerFlow* st = flows_.find(flow);
  return st == nullptr || !st->has_override ? 0 : st->override_degree;
}

std::uint64_t BatchAssigner::observed(net::FlowId flow) const {
  const PerFlow* st = flows_.find(flow);
  return st == nullptr ? 0 : st->seen_segs;
}

void BatchAssigner::append_totals(
    std::vector<control::Controller::FlowTotals>& out) const {
  // The table iterates in recency order; report in first-seen order so the
  // control loop (and its history) stays stable across ticks.
  auto& rows = totals_scratch_;
  rows.clear();
  flows_.for_each([&rows](net::FlowId flow, const PerFlow& st) {
    rows.emplace_back(st.seq,
                      control::Controller::FlowTotals{flow, st.seen_segs,
                                                      st.seen_bytes});
  });
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [_, totals] : rows) out.push_back(totals);
}

void FlowSplitter::on_forward(net::PacketPtr pkt, std::size_t next_index,
                              int from_core) {
  const auto a =
      assigner_.assign(pkt->flow_id, pkt->gro_segs, pkt->payload_len);
  sim::Core& fc = machine_.core(from_core);
  const stack::CostModel& costs = machine_.costs();
  trace::Tracer* tr = trace::active();

  if (a.microflow_id == 0) {
    // Mouse flow: fall through to the default transition (stay local under
    // the machine's steering policy).
    ++passed_;
    if (a.unsplit) {
      // The flow just stopped splitting: tell its reassembler to hold this
      // flow's default-path packets until the old batches drain (otherwise
      // this packet could overtake still-buffered micro-flows).
      if (Reassembler* ra = lookup_(*pkt)) ra->note_flow_unsplit(pkt->flow_id);
    }
    if (tr != nullptr)
      tr->packet(trace::EventKind::kSplitDecision, fc.vnow(), from_core,
                 pkt->flow_id, pkt->wire_seq, 0);
    fc.charge(sim::Tag::kSteer, costs.local_enqueue);
    machine_.deliver_to_stage(next_index, from_core, from_core,
                              std::move(pkt), /*charge_handoff=*/false);
    return;
  }

  ++split_;
  pkt->microflow_id = a.microflow_id;
  Reassembler* ra = lookup_(*pkt);
  if (a.first_split && ra != nullptr)
    ra->note_flow_split(pkt->flow_id, a.prior_segs, a.microflow_id);
  if (a.new_batch) {
    // Batch handoff + IPI are paid once per micro-flow, which is what makes
    // MFLOW's steering cheaper per packet than FALCON's per-skb handoff.
    fc.charge(sim::Tag::kSteer, costs.mflow_dispatch_per_batch);
    if (ra != nullptr) ra->note_batch_open(pkt->flow_id, a.microflow_id);
  }
  if (ra != nullptr)
    ra->note_dispatch(pkt->flow_id, a.microflow_id, pkt->gro_segs);
  fc.charge(sim::Tag::kSteer, costs.mflow_split_per_pkt);
  if (tr != nullptr) {
    tr->registry().add("split.dispatched");
    tr->packet(trace::EventKind::kSplitDecision, fc.vnow(), from_core,
               pkt->flow_id, pkt->wire_seq, a.microflow_id, a.microflow_id);
    tr->packet(trace::EventKind::kSplitDeposit, fc.vnow(), from_core,
               pkt->flow_id, pkt->wire_seq, a.microflow_id,
               static_cast<std::uint64_t>(a.target_core));
  }

  if (net::FaultInjector* faults = machine_.fault_injector()) {
    const net::FaultAction action =
        faults->decide(net::FaultPoint::kSplitQueue);
    if (tr != nullptr && action != net::FaultAction::kNone) {
      tr->registry().add("fault.split_queue_verdicts");
      tr->packet(trace::EventKind::kFaultVerdict, fc.vnow(), from_core,
                 pkt->flow_id, pkt->wire_seq, a.microflow_id,
                 static_cast<std::uint64_t>(action));
    }
    switch (action) {
      case net::FaultAction::kDrop:
        // Lost at the splitting-queue deposit; the dispatch above is
        // retracted synchronously so the merge never waits for it.
        faults->note_dropped_segs(pkt->gro_segs);
        if (tr != nullptr)
          tr->packet(trace::EventKind::kDrop, fc.vnow(), from_core,
                     pkt->flow_id, pkt->wire_seq, a.microflow_id);
        if (ra != nullptr)
          ra->note_drop(pkt->flow_id, a.microflow_id, pkt->gro_segs);
        return;
      case net::FaultAction::kCorrupt:
        faults->corrupt(*pkt);  // dies at the next verifying stage
        break;
      case net::FaultAction::kDuplicate:
        machine_.deliver_to_stage(next_index, a.target_core, from_core,
                                  net::clone_packet(*pkt),
                                  /*charge_handoff=*/false);
        break;
      case net::FaultAction::kDelay: {
        const std::size_t idx = next_index;
        const int target = a.target_core;
        machine_.simulator().after(
            faults->delay_ns(net::FaultPoint::kSplitQueue),
            [this, idx, target, from_core, held = std::move(pkt)]() mutable {
              machine_.deliver_to_stage(idx, target, from_core,
                                        std::move(held),
                                        /*charge_handoff=*/false);
            });
        return;
      }
      case net::FaultAction::kNone:
        break;
    }
  }
  machine_.deliver_to_stage(next_index, a.target_core, from_core,
                            std::move(pkt), /*charge_handoff=*/false);
}

}  // namespace mflow::core
