#include "trace/trace.hpp"

#include <algorithm>

namespace mflow::trace {

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kWireArrival: return "wire_arrival";
    case EventKind::kRingEnqueue: return "ring_enqueue";
    case EventKind::kRingDrop: return "ring_drop";
    case EventKind::kIrqRaise: return "irq_raise";
    case EventKind::kRingDequeue: return "ring_dequeue";
    case EventKind::kSkbAlloc: return "skb_alloc";
    case EventKind::kStageEnter: return "stage_enter";
    case EventKind::kStageExit: return "stage_exit";
    case EventKind::kSplitDecision: return "split_decision";
    case EventKind::kSplitDeposit: return "split_deposit";
    case EventKind::kHandoff: return "handoff";
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kReasmHold: return "reasm_hold";
    case EventKind::kReasmRelease: return "reasm_release";
    case EventKind::kReasmEvict: return "reasm_evict";
    case EventKind::kLateDelivery: return "late_delivery";
    case EventKind::kSocketEnqueue: return "socket_enqueue";
    case EventKind::kReaderPop: return "reader_pop";
    case EventKind::kCopyStart: return "copy_start";
    case EventKind::kCopyDone: return "copy_done";
    case EventKind::kFaultVerdict: return "fault_verdict";
    case EventKind::kDrop: return "drop";
    case EventKind::kNfApply: return "nf_apply";
    case EventKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer(TraceConfig cfg) : cfg_(cfg) {
  if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
}

Tracer::Track& Tracer::track(int core) { return tracks_[core]; }

void Tracer::record(TraceEvent ev) {
  ev.idx = next_idx_++;
  ++recorded_;
  Track& t = track(ev.core);
  if (t.ring.size() < cfg_.ring_capacity) {
    t.ring.push_back(ev);
  } else {
    t.ring[t.next] = ev;
    t.next = (t.next + 1) % cfg_.ring_capacity;
    t.wrapped = true;
    ++overwritten_;
  }
}

void Tracer::packet(EventKind kind, sim::Time ts, int core,
                    std::uint64_t flow, std::uint64_t seq,
                    std::uint64_t microflow, std::uint64_t aux,
                    sim::Time dur) {
  if (!sampled(seq)) return;
  TraceEvent ev;
  ev.kind = kind;
  ev.ts = ts;
  ev.dur = dur;
  ev.core = static_cast<std::int16_t>(core);
  ev.flow = flow;
  ev.seq = seq;
  ev.microflow = microflow;
  ev.aux = aux;
  record(ev);
}

void Tracer::mark(EventKind kind, sim::Time ts, int core, std::uint64_t aux) {
  TraceEvent ev;
  ev.kind = kind;
  ev.ts = ts;
  ev.core = static_cast<std::int16_t>(core);
  ev.aux = aux;
  record(ev);
}

void Tracer::absorb(std::vector<TraceEvent>&& events) {
  std::lock_guard lock(rt_mu_);
  for (TraceEvent& ev : events) {
    // Thread buffers already arrive in each thread's program order; stamp a
    // global index after the fact for a stable cross-thread sort.
    ev.idx = next_idx_++;
    ++recorded_;
    rt_events_.push_back(ev);
  }
}

void Tracer::clear() {
  tracks_.clear();
  {
    std::lock_guard lock(rt_mu_);
    rt_events_.clear();
  }
  recorded_ = 0;
  overwritten_ = 0;
  registry_.clear();
}

std::vector<TraceEvent> Tracer::sorted_events() const {
  std::vector<TraceEvent> out;
  for (const auto& [core, t] : tracks_)
    out.insert(out.end(), t.ring.begin(), t.ring.end());
  out.insert(out.end(), rt_events_.begin(), rt_events_.end());
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              return a.idx < b.idx;
            });
  return out;
}

}  // namespace mflow::trace
