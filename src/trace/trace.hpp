// Per-packet tracing & telemetry (DESIGN.md §4d).
//
// Tracepoints at every lifecycle edge — NIC ring enqueue/dequeue, IRQ raise,
// stage enter/exit, split decision + splitting-queue deposit, inter-core
// handoff, reassembly hold/release/eviction, socket enqueue, copy-to-user —
// each stamped with virtual time, core id, flow id, micro-flow id, and
// per-flow wire sequence. The attribution pass (attribution.hpp) folds a
// packet's events into named latency phases that partition its end-to-end
// latency exactly; exporters (export.hpp) emit Chrome trace-event JSON
// (Perfetto / chrome://tracing) and CSV.
//
// Cost model:
//  - compiled out (-DMFLOW_TRACE_DISABLED): active() is a constant nullptr,
//    every tracepoint folds to nothing;
//  - compiled in, disabled (default): one global load + branch per
//    tracepoint — the overhead guard in tests/test_trace.cpp and
//    bench/ablate_trace_overhead keep this honest;
//  - enabled: events go into fixed-capacity per-core ring buffers (oldest
//    overwritten), optionally sampled per packet (sample_period).
//
// Threading: record() is only called from the single-threaded DES. Real
// threads (src/rt) build thread-local vectors and hand them over with
// absorb() (mutex-protected) before the engine joins them; set_current()
// happens-before thread spawn and after join, so the global pointer needs
// no atomics (TSan-clean under the tsan preset).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "trace/registry.hpp"

namespace mflow::trace {

enum class EventKind : std::uint8_t {
  kWireArrival,    // packet hit the receiver NIC (ts = t_wire)
  kRingEnqueue,    // entered a NIC RX ring (aux = queue)
  kRingDrop,       // RX ring full, packet lost
  kIrqRaise,       // hardware interrupt raised (aux = queue; no packet)
  kRingDequeue,    // popped from an RX/request ring by a driver half
  kSkbAlloc,       // skb built (dur = driver poll + alloc cost)
  kStageEnter,     // entered a pipeline stage (aux = StageId)
  kStageExit,      // stage service charged (aux = StageId, dur = cost)
  kSplitDecision,  // MFLOW classified the packet (aux = micro-flow id)
  kSplitDeposit,   // deposited toward a splitting core (aux = target core)
  kHandoff,        // inter-core steering handoff (aux = target core)
  kEnqueue,        // placed on a stage queue (aux = StageId, core = target)
  kReasmHold,      // buffered at the merge point
  kReasmRelease,   // popped from the merge point in flow order
  kReasmEvict,     // merge head force-advanced (aux = batch written off)
  kLateDelivery,   // arrived for an already-merged-past batch
  kSocketEnqueue,  // entered the socket receive queue
  kReaderPop,      // reader (copy thread) picked the packet up
  kCopyStart,      // copy-to-user began
  kCopyDone,       // copy-to-user completed (dur = copy cost)
  kFaultVerdict,   // injector perturbed the packet (aux = FaultAction)
  kDrop,           // packet died inside the path
  kNfApply,        // an NF stage updated per-flow state (aux = nf::Kind)
  kCount,
};

std::string_view event_kind_name(EventKind kind);

struct TraceEvent {
  sim::Time ts = 0;   // virtual ns (DES) or wall ns since run start (rt)
  sim::Time dur = 0;  // service duration for span-like events, else 0
  std::uint64_t flow = 0;       // FlowId (0 = not packet-scoped)
  std::uint64_t seq = 0;        // per-flow wire sequence
  std::uint64_t microflow = 0;  // MFLOW batch id (0 = unsplit)
  std::uint64_t aux = 0;        // kind-specific (stage id, target core, ...)
  std::uint64_t idx = 0;        // global record order (stamped by Tracer)
  EventKind kind = EventKind::kCount;
  std::int16_t core = -1;       // virtual core / rt worker; -1 = no core
};

struct TraceConfig {
  bool enabled = false;
  /// Events retained per core track; the oldest are overwritten.
  std::size_t ring_capacity = 1 << 16;
  /// Trace every Nth packet of each flow (by wire_seq). 1 = all packets.
  /// Non-packet events (IRQs, evictions) are always recorded.
  std::uint64_t sample_period = 1;
};

class Tracer {
 public:
  explicit Tracer(TraceConfig cfg = {});

  const TraceConfig& config() const { return cfg_; }

  /// Should a packet with this per-flow wire sequence be traced?
  bool sampled(std::uint64_t wire_seq) const {
    return cfg_.sample_period <= 1 || wire_seq % cfg_.sample_period == 0;
  }

  /// Record one event (single-threaded DES path).
  void record(TraceEvent ev);

  /// Packet-scoped tracepoint; drops the event if the packet is unsampled.
  void packet(EventKind kind, sim::Time ts, int core, std::uint64_t flow,
              std::uint64_t seq, std::uint64_t microflow,
              std::uint64_t aux = 0, sim::Time dur = 0);

  /// Core/flow-scoped tracepoint with no packet identity (never sampled out).
  void mark(EventKind kind, sim::Time ts, int core, std::uint64_t aux = 0);

  /// Hand over a thread-local event buffer (rt engine threads; thread-safe).
  void absorb(std::vector<TraceEvent>&& events);

  /// Drop all buffered events and registry state (warmup boundary).
  void clear();

  /// All retained events merged across tracks, ordered by (ts, record idx).
  std::vector<TraceEvent> sorted_events() const;

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t overwritten() const { return overwritten_; }

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }

 private:
  struct Track {
    std::vector<TraceEvent> ring;
    std::size_t next = 0;
    bool wrapped = false;
  };
  Track& track(int core);

  TraceConfig cfg_;
  std::map<int, Track> tracks_;         // keyed by core id (-1 = global)
  std::vector<TraceEvent> rt_events_;   // absorbed thread buffers
  std::mutex rt_mu_;                    // guards rt_events_ and counters
                                        // touched from absorb()
  std::uint64_t next_idx_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
  Registry registry_;
};

namespace detail {
/// The process-wide tracer. An inline variable, so every tracepoint reads
/// it with one load instead of a call.
inline Tracer* current_tracer = nullptr;
}  // namespace detail

/// Install/read the process-wide tracer. set_current is called only while no
/// traced threads run (see threading note above).
inline void set_current(Tracer* tracer) { detail::current_tracer = tracer; }
inline Tracer* current() { return detail::current_tracer; }

/// The tracer every tracepoint consults; constant nullptr when tracing is
/// compiled out, so call sites fold away entirely.
inline Tracer* active() {
#ifdef MFLOW_TRACE_DISABLED
  return nullptr;
#else
  return current();
#endif
}

inline constexpr bool compiled_in() {
#ifdef MFLOW_TRACE_DISABLED
  return false;
#else
  return true;
#endif
}

}  // namespace mflow::trace
