// Virtual CPU cores with a softirq/NAPI-style run loop.
//
// Model: each core owns a round-robin list of `Pollable` work sources (NAPI
// instances, per-core backlog queues, application readers, traffic senders).
// When a source is raised on a core, the core — if idle — starts a "slice":
// it polls the source for up to a budget of work items; the source charges
// consumed CPU nanoseconds under an accounting tag; the core becomes busy for
// the charged duration and then runs the next pending source. This mirrors
// how Linux multiplexes softirqs of multiple network devices on one core in
// an interleaved, batched fashion — the behaviour the paper's Figure 3 shows
// and that MFLOW's flow-splitting function re-purposes.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string_view>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "util/fifo.hpp"

namespace mflow::sim {

/// CPU accounting tags: one per network-stack stage so experiments can print
/// the per-core utilization breakdowns of the paper's Figures 4b / 8b / 12.
enum class Tag : std::uint8_t {
  kIrq,       // hardware interrupt top half
  kDriver,    // driver descriptor poll (first half of stage 1)
  kSkbAlloc,  // skb construction (second half of stage 1)
  kGro,       // generic receive offload
  kSteer,     // RPS / FALCON / MFLOW dispatch work (incl. IPI send)
  kVxlan,     // VXLAN decapsulation device
  kBridge,    // virtual bridge
  kVeth,      // container veth pair
  kIpRx,      // IP receive (outer or inner)
  kTcpRx,     // TCP receive processing
  kUdpRx,     // UDP receive processing
  kNf,        // stateful NF stages (NAT / firewall / LB, src/nf)
  kMerge,     // MFLOW batch reassembling
  kCopy,      // kernel->user data copy (packet delivery thread)
  kApp,       // application-level work
  kSender,    // client-side transmit path
  kOther,     // background interference / unrelated kernel tasks
  kCount,
};

std::string_view tag_name(Tag tag);
constexpr std::size_t kTagCount = static_cast<std::size_t>(Tag::kCount);

class Core;

/// A schedulable work source (analogous to a NAPI instance / softirq).
class Pollable {
 public:
  virtual ~Pollable() = default;

  /// Process up to `budget` items, charging CPU via core.charge().
  /// Return true if work remains (the core keeps it in its run list).
  virtual bool poll(Core& core, int budget) = 0;

  virtual std::string_view poll_name() const { return "pollable"; }

  bool scheduled() const { return scheduled_; }

 private:
  friend class Core;
  bool scheduled_ = false;
};

struct CoreParams {
  int napi_budget = 64;        // max items per slice per source
  Time ipi_wakeup_ns = 1500;   // latency before a remotely-raised idle core
                               // starts executing (IPI + softirq entry)
};

class Core {
 public:
  Core(Simulator& sim, int id, CoreParams params = {});

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  int id() const { return id_; }
  Simulator& simulator() { return sim_; }

  /// Make `src` runnable on this core. `remote` marks a cross-core raise
  /// (an IPI): if the core is idle it pays the wakeup latency first.
  /// Returns true when the core had to be woken (i.e. an IPI was actually
  /// sent) — callers charge the IPI send cost on their own core then.
  bool raise(Pollable& src, bool remote = false);

  /// Charge `ns` of CPU under `tag`. Only valid while a poll is running on
  /// this core (the usual case) or as external injection (see inject()).
  void charge(Tag tag, Time ns) {
    assert(ns >= 0);
    if (!in_poll_) {
      inject(tag, ns);  // charged outside a poll: treat as injection
      return;
    }
    busy_[static_cast<std::size_t>(tag)] += ns;
    slice_ns_ += ns;
  }

  /// Account CPU consumed outside any pollable (interrupt top halves,
  /// background interference). Extends the core's busy period.
  void inject(Tag tag, Time ns);

  bool idle() const { return !loop_scheduled_ && run_list_.empty(); }

  /// Earliest virtual time at which this core can start new work.
  Time free_at() const { return free_at_; }

  /// Virtual time at which the CPU work charged so far completes. Inside a
  /// poll this is the slice start plus everything charged in the slice, so
  /// consecutive per-packet tracepoints see service time advance even
  /// though event-queue time only moves between slices.
  Time vnow() const {
    if (in_poll_) return sim_.now() + slice_ns_;
    return free_at_ > sim_.now() ? free_at_ : sim_.now();
  }

  // --- accounting ----------------------------------------------------------
  Time busy_ns(Tag tag) const {
    return busy_[static_cast<std::size_t>(tag)];
  }
  Time total_busy_ns() const;
  /// Fraction of `window` ns this core spent busy (all tags).
  double utilization(Time window) const;
  void reset_accounting();

  std::uint64_t slices_run() const { return slices_; }

 private:
  void schedule_loop();
  void run_slice();

  Simulator& sim_;
  int id_;
  CoreParams params_;

  util::Fifo<Pollable*> run_list_;
  bool loop_scheduled_ = false;
  bool in_poll_ = false;
  Time slice_ns_ = 0;     // CPU charged during the current poll
  Time pending_inject_ = 0;
  Time free_at_ = 0;
  std::uint64_t slices_ = 0;

  std::array<Time, kTagCount> busy_{};
};

}  // namespace mflow::sim
