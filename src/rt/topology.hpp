// CPU/cache/NUMA topology discovery and core assignment for the rt engine.
//
// True multicore scaling needs threads on the right cores, not just enough
// of them: SMT siblings share execution ports (two workers there run at
// roughly half speed each), and a ring whose producer and consumer sit on
// different NUMA nodes pays cross-socket latency on every cache-line
// handoff. This header gives the engine the three pieces it needs:
//
//  1. `CpuTopology::discover()` — parse the Linux sysfs topology tree
//     (online CPUs, physical core / package ids, NUMA node membership)
//     into a flat table. A non-Linux host, or a container with sysfs
//     masked, degrades to "N independent cores on one node", which makes
//     every placement decision below a no-op-safe default.
//
//  2. `plan_cores()` — the placement policy (documented in
//     docs/SCALING.md §4): workers spread across distinct PHYSICAL cores
//     first (SMT siblings only when cores run out), all on one NUMA node
//     when possible; the generator and consumer — who talk to every
//     worker plus each other through the recycle ring — are co-located on
//     the remaining cores of the same node, preferring the two SMT
//     siblings of one spare core so the recycle ring stays within one
//     core's private cache. If the host cannot give every pipeline thread
//     its own logical CPU the plan comes back unpinned: pinning more
//     threads than CPUs serializes the pipeline behind the scheduler and
//     is strictly worse than letting it balance.
//
//  3. `pin_current_thread()` / `unpin_current_thread()` — apply / undo an
//     assignment (pthread affinity on Linux; no-ops returning false
//     elsewhere). The engine pins its own (generator) thread while it
//     generates and restores the full mask before run() returns.
//
// tests/test_rt_scaling.cpp drives discovery against a fake sysfs tree and
// pins the plan policy invariants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mflow::rt {

/// One online logical CPU and where it lives.
struct CpuInfo {
  int cpu = 0;           // logical CPU id (the number you pin to)
  int core_id = 0;       // physical core within the package
  int package_id = 0;    // physical socket
  int numa_node = 0;     // NUMA node (0 when the host is not NUMA)
};

struct CpuTopology {
  std::vector<CpuInfo> cpus;  // online CPUs, ascending cpu id

  /// Logical CPUs visible to this process.
  std::size_t size() const { return cpus.size(); }

  /// Parse `<sysfs_root>/devices/system/cpu` + `/devices/system/node`.
  /// `sysfs_root` is overridable so tests can point at a fake tree. Any
  /// missing file degrades gracefully (core_id = cpu, one package, one
  /// node); an absent sysfs yields hardware_concurrency() synthetic CPUs.
  static CpuTopology discover(const std::string& sysfs_root = "/sys");
};

/// Where each pipeline thread should run; -1 (or an empty plan) means
/// "leave this thread unpinned".
struct CorePlan {
  int generator = -1;
  int consumer = -1;
  std::vector<int> workers;  // one entry per worker, -1 = unpinned

  /// True when at least one thread has an assignment.
  bool any() const;
};

/// The placement policy described in the header comment (and in
/// docs/SCALING.md §4). Returns an unpinned plan when `topo` has fewer
/// logical CPUs than `workers + 2` pipeline threads.
CorePlan plan_cores(const CpuTopology& topo, std::size_t workers);

/// Parse a sysfs cpulist ("0-3,5,7-8") into ascending CPU ids. Malformed
/// chunks are skipped. Exposed for tests.
std::vector<int> parse_cpulist(const std::string& list);

/// Pin the calling thread to one logical CPU. Returns false (and changes
/// nothing) when `cpu` < 0, the platform has no affinity API, or the
/// syscall fails (e.g. the CPU is outside the container's cpuset).
bool pin_current_thread(int cpu);

/// Restore the calling thread to the full affinity mask of all online
/// CPUs. Returns false when unsupported.
bool unpin_current_thread();

}  // namespace mflow::rt
