// Spin-work calibration: converts "nanoseconds of packet-processing cost"
// into busy-loop iterations on this machine, so the real-thread engine's
// stage costs are wall-clock meaningful.
//
// The engine charges each packet EngineConfig::cost_ns_per_packet of
// synthetic processing (rt/engine.hpp); spin() burns that time as a dependent integer chain the
// compiler cannot elide or vectorize away. The iterations-per-nanosecond
// rate is measured once per process (thread-safe memoization) — cheap, but
// it makes the very first engine run slightly slower, which is why the
// bench harness's warmup runs matter (docs/BENCHMARKS.md).
//
// Accuracy: calibration is best-effort wall-clock — on a loaded or
// frequency-scaling host the realized spin can deviate from the requested
// nanoseconds. Benchmarks treat cost=0 (pure framework overhead) and
// cost>0 (calibrated work) as separate regimes for exactly this reason.
#pragma once

#include <cstdint>

namespace mflow::rt {

/// Busy-spin performing `iters` dependent integer operations; returns a
/// value the compiler cannot elide.
std::uint64_t spin(std::uint64_t iters);

/// Measured iterations-per-nanosecond of spin() on this host (memoized on
/// first call; thread-safe).
double spin_iters_per_ns();

/// Busy-work approximating `ns` nanoseconds of CPU.
inline std::uint64_t spin_ns(double ns) {
  return spin(static_cast<std::uint64_t>(ns * spin_iters_per_ns()) + 1);
}

}  // namespace mflow::rt
