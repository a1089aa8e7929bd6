// Shared vocabulary of the repo benchmark (see README.md next to this file):
// the run options, the in-memory span log of the traced run, and the result
// a workload hands back to main() for reporting.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "rt/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured window. A traced run spends the first half on
  /// untraced samples (the overhead reference) and the second half traced.
  double seconds = 10.0;
  bool trace = false;
  /// Run the workload's deliberately degraded twin (README.md, "Negative
  /// control"); the comparison must report it as a regression.
  bool negative_control = false;
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string spans_path;
};

/// Spans around every call the benchmark makes into a layer, kept in memory
/// and written out once the run ends. Disabled (no-op) in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  /// Writes {"traceEvents": [...]} with one complete event per span; each
  /// carries its own id and its parent's id (-1 for a root).
  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What a workload measured. Sample series are per-run timings (one entry
/// per engine run or scenario run inside the window); values are single
/// numbers (deterministic model outputs, counts, per-layer metrics).
struct Result {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Record an output check: a violation adds `weight` failed operations
  /// (at least one) and a line naming it.
  void check(bool ok, std::uint64_t weight, const std::string& what);
};

/// The engine configuration of an rt workload (seeded fields from opt.seed).
mflow::rt::EngineConfig rt_config(const Options& opt);
/// The scenario of a DES workload (ScenarioConfig::seed = opt.seed).
mflow::exp::ScenarioConfig des_config(const Options& opt);

Result run_rt(const Options& opt, SpanLog& spans);
Result run_des(const Options& opt, SpanLog& spans);

/// Units per second of the frozen reference kernel (reference.cpp) on this
/// host right now, timed over about `seconds`.
double reference_rate(double seconds);

/// Time each layer's public functions on inputs shaped like the workload's
/// and add the `*_ns` / `*_us` per-layer values to `out` (traced run only).
void time_layers(const Options& opt, SpanLog& spans, Result& out);

/// Median and quartiles as Python's statistics.quantiles(n=4) computes
/// them (the "exclusive" method), so the C++ and the run.py summary agree.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v);
/// Value at quantile q in [0, 1] (linear interpolation between order
/// statistics).
double quantile(std::vector<double> v, double q);

bool is_rt(const std::string& workload);
bool is_des(const std::string& workload);

}  // namespace perfbench
