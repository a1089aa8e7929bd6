// Span log, check bookkeeping and order statistics shared by the workloads.
#include <algorithm>
#include <cmath>
#include <fstream>

#include "perfbench.hpp"

namespace perfbench {

SpanLog::Scope::Scope(SpanLog& log, std::string name) : log_(log) {
  if (!log_.enabled_) return;
  index_ = static_cast<int>(log_.spans_.size());
  const int parent = log_.open_.empty() ? -1 : log_.open_.back();
  log_.spans_.push_back({std::move(name), parent, log_.now_ns(), 0});
  log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_.spans_[static_cast<std::size_t>(index_)].end_ns = log_.now_ns();
  log_.open_.pop_back();
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are fixed identifiers chosen in this benchmark (no quotes
    // or backslashes), so they need no JSON escaping.
    f << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << static_cast<double>(s.start_ns) / 1e3
      << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
      << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void Result::check(bool ok, std::uint64_t weight, const std::string& what) {
  if (ok) return;
  failed += std::max<std::uint64_t>(weight, 1);
  if (std::find(failures.begin(), failures.end(), what) == failures.end())
    failures.push_back(what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles out;
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(v, n=4), method="exclusive": m = n + 1, cut i at
  // j = i*m // 4 clamped to [1, n-1], weight delta = i*m - 4j.
  double cuts[3];
  const auto len = static_cast<std::int64_t>(n);
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t m = len + 1;
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, len - 1);
    const std::int64_t delta = i * m - j * 4;
    cuts[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                  4.0;
  }
  return {cuts[0], cuts[1], cuts[2]};
}

bool is_rt(const std::string& workload) {
  return workload == "rt-forward" || workload == "rt-overlay-nf";
}

bool is_des(const std::string& workload) {
  return workload == "des-mflow-tcp" || workload == "des-control-churn";
}

}  // namespace perfbench
