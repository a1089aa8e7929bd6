// Host-speed reference: a fixed kernel, frozen with the benchmark, timed
// next to every DES sample so the sample's rate can be scaled to a nominal
// host speed (README.md, "Host-speed normalization"). It is shaped like the
// simulator's inner loop: a timestamp heap whose entries own heap-allocated
// callables, a hash-table probe per event, and a dependent load into a
// 16 MiB table. It calls nothing under src/, so a change to the simulator
// moves the scaled rate and never the reference.
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kHeapDepth = 4096;
constexpr std::size_t kTableWords = std::size_t{1} << 22;  // 16 MiB
constexpr int kEventsPerUnit = 256;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

struct Kernel {
  struct Event {
    std::uint64_t when;
    std::uint64_t seq;
    std::shared_ptr<std::function<void()>> fn;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::uint64_t> flows;
  std::vector<std::uint32_t> table;
  std::uint64_t seq = 0, acc = 0;
  std::uint32_t at = 0;

  Kernel() : table(kTableWords) {
    for (std::size_t i = 0; i < kTableWords; ++i)
      table[i] = static_cast<std::uint32_t>(mix(i) % kTableWords);
    for (std::uint64_t f = 0; f < 4096; ++f) flows[mix(f)] = f;
    for (std::size_t i = 0; i < kHeapDepth; ++i) push(mix(i) & 0xFFFFF);
  }

  void push(std::uint64_t when) {
    const std::uint64_t s = seq++;
    heap.push({when, s, std::make_shared<std::function<void()>>([this, s] {
                 const auto it = flows.find(mix(s & 4095));
                 at = table[(at + (it != flows.end() ? it->second : 0)) %
                            kTableWords];
                 acc += at;
               })});
  }

  void unit() {
    for (int i = 0; i < kEventsPerUnit; ++i) {
      Event e = heap.top();
      heap.pop();
      (*e.fn)();
      push(e.when + (mix(e.seq) & 0xFFFF));
    }
  }
};

}  // namespace

double reference_rate(double seconds) {
  static Kernel k;
  std::uint64_t units = 0;
  const auto t0 = Clock::now();
  double spent = 0;
  do {
    k.unit();
    ++units;
    spent = seconds_since(t0);
  } while (spent < seconds);
  // Keep the kernel's result observable so the work cannot be elided.
  return k.acc == 0 ? 0.0 : static_cast<double>(units) / spent;
}

}  // namespace perfbench
