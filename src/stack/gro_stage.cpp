#include "stack/gro_stage.hpp"

namespace mflow::stack {

net::GroEngine& GroStage::engine(int core_id) {
  const auto c = static_cast<std::size_t>(core_id);
  while (engines_.size() <= c) engines_.emplace_back(params_);
  return engines_[c];
}

void GroStage::process(net::PacketPtr pkt, StageContext& ctx) {
  engine(ctx.core.id()).add(std::move(pkt),
                            [&ctx](net::PacketPtr out) {
                              ctx.forward(std::move(out));
                            });
}

void GroStage::end_batch(StageContext& ctx) {
  engine(ctx.core.id()).flush([&ctx](net::PacketPtr out) {
    ctx.forward(std::move(out));
  });
}

std::uint64_t GroStage::merged_segments() const {
  std::uint64_t total = 0;
  for (const net::GroEngine& e : engines_) total += e.merged_segments();
  return total;
}

}  // namespace mflow::stack
