#include "steering/policy.hpp"

#include <cassert>

namespace mflow::steer {

RpsSteering::RpsSteering(std::vector<int> targets, StageId steer_at,
                         Time hash_cost, std::uint32_t seed)
    : targets_(std::move(targets)),
      steer_at_(steer_at),
      hash_cost_(hash_cost),
      seed_(seed) {
  assert(!targets_.empty());
}

int RpsSteering::core_for(StageId stage, const net::Packet& pkt,
                          int from_core) {
  if (stage != steer_at_) return from_core;
  // Same hash family as hardware RSS: one flow always lands on one core —
  // which is precisely why RPS cannot split an elephant flow.
  const auto h = net::flow_hash(pkt.flow, seed_);
  return targets_[h % targets_.size()];
}

PairedPipelineSteering::PairedPipelineSteering(
    const std::unordered_map<int, int>& pairs, StageId pipeline_at)
    : pipeline_at_(pipeline_at) {
  for (const auto& [from, to] : pairs) {
    assert(from >= 0);
    const auto c = static_cast<std::size_t>(from);
    if (partner_.size() <= c) partner_.resize(c + 1, -1);
    partner_[c] = to;
  }
}

FalconSteering::FalconSteering(Level level, std::vector<int> pool,
                               bool overlay_path)
    : level_(level),
      pool_(std::move(pool)),
      overlay_(overlay_path),
      flow_base_(control::FlowTableParams{/*shards=*/1,
                                          /*capacity=*/1 << 12,
                                          /*ttl=*/0}) {
  assert(!pool_.empty());
}

int FalconSteering::group_of(StageId stage) const {
  // Stage grouping from the paper's Figure 3/4 description:
  //   device level: GRO stays on the driver core; {outer IP, VXLAN} form
  //     one pipeline stage; {bridge, veth, inner IP, transport} another.
  //   function level: GRO additionally gets its own core (the change that
  //     helped TCP), shifting the device groups down by one.
  switch (level_) {
    case Level::kDevice:
      switch (stage) {
        case StageId::kIpOuter:
        case StageId::kVxlan:
          return 1;
        case StageId::kBridge:
        case StageId::kVeth:
        case StageId::kIp:
        case StageId::kTcp:
        case StageId::kUdp:
          return overlay_ ? 2 : 1;
        default:
          return 0;
      }
    case Level::kFunction:
      switch (stage) {
        case StageId::kGro:
          return 1;
        case StageId::kIpOuter:
        case StageId::kVxlan:
          return 2;
        case StageId::kBridge:
        case StageId::kVeth:
        case StageId::kIp:
        case StageId::kTcp:
        case StageId::kUdp:
          return overlay_ ? 3 : 2;
        default:
          return 0;
      }
  }
  return 0;
}

int FalconSteering::groups() const {
  int deepest = 0;
  for (StageId s : {StageId::kGro, StageId::kIpOuter, StageId::kVxlan,
                    StageId::kBridge, StageId::kVeth, StageId::kIp,
                    StageId::kTcp, StageId::kUdp})
    deepest = std::max(deepest, group_of(s));
  return deepest;
}

int FalconSteering::core_for(StageId stage, const net::Packet& pkt,
                             int from_core) {
  const int group = group_of(stage);
  if (group == 0) return from_core;
  // Per-flow pipeline base: FALCON pins each flow's softirq stages to a
  // fixed set of cores chosen when the flow appears. Like RSS, independent
  // per-flow choices collide (two flows' heavy VXLAN stages landing on the
  // same core), which is what skews its load distribution in Figure 12.
  bool inserted = false;
  int& base = flow_base_.upsert(pkt.flow_id, ++clock_, &inserted);
  if (inserted)
    base = static_cast<int>((pkt.flow_id * 2654435761u) % pool_.size());
  const auto idx =
      static_cast<std::size_t>(base + group - 1) % pool_.size();
  return pool_[idx];
}

}  // namespace mflow::steer
