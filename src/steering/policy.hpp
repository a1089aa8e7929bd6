// Steering policy implementations: the baselines MFLOW is evaluated against.
//
//  - VanillaSteering: everything stays on the IRQ core (Linux default for a
//    single flow — the Figure 3 "vanilla" case).
//  - RpsSteering: software RSS; after the driver-side stages, a flow-hash
//    picks the backlog core. Inter-flow parallelism only.
//  - FalconSteering: FALCON's device-level / function-level softirq
//    pipelining (EuroSys'21): fixed stage groups pinned to a per-flow
//    pipeline of cores, every skb crossing cores between groups.
//  - PairedPipelineSteering: MFLOW helper — after the splitting cores run
//    the first stage(s), forward each branch to a fixed partner core (the
//    paper's TCP full-path layout: cores 2->4 and 3->5).
#pragma once

#include <unordered_map>
#include <vector>

#include "control/flowtable.hpp"
#include "stack/machine.hpp"
#include "stack/stage.hpp"

namespace mflow::steer {

using stack::StageId;
using stack::SteeringPolicy;
using stack::Time;

class VanillaSteering final : public SteeringPolicy {
 public:
  int core_for(StageId, const net::Packet&, int from_core) override {
    return from_core;
  }
  std::string_view name() const override { return "vanilla"; }
};

class RpsSteering final : public SteeringPolicy {
 public:
  /// Steer the transition into `steer_at` onto hash-selected `targets`;
  /// all later stages stay local (kernel RPS enqueues to the remote
  /// backlog once and processing continues there).
  RpsSteering(std::vector<int> targets, StageId steer_at, Time hash_cost,
              std::uint32_t seed = 0x52505321);

  int core_for(StageId stage, const net::Packet& pkt, int from_core) override;
  Time steer_cost(StageId stage) const override {
    return stage == steer_at_ ? hash_cost_ : 0;
  }
  std::string_view name() const override { return "rps"; }

 private:
  std::vector<int> targets_;
  StageId steer_at_;
  Time hash_cost_;
  std::uint32_t seed_;
};

class FalconSteering final : public SteeringPolicy {
 public:
  enum class Level { kDevice, kFunction };

  /// `pool`: cores available for pipeline stages. Each flow gets a pipeline
  /// of consecutive pool cores (lazily, round-robin), so concurrent flows
  /// spread — mirroring FALCON's per-flow softirq pinning.
  FalconSteering(Level level, std::vector<int> pool, bool overlay_path);

  int core_for(StageId stage, const net::Packet& pkt, int from_core) override;
  std::string_view name() const override {
    return level_ == Level::kDevice ? "falcon-dev" : "falcon-fun";
  }

  /// Pipeline position for a stage: 0 = stay with the previous stage.
  int group_of(StageId stage) const;
  int groups() const;

  /// Flows currently holding a pinned pipeline base (bounded: the LRU flow
  /// is evicted at capacity, as a real per-flow steering table must under
  /// churn — re-pinning a returning flow recomputes the same base, so
  /// eviction never changes placement, only table occupancy).
  std::size_t flows_pinned() const { return flow_base_.size(); }
  std::uint64_t pins_evicted() const { return flow_base_.evictions(); }

 private:
  Level level_;
  std::vector<int> pool_;
  bool overlay_;
  /// flow -> pipeline base core index, LRU-bounded.
  control::FlowTable<int> flow_base_;
  // Monotone access counter driving table recency. Under the SteeringPolicy
  // contract it advances once per run of a flow's packets, not per packet.
  // Only an insert takes a stamp (upsert() never restamps a resident flow),
  // and a flow's first packet always starts a run, so the inserts, their
  // order and every placement and eviction are those of per-packet calls.
  sim::Time clock_ = 0;
};

class PairedPipelineSteering final : public SteeringPolicy {
 public:
  /// At the transition into `pipeline_at`, branches running on a key core
  /// forward to its partner; everything else stays local.
  PairedPipelineSteering(const std::unordered_map<int, int>& pairs,
                         StageId pipeline_at);

  int core_for(StageId stage, const net::Packet&, int from_core) override {
    if (stage != pipeline_at_) return from_core;
    const auto c = static_cast<std::size_t>(from_core);
    return c < partner_.size() && partner_[c] >= 0 ? partner_[c] : from_core;
  }
  std::string_view name() const override { return "mflow-paired"; }

 private:
  std::vector<int> partner_;  // indexed by core id; -1: no partner
  StageId pipeline_at_;
};

}  // namespace mflow::steer
