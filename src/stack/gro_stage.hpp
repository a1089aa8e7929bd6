// GRO as a pipeline stage.
//
// In Linux, GRO runs inside the driver's NAPI poll; FALCON's function-level
// pipelining showed it can be treated as a detachable heavyweight function.
// We model it as a first-class stage so steering policies can place it
// (vanilla: driver core; FALCON-fun: its own core; MFLOW: on each splitting
// core). State is per-core: each core that runs GRO has its own merge table,
// exactly like per-CPU napi_gro state in the kernel.
#pragma once

#include <vector>

#include "net/gro.hpp"
#include "stack/stage.hpp"

namespace mflow::stack {

class GroStage : public Stage {
 public:
  GroStage(const CostModel& costs, net::GroParams params)
      : costs_(costs), params_(params) {}

  StageId id() const override { return StageId::kGro; }
  sim::Tag tag() const override { return sim::Tag::kGro; }

  Time cost(const net::Packet& pkt) const override {
    if (pkt.flow.protocol != net::Ipv4Header::kProtoTcp || !params_.enabled)
      return costs_.gro_udp_passthrough;
    return costs_.gro_per_seg * pkt.gro_segs;
  }

  void process(net::PacketPtr pkt, StageContext& ctx) override;
  void end_batch(StageContext& ctx) override;

  std::uint64_t merged_segments() const;

 private:
  net::GroEngine& engine(int core_id);

  const CostModel& costs_;
  net::GroParams params_;
  std::vector<net::GroEngine> engines_;  // indexed by core id
};

}  // namespace mflow::stack
