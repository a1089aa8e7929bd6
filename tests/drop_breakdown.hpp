// One-line account of why an rt engine run lost packets, for the failure
// messages of the engine suites.
#pragma once

#include <string>

#include "rt/engine.hpp"

inline std::string drop_breakdown(const mflow::rt::EngineResult& r) {
  return "dropped " + std::to_string(r.packets_dropped) + " (pool dry " +
         std::to_string(r.drops.pool_dry) + ", split ring " +
         std::to_string(r.drops.split_ring) + ", merge ring " +
         std::to_string(r.drops.merge_ring) + ", fault " +
         std::to_string(r.drops.fault) + ")";
}
