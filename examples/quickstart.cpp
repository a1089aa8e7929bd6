// Quickstart: run one elephant TCP flow through a Docker-style VXLAN overlay
// receive path, first vanilla, then with MFLOW packet-level parallelism, and
// print the difference.
//
//   $ ./example_quickstart
//
// See README.md for a walk-through of what happens under the hood.
#include <iostream>

#include "experiment/report.hpp"
#include "experiment/scenario.hpp"

int main() {
  using namespace mflow;

  // One elephant TCP flow (the ScenarioConfig default), 64KB messages
  // fragmented into MSS segments.
  exp::ScenarioConfig scenario;

  std::cout << "Simulating a single elephant TCP flow into a container\n"
               "behind a VXLAN overlay network...\n\n";

  scenario.mode = exp::Mode::kVanilla;
  const auto vanilla = exp::run_scenario(scenario);
  std::cout << "  " << exp::throughput_row(vanilla) << "\n";

  // Paper defaults: IRQ splitting, batch 256, two splitting cores, merge
  // before TCP.
  scenario.mode = exp::Mode::kMflow;
  const auto mflow = exp::run_scenario(scenario);
  std::cout << "  " << exp::throughput_row(mflow) << "\n\n";

  std::cout << "MFLOW speedup: " << mflow.goodput_gbps / vanilla.goodput_gbps
            << "x  (paper: ~1.81x)\n\n";
  exp::print_core_breakdown(std::cout, "MFLOW per-core CPU utilization",
                            mflow);
  return 0;
}
