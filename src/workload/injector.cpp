#include "workload/injector.hpp"

#include <algorithm>

namespace mflow::workload {

void StreamInjector::send_message(std::uint64_t msg_id, std::uint32_t bytes) {
  queue_.push_back(Pending{msg_id, bytes, 0});
  host_.core(core_id_).raise(*this);
}

bool StreamInjector::poll(sim::Core& core, int budget) {
  const stack::CostModel& costs = host_.costs();
  for (int n = 0; n < budget && !queue_.empty(); ++n) {
    Pending& msg = queue_.front();
    if (msg.sent == 0)
      core.charge(sim::Tag::kSender, costs.client_per_msg);

    const std::uint32_t len =
        std::min<std::uint32_t>(params_.mss, msg.bytes - msg.sent);
    core.charge(sim::Tag::kSender, params_.overlay
                                       ? costs.client_tcp_per_seg_overlay
                                       : costs.client_tcp_per_seg_native);

    wire_.transmit(images_.stamp(len, next_off_, msg.id, msg.bytes));
    next_off_ += len;
    bytes_sent_ += len;
    msg.sent += len;
    if (msg.sent >= msg.bytes) queue_.pop_front();
  }
  return !queue_.empty();
}

}  // namespace mflow::workload
