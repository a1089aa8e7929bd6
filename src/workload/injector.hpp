// On-demand stream injector: sends one application message (of any size)
// over a persistent TCP connection when asked. Used by the request/response
// application workloads (web serving tiers, memcached clients), where
// message timing is driven by a closed-loop state machine rather than a
// saturating generator.
//
// Window enforcement is intentionally absent: these flows run far below the
// bandwidth-delay product, so flow control never binds; modeling it would
// only add ACK events.
#pragma once

#include <cstdint>

#include "util/fifo.hpp"
#include "workload/sender.hpp"

namespace mflow::workload {

class StreamInjector : public sim::Pollable {
 public:
  StreamInjector(ClientHost& host, int core_id, SenderParams params,
                 WireLink& wire)
      : host_(host),
        core_id_(core_id),
        params_(params),
        wire_(wire),
        images_(params) {}

  /// Queue one `bytes`-long message tagged `msg_id` (must be unique per
  /// flow); segments are emitted in order as the client core gets to them.
  void send_message(std::uint64_t msg_id, std::uint32_t bytes);

  bool poll(sim::Core& core, int budget) override;
  std::string_view poll_name() const override { return "stream-injector"; }

  const SenderParams& params() const { return params_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Pending {
    std::uint64_t id;
    std::uint32_t bytes;
    std::uint32_t sent = 0;
  };

  ClientHost& host_;
  int core_id_;
  SenderParams params_;
  WireLink& wire_;
  HeaderImages images_;
  util::Fifo<Pending> queue_;
  std::uint64_t next_off_ = 0;  // TCP stream offset
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace mflow::workload
