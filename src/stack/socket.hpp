// Socket layer: backlog/receive queues, the packet-delivery (copy) thread,
// message accounting, and the hook point where MFLOW's reassembler plugs in.
//
// The reader pollable models the kernel thread that copies data from kernel
// buffers to the application (bonded to the application's core — paper
// footnote 1). Under MFLOW, per the paper's implementation section, the
// *merging functionality* runs inside this thread (tcp_recvmsg/udp_recvmsg),
// pulling from per-core buffer queues in micro-flow order.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/packet.hpp"
#include "sim/core.hpp"
#include "stack/costs.hpp"
#include "stack/tcp_rx.hpp"
#include "util/fifo.hpp"
#include "util/histogram.hpp"

namespace mflow::stack {

class Machine;

/// Interface the MFLOW reassembler (core/reassembler.hpp) implements; keeps
/// the stack layer independent of the contribution built on top of it.
class MergeBuffer {
 public:
  virtual ~MergeBuffer() = default;

  /// Softirq side: a splitting core deposits a processed skb.
  virtual void deposit(net::PacketPtr pkt, int from_core) = 0;

  /// Reader side: next skb in original flow order, or nullptr if the
  /// in-order head hasn't arrived yet.
  virtual net::PacketPtr pop_ready() = 0;

  /// CPU charged by merge bookkeeping since the last call (reader drains
  /// this into Tag::kMerge).
  virtual sim::Time take_pending_charge() = 0;

  /// True if pop_ready() would return a packet right now (the reader uses
  /// this to decide whether to stay scheduled).
  virtual bool pop_ready_available() const = 0;

  /// True if any skb is buffered (ready or not).
  virtual bool has_buffered() const = 0;
};

/// Receive-side metrics for one socket, reset at the warmup boundary.
struct RxStats {
  std::uint64_t payload_bytes = 0;      // goodput copied to the application
  std::uint64_t messages = 0;           // completed application messages
  std::uint64_t skbs = 0;               // skbs handed to the reader
  std::uint64_t segments = 0;           // wire segments those skbs carried
  util::Histogram latency{6};           // message latency, ns (first wire
                                        // byte -> copied to application)
  void reset() { *this = RxStats{}; }
};

struct SocketConfig {
  std::uint8_t protocol = net::Ipv4Header::kProtoUdp;
  int app_core = 0;          // where the reader (copy thread) runs
  /// Additional reader (copy) threads on further cores — the paper's
  /// receiver-side future work: once MFLOW parallelizes packet processing,
  /// the single kernel->user copy thread on the app core becomes the new
  /// bottleneck; extra readers parallelize the copy itself. Merging stays
  /// ordered (pops happen in merge order); only the byte copying spreads.
  std::vector<int> extra_reader_cores = {};
  std::uint32_t message_size = 65536;  // TCP stream framing; UDP uses the
                                       // per-packet message_bytes field
  /// TCP processing deferred to the reader (MFLOW full-path mode: merge
  /// happens before the stateful layer, both run in recvmsg context).
  bool tcp_in_reader = false;
  /// Variable-size messages: account TCP deliveries by each packet's
  /// message_id/message_bytes (like UDP) instead of fixed stream framing.
  /// Used by request/response application workloads.
  bool per_message_accounting = false;
};

class Socket {
 public:
  Socket(Machine& machine, SocketConfig config);
  ~Socket();

  /// Ingest from the pipeline (terminal stage). Raises the reader.
  void ingest(net::PacketPtr pkt, int from_core);

  /// Install MFLOW's reassembler; packets then flow through its per-core
  /// buffer queues instead of the single receive queue.
  void set_merge_buffer(MergeBuffer* mb) { merge_ = mb; }

  /// Wake a reader without a new deposit: an eviction or drop retraction
  /// just turned already-buffered data ready.
  void notify_merge_ready();

  /// Only meaningful with tcp_in_reader: the reader-context TCP receiver.
  TcpReceiver& tcp_receiver() { return tcp_rx_; }

  /// Invoked when a complete application message has been copied to user
  /// space: (flow, message id, delivery latency ns). Application workloads
  /// (web serving, data caching) drive their request/response state
  /// machines from this.
  using MessageListener =
      std::function<void(net::FlowId, std::uint64_t, sim::Time)>;
  void set_message_listener(MessageListener fn) {
    listener_ = std::move(fn);
  }

  const RxStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }
  const SocketConfig& config() const { return config_; }

  std::size_t receive_queue_depth() const { return rx_queue_.size(); }

 private:
  class Reader;  // the packet-delivery pollable (copy thread)

  void deliver_to_app(net::PacketPtr pkt, sim::Core& core);
  void account_message_bytes(const net::Packet& pkt, sim::Time now);
  /// Core id of the reader to wake for newly ingested data (round-robin
  /// across the configured reader cores).
  int next_reader_core();

  Machine& machine_;
  SocketConfig config_;
  util::Fifo<net::PacketPtr> rx_queue_;  // sk_receive_queue
  MergeBuffer* merge_ = nullptr;
  TcpReceiver tcp_rx_;
  std::vector<std::unique_ptr<Reader>> readers_;  // one per reader core
  std::vector<int> reader_cores_;
  std::size_t reader_rr_ = 0;
  RxStats stats_;
  MessageListener listener_;

  // TCP stream -> message framing (all sockperf messages are fixed-size).
  std::uint64_t stream_msg_bytes_ = 0;  // bytes into the current message
  sim::Time stream_msg_start_ = 0;      // t_wire of its first segment

  // UDP datagram reassembly accounting (fragments may be lost).
  struct UdpMsg {
    std::uint32_t bytes = 0;
    sim::Time start = 0;
  };
  std::unordered_map<std::uint64_t, UdpMsg> udp_msgs_;
  std::uint64_t newest_msg_id_ = 0;
};

}  // namespace mflow::stack
