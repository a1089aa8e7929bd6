// The packet / skb model.
//
// A Packet carries REAL header bytes (so encap/decap/parse/verify are genuine
// transformations) plus a VIRTUAL payload: only the payload length is
// tracked, never its bytes — at simulated 100GbE rates materializing payloads
// would dominate runtime without changing any result the paper reports.
//
// A Packet plays the role of both the raw DMA buffer (before skb allocation)
// and the skb (after): `skb_allocated` flips when the driver stage runs,
// which is exactly the boundary MFLOW's IRQ-splitting function exploits.
//
// Ownership: every packet travels as a `PacketPtr`, a unique_ptr whose
// deleter knows how the packet was obtained. Heap packets (make_packet) are
// deleted; pooled packets (rt::PacketPool, docs/PERFORMANCE.md) are handed
// back to their pool's free list when the pointer dies — drop, GRO merge,
// and copy-to-user all recycle through the exact same destructor path, so
// no call site needs to know which kind it holds. A pooled packet must die
// on its pool's owning thread; other threads send it home first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "net/flow.hpp"
#include "net/headers.hpp"
#include "sim/time.hpp"

namespace mflow::net {

/// skb-like byte buffer with headroom: push() prepends (encap), pull()
/// strips (decap). The bytes live inline, in a fixed kCapacity-byte array,
/// so a packet and its header bytes are one block and no buffer operation
/// ever touches the allocator (docs/PERFORMANCE.md, "Line-aligned slabs").
/// The array is left uninitialized: only [head, tail) is ever read.
class PacketBuffer {
 public:
  /// Inline byte capacity, headroom included: 64 bytes of headroom plus 64
  /// of tail. The deepest stack any path builds (VXLAN outer + Eth/IPv4/TCP)
  /// is 104 bytes.
  static constexpr std::size_t kCapacity = 128;

  /// Default headroom leaves room for one full VXLAN outer stack (50 bytes)
  /// plus an inner Ethernet header in front of whatever is appended.
  explicit PacketBuffer(std::size_t headroom = 64) { reset(headroom); }

  /// Append `n` zero-filled bytes at the tail; returns the writable region.
  /// Aborts when the tail would pass kCapacity.
  std::span<std::uint8_t> append(std::size_t n);
  /// Prepend `n` bytes (requires headroom); returns the writable region.
  /// Aborts when `n` exceeds the headroom.
  std::span<std::uint8_t> push(std::size_t n);
  /// Strip `n` bytes from the front. Requires n <= size().
  void pull(std::size_t n);

  /// Drop all content and restore `headroom` bytes of headroom. Aborts when
  /// `headroom` exceeds kCapacity.
  void reset(std::size_t headroom = 64);

  /// Valid bytes (front of packet first).
  std::span<const std::uint8_t> data() const {
    return {bytes_ + head_, size()};
  }
  std::span<std::uint8_t> data() { return {bytes_ + head_, size()}; }
  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
  std::size_t headroom() const { return head_; }

 private:
  std::uint8_t bytes_[kCapacity];
  std::uint16_t head_;  // offset of the first valid byte
  std::uint16_t tail_;  // one past the last valid byte
};

constexpr std::uint32_t kMtu = 1500;
/// Inner MSS for MTU 1500 with our header sizes (IPv4 + TCP, no options),
/// further reduced by 50 bytes of VXLAN overhead when tunneled.
constexpr std::uint32_t kVxlanOverhead =
    EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize +
    VxlanHeader::kSize;  // 50 bytes
constexpr std::uint32_t kTcpMss = kMtu - Ipv4Header::kSize - TcpHeader::kSize;

struct Packet;

/// Something that takes dead packets back (rt::PacketPool implements this).
/// The indirection keeps src/net free of any dependency on the pool.
class PacketRecycler {
 public:
  /// Return `pkt` to the recycler's free list. Called on the pool's owning
  /// thread only (a pooled PacketPtr must die there), and must not throw —
  /// it runs inside unique_ptr destruction.
  virtual void recycle(Packet* pkt) noexcept = 0;

 protected:
  ~PacketRecycler() = default;  // never deleted through this interface
};

/// Deleter carried by every PacketPtr: recycles pooled packets, deletes
/// heap ones. Default-constructed (recycler == nullptr) means heap.
struct PacketDeleter {
  PacketRecycler* recycler = nullptr;
  void operator()(Packet* pkt) const noexcept;
};

/// The one way packets are owned and moved through the system.
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/// The packet itself: one 256-byte, line-aligned block. Lines 0-1 hold the
/// header bytes, line 2 every field the rt engine or the splitter writes
/// per packet, line 3 the fields only the DES uses, so an rt worker's
/// per-packet reads and writes stay in lines 0-2.
/// Aggregate on purpose: all metadata fields have defaults, and
/// Packet::reset() must restore exactly those defaults when a pooled packet
/// is recycled (keep the two in sync).
struct alignas(64) Packet {
  // --- lines 0-1 (and line 2's first 4 bytes: head/tail) ---
  PacketBuffer buf;              // real header bytes (+ nothing else)

  // --- line 2: per-packet fields of the rt engine and the splitter ---
  std::uint32_t payload_len = 0;  // virtual payload bytes
  FlowKey flow{};                // innermost 5-tuple
  FlowId flow_id = 0;            // dense workload-assigned id
  std::uint64_t wire_seq = 0;    // per-flow arrival index at receiver NIC
  // MFLOW: micro-flow (batch) identifier; reflects the batch's position in
  // the original flow. 0 = not split. (Paper stores this in the skb.)
  std::uint64_t microflow_id = 0;
  // GRO: number of original segments coalesced into this skb (>= 1).
  std::uint32_t gro_segs = 1;
  bool encapsulated = false;     // still carrying VXLAN outer headers

  // --- line 3: DES-only fields ---
  // 64-bit TCP stream offset of the first payload byte. The encoded wire
  // header carries the low 32 bits; the simulation keeps the full offset so
  // multi-gigabyte streams need no sequence-wrap handling.
  alignas(64) std::uint64_t tcp_seq = 0;
  std::uint64_t message_id = 0;  // application message this packet belongs to
  sim::Time t_wire = 0;          // arrival time at the receiver NIC
  std::uint32_t message_bytes = 0;  // total payload bytes of that message
  bool skb_allocated = false;    // driver stage has built the skb

  /// Header bytes + virtual payload bytes: what the wire would carry.
  std::uint32_t wire_len() const {
    return static_cast<std::uint32_t>(buf.size()) + payload_len;
  }

  /// Restore the pristine just-constructed state (buffer emptied with
  /// default headroom, every metadata field back to its default). Pools
  /// call this before handing a recycled packet out, so a reused packet is
  /// indistinguishable from a fresh one.
  void reset();
};

static_assert(sizeof(Packet) == 256 && alignof(Packet) == 64,
              "a Packet is four whole cache lines");
static_assert(offsetof(Packet, payload_len) >= 128 &&
                  offsetof(Packet, encapsulated) < 192,
              "the rt engine's per-packet fields share line 2");
static_assert(offsetof(Packet, tcp_seq) == 192,
              "the DES-only fields start line 3");

// --- construction & tunnel operations ---------------------------------------

/// Heap-allocate an empty packet (deleter in plain-delete mode).
PacketPtr make_packet();

/// Deep-copy `src` into a fresh HEAP packet (used by fault duplication and
/// batch-boundary splitting). The copy never aliases src's pool: duplicating
/// a pooled packet must not create two owners of one slab.
PacketPtr clone_packet(const Packet& src);

/// Build a TCP segment with real Eth/IPv4/TCP headers for `flow`. The wire
/// header's sequence field is the low 32 bits of `tcp_seq`.
PacketPtr make_tcp_segment(const FlowKey& flow, std::uint64_t tcp_seq,
                           std::uint32_t payload_len);

/// As above, but build into `recycled` (a pool slab or any packet to reuse)
/// instead of allocating. The slab is reset first; a null slab falls back
/// to the heap path, so callers can pass `pool->acquire()` unconditionally.
PacketPtr make_tcp_segment(PacketPtr recycled, const FlowKey& flow,
                           std::uint64_t tcp_seq, std::uint32_t payload_len);

/// Build a UDP datagram (or fragment) with real Eth/IPv4/UDP headers.
PacketPtr make_udp_datagram(const FlowKey& flow, std::uint32_t payload_len);

/// Slab-reusing variant of make_udp_datagram (see make_tcp_segment above).
PacketPtr make_udp_datagram(PacketPtr recycled, const FlowKey& flow,
                            std::uint32_t payload_len);

/// VXLAN-encapsulate in place: prepends outer Eth/IPv4/UDP/VXLAN (50 bytes).
/// Outer UDP source port is derived from the inner flow hash, as RFC 7348
/// recommends (this is what lets RSS spread *different* tunneled flows).
void vxlan_encap(Packet& pkt, const Ipv4Addr& outer_src,
                 const Ipv4Addr& outer_dst, std::uint32_t vni);

/// Result of parsing+stripping the outer headers.
struct DecapResult {
  bool ok = false;
  std::uint32_t vni = 0;
};

/// VXLAN-decapsulate in place: verifies outer IPv4 checksum, UDP dst port
/// and VXLAN flags, then strips the 50-byte outer stack.
DecapResult vxlan_decap(Packet& pkt);

/// Fast-path splice decap (stack/flowcache.hpp, rt overlay mode): a prior
/// packet of this flow already validated the outer stack, so only the VXLAN
/// header (flags + VNI) is re-checked before the 50-byte strip — no
/// ethertype parse, no outer IPv4 checksum verification, no UDP port check.
/// Returns false (packet untouched) when the VXLAN header disagrees, so a
/// stale or colliding cache entry falls back to the slow path.
bool vxlan_splice_decap(Packet& pkt, std::uint32_t expected_vni);

/// Parse the (current) outermost IPv4 header without modifying the packet.
Ipv4Header peek_ipv4(const Packet& pkt);

}  // namespace mflow::net
