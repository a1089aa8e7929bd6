// Stateful network functions (NAT, stateful firewall, Maglev L4 LB) with
// per-flow state designed for State-Compute Replication (SCR).
//
// MFLOW's micro-flow splitting sends packets of ONE flow to several cores —
// exactly the access pattern that wrecks a stateful middlebox keyed on the
// 5-tuple. SCR (PAPERS.md: "State-Compute Replication: Parallelizing
// High-Speed Stateful Packet Processing") parallelizes such NFs without a
// shared lock by letting every core run the full state computation on the
// packets it sees and reconciling replicas afterwards. For that merge to be
// EXACT (not approximate), this module formulates each NF's per-flow state
// as a join-semilattice / commutative-monoid value:
//
//   - bindings (NAT external port, LB backend) are PURE deterministic
//     functions of the flow key and replicated configuration — every core
//     computes the same binding independently, no coordination needed;
//   - counters (packets, bytes) are sums — merge is addition;
//   - firewall connection tracking keeps the SET of TCP flag classes seen
//     (SYN / SYN+ACK / FIN / bare data) — merge is bitwise OR, and the
//     conntrack phase is DERIVED from the set, monotone in it.
//
// With that shape, merge(replica_1 .. replica_k) over any partition, in any
// order, with any interleaving, equals the state a single in-order core
// (the shared-lock oracle) would hold after the same packet multiset —
// which is what tests/test_nf.cpp asserts under split, reorder, loss and
// live rescale. The engine-facing strategy seam (shared-lock / flow-
// affinity / SCR) lives in nf/stage.hpp (DES) and rt/engine.cpp (rt); this
// header is engine-agnostic and depends only on src/net.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/flow.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"

namespace mflow::nf {

/// The concrete NFs. A chain is an ordered list of these.
enum class Kind : std::uint8_t {
  kNat,           // dynamic source NAT: port allocation + header rewrite
  kFirewall,      // stateful firewall: TCP conntrack (SYN/EST/FIN machine)
  kLoadBalancer,  // Maglev-style consistent-hash L4 load balancer
};

/// How per-flow NF state is parallelized when MFLOW splits the flow.
enum class Strategy : std::uint8_t {
  kSharedLock,    // one state table, one lock — split packets serialize on it
  kFlowAffinity,  // NF pinned per flow: packets converge on one core,
                  // defeating the split downstream of the NF
  kScr,           // state-compute replication: per-core replicas, lock-free,
                  // merged deterministically
};

std::string_view kind_name(Kind kind);
std::string_view strategy_name(Strategy strategy);
/// Parse "nat" / "fw" ("firewall") / "lb" ("maglev"); throws
/// std::invalid_argument with the accepted spellings.
Kind parse_kind(std::string_view name);
/// Parse "lock" / "affinity" / "scr" (same error contract).
Strategy parse_strategy(std::string_view name);
/// Parse a '+'- or ','-separated chain spec, e.g. "nat+fw+lb".
std::vector<Kind> parse_chain(std::string_view spec);
std::string chain_name(const std::vector<Kind>& chain);

/// Replicated NF configuration: every core holds an identical copy, so any
/// pure function of (config, flow key) is computed consistently everywhere.
struct ChainConfig {
  std::vector<Kind> chain = {Kind::kFirewall};

  // --- dynamic NAT ---------------------------------------------------------
  /// External ports are drawn from [nat_port_base, nat_port_base +
  /// nat_port_span) by a keyed hash (RFC 6056-style algorithm 3); collisions
  /// across flows are tolerated (counted by the caller, never fatal) —
  /// resolving them would need global agreement, which is exactly what SCR
  /// avoids.
  std::uint16_t nat_port_base = 1024;
  std::uint16_t nat_port_span = 60000;
  net::Ipv4Addr nat_external{203, 0, 113, 1};
  std::uint32_t nat_seed = 0x6e61742b;

  // --- Maglev L4 load balancer ---------------------------------------------
  std::uint32_t lb_backends = 8;
  /// Lookup-table size; Maglev wants a prime well above the backend count
  /// for even slices. Not required to be prime here, but the default is.
  std::uint32_t lb_table_size = 251;
  std::uint32_t lb_seed = 0x6d616c76;
};

// --- per-flow state (the mergeable lattice) ---------------------------------

/// Flag classes a firewall conntrack entry accumulates (bitwise-OR lattice).
enum : std::uint8_t {
  kFwSawSyn = 1u << 0,     // SYN without ACK: opener
  kFwSawSynAck = 1u << 1,  // SYN+ACK: responder half observed
  kFwSawFin = 1u << 2,     // FIN: teardown started
  kFwSawData = 1u << 3,    // non-SYN segment (payload/ACK traffic)
};

/// Conntrack phase DERIVED from the flag set (monotone in it, so the phase
/// of a merged entry equals the phase the in-order oracle derives).
enum class FwPhase : std::uint8_t {
  kNew,          // nothing but unsolicited data
  kSynSent,      // opener seen, no responder
  kEstablished,  // both SYN directions seen
  kClosing,      // FIN seen
};

struct NatState {
  std::uint16_t ext_port = 0;  // binding: pure fn of key, 0 = unset
  std::uint64_t segs = 0;      // wire segments (GRO-invariant unit)
  std::uint64_t bytes = 0;
  bool operator==(const NatState&) const = default;
};

struct FwState {
  std::uint8_t flags = 0;  // OR of kFwSaw*
  std::uint64_t segs = 0;
  std::uint64_t bytes = 0;
  FwPhase phase() const {
    if (flags & kFwSawFin) return FwPhase::kClosing;
    if ((flags & kFwSawSyn) && (flags & kFwSawSynAck))
      return FwPhase::kEstablished;
    if (flags & (kFwSawSyn | kFwSawSynAck)) return FwPhase::kSynSent;
    return FwPhase::kNew;
  }
  bool operator==(const FwState&) const = default;
};

struct LbState {
  std::uint32_t backend = 0;  // binding: pure fn of key (+1; 0 = unset)
  std::uint64_t segs = 0;
  std::uint64_t bytes = 0;
  bool operator==(const LbState&) const = default;
};

/// Per-flow state across the whole chain. Only semantic, seg-conserved
/// quantities live here (counts are per wire segment, never per skb, so GRO
/// coalescing timing cannot perturb the digest).
struct FlowState {
  NatState nat;
  FwState fw;
  LbState lb;
  bool operator==(const FlowState&) const = default;
};

/// Join two replicas: sums for counters, OR for flag sets, first-nonzero
/// for bindings (equal whenever both are set, by purity). Commutative and
/// associative — replica merge order cannot matter.
void merge(FlowState& into, const FlowState& from);

/// Order-insensitive digest of one flow's semantic state.
std::uint64_t digest(const FlowState& s);
/// Fold one (flow, state) pair into a table digest. Callers fold over
/// entries sorted by flow id so two tables digest equal iff they hold the
/// same mapping.
std::uint64_t fold_digest(std::uint64_t h, net::FlowId id, const FlowState& s);

// --- Maglev ----------------------------------------------------------------

/// Maglev consistent-hash lookup table (NSDI'16 §3.4): each backend fills
/// table slots following its own permutation until every slot is owned.
/// Deterministic in (backends, size, seed), so replicated construction on
/// every core yields identical tables — backend choice is a pure function.
class MaglevTable {
 public:
  MaglevTable() = default;
  static MaglevTable build(std::uint32_t backends, std::uint32_t table_size,
                           std::uint32_t seed);

  std::uint32_t backend_for(const net::FlowKey& key) const {
    return lookup_.empty()
               ? 0
               : lookup_[net::flow_hash(key, seed_) % lookup_.size()];
  }
  std::size_t size() const { return lookup_.size(); }
  /// Slots owned by `backend` (population-evenness checks in tests).
  std::size_t slots_of(std::uint32_t backend) const;

 private:
  std::vector<std::uint32_t> lookup_;
  std::uint32_t seed_ = 0;
};

// --- the state computation ---------------------------------------------------

/// TCP flag bits as PacketView carries them.
enum : std::uint8_t {
  kTcpFlagSyn = 1u << 0,
  kTcpFlagAck = 1u << 1,
  kTcpFlagFin = 1u << 2,
};

/// Per-packet inputs the state update consumes, decoupled from net::Packet
/// so the rt engine and property tests can feed synthetic streams.
struct PacketView {
  net::FlowKey flow;            // innermost 5-tuple
  std::uint32_t wire_bytes = 0; // headers + virtual payload
  std::uint32_t segs = 1;       // wire segments carried (GRO super-skb > 1)
  std::uint8_t tcp_flags = 0;   // kTcpFlag* bits; 0 for UDP
};

/// Extract the view from a real packet: flow key from metadata, TCP flags
/// decoded from the actual header bytes when the (decapsulated) buffer
/// parses as Eth/IPv4/TCP.
PacketView view_of(const net::Packet& pkt);
/// view_of() written field by field into `out`, for a caller that keeps
/// views in memory of its own. Assigning a returned view goes through a
/// temporary that is copied in loads wider than the stores that built it,
/// which the store buffer cannot forward: a stall per packet.
void view_into(const net::Packet& pkt, PacketView& out);

/// Deterministic dynamic-NAT port for `key` — the replicated computation
/// every core performs instead of synchronizing on an allocation bitmap.
std::uint16_t nat_port_for(const ChainConfig& cfg, const net::FlowKey& key);

/// nat_port_for() under one ChainConfig, memoized on the last key asked
/// for: an rt worker's packets come in runs of one flow, so the keyed hash
/// runs once per run instead of once per packet.
class NatPortMemo {
 public:
  std::uint16_t operator()(const ChainConfig& cfg, const net::FlowKey& key) {
    if (!valid_ || key != key_) {
      key_ = key;
      port_ = nat_port_for(cfg, key);
      valid_ = true;
    }
    return port_;
  }

 private:
  net::FlowKey key_{};
  std::uint16_t port_ = 0;
  bool valid_ = false;
};

/// Firewall flag class (kFwSaw* bits) of one packet's kTcpFlag* bits.
inline std::uint8_t fw_class(std::uint8_t tcp_flags) {
  std::uint8_t cls = 0;
  if (tcp_flags & kTcpFlagSyn)
    cls = (tcp_flags & kTcpFlagAck) ? kFwSawSynAck : kFwSawSyn;
  else if (tcp_flags & kTcpFlagFin)
    cls = kFwSawFin;
  else
    cls = kFwSawData;
  // FIN may ride on a data segment; record teardown regardless.
  if ((tcp_flags & kTcpFlagFin) != 0) cls |= kFwSawFin;
  return cls;
}

/// Apply one NF's state update for one packet. Pure in (cfg, maglev, view):
/// identical inputs produce identical updates on every core, which is the
/// SCR replication invariant.
void apply(const ChainConfig& cfg, const MaglevTable* maglev, Kind kind,
           const PacketView& view, FlowState& state);

/// What a run of packets of ONE flow adds to its FlowState under any chain:
/// every update apply() makes is a sum or an OR, so the run's packets fold
/// into these three values and commit() applies them in one step.
struct RunFold {
  std::uint64_t segs = 0;
  std::uint64_t bytes = 0;
  std::uint8_t fw_classes = 0;  // OR of fw_class() over the run
  void add(const PacketView& view) {
    segs += view.segs;
    bytes += view.wire_bytes;
    fw_classes |= fw_class(view.tcp_flags);
  }
};

/// Commit a run of flow `key` to `state`: field by field the state that
/// apply()ing every kind of cfg.chain to each of the run's packets gives.
void commit(const ChainConfig& cfg, const MaglevTable* maglev,
            const net::FlowKey& key, const RunFold& run, FlowState& state);

/// Rewrite the packet's real header bytes for source NAT (src address ->
/// cfg.nat_external, src port -> ext_port). The IPv4 checksum is updated
/// incrementally over the address words (RFC 1624), which on a valid
/// header gives exactly the bytes of a full re-encode. Returns false, bytes
/// untouched, when the buffer does not parse as Eth/IPv4/{TCP,UDP} (e.g.
/// still encapsulated). Flow METADATA (pkt.flow / flow_id) is left
/// untouched: delivery downstream keys on the destination.
bool nat_rewrite(const ChainConfig& cfg, net::Packet& pkt,
                 std::uint16_t ext_port);

}  // namespace mflow::nf
