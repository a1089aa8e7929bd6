#include "nf/nf.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mflow::nf {

namespace {

/// splitmix64 finalizer — the same mixing family the flow table uses.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t key_hash(const net::FlowKey& key, std::uint32_t seed) {
  std::uint64_t h = seed;
  h = mix64(h ^ key.src.value);
  h = mix64(h ^ key.dst.value);
  h = mix64(h ^ ((std::uint64_t{key.src_port} << 32) |
                 (std::uint64_t{key.dst_port} << 16) | key.protocol));
  return h;
}

}  // namespace

std::string_view kind_name(Kind kind) {
  switch (kind) {
    case Kind::kNat: return "nat";
    case Kind::kFirewall: return "fw";
    case Kind::kLoadBalancer: return "lb";
  }
  return "?";
}

std::string_view strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSharedLock: return "lock";
    case Strategy::kFlowAffinity: return "affinity";
    case Strategy::kScr: return "scr";
  }
  return "?";
}

Kind parse_kind(std::string_view name) {
  if (name == "nat") return Kind::kNat;
  if (name == "fw" || name == "firewall") return Kind::kFirewall;
  if (name == "lb" || name == "maglev") return Kind::kLoadBalancer;
  throw std::invalid_argument("unknown NF kind '" + std::string(name) +
                              "' (expected nat|fw|lb)");
}

Strategy parse_strategy(std::string_view name) {
  if (name == "lock") return Strategy::kSharedLock;
  if (name == "affinity") return Strategy::kFlowAffinity;
  if (name == "scr") return Strategy::kScr;
  throw std::invalid_argument("unknown NF strategy '" + std::string(name) +
                              "' (expected lock|affinity|scr)");
}

std::vector<Kind> parse_chain(std::string_view spec) {
  std::vector<Kind> chain;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find_first_of("+,", start);
    if (end == std::string_view::npos) end = spec.size();
    if (end > start) chain.push_back(parse_kind(spec.substr(start, end - start)));
    start = end + 1;
  }
  if (chain.empty())
    throw std::invalid_argument("empty NF chain spec '" + std::string(spec) +
                                "'");
  return chain;
}

std::string chain_name(const std::vector<Kind>& chain) {
  std::string out;
  for (Kind k : chain) {
    if (!out.empty()) out += '+';
    out += kind_name(k);
  }
  return out;
}

void merge(FlowState& into, const FlowState& from) {
  if (into.nat.ext_port == 0) into.nat.ext_port = from.nat.ext_port;
  into.nat.segs += from.nat.segs;
  into.nat.bytes += from.nat.bytes;

  into.fw.flags |= from.fw.flags;
  into.fw.segs += from.fw.segs;
  into.fw.bytes += from.fw.bytes;

  if (into.lb.backend == 0) into.lb.backend = from.lb.backend;
  into.lb.segs += from.lb.segs;
  into.lb.bytes += from.lb.bytes;
}

std::uint64_t digest(const FlowState& s) {
  std::uint64_t h = 0x6e66646967ull;  // 'nfdig'
  for (std::uint64_t v :
       {std::uint64_t{s.nat.ext_port}, s.nat.segs, s.nat.bytes,
        std::uint64_t{s.fw.flags}, s.fw.segs, s.fw.bytes,
        std::uint64_t{s.lb.backend}, s.lb.segs, s.lb.bytes})
    h = mix64(h ^ v);
  return h;
}

std::uint64_t fold_digest(std::uint64_t h, net::FlowId id,
                          const FlowState& s) {
  return mix64(h ^ mix64(id) ^ digest(s));
}

// --- Maglev ----------------------------------------------------------------

MaglevTable MaglevTable::build(std::uint32_t backends,
                               std::uint32_t table_size, std::uint32_t seed) {
  MaglevTable t;
  t.seed_ = seed;
  if (backends == 0 || table_size == 0) return t;
  const std::uint64_t m = table_size;
  // Per-backend permutation parameters (NSDI'16 §3.4: offset + skip).
  std::vector<std::uint64_t> offset(backends), skip(backends), next(backends);
  for (std::uint32_t b = 0; b < backends; ++b) {
    const std::uint64_t h1 = mix64((std::uint64_t{seed} << 32) | b);
    const std::uint64_t h2 = mix64(h1 ^ 0x5bd1e995u);
    offset[b] = h1 % m;
    skip[b] = m > 1 ? h2 % (m - 1) + 1 : 0;
    next[b] = 0;
  }
  t.lookup_.assign(table_size, 0);
  std::vector<bool> taken(table_size, false);
  std::uint64_t filled = 0;
  while (filled < m) {
    for (std::uint32_t b = 0; b < backends && filled < m; ++b) {
      std::uint64_t slot = (offset[b] + next[b] * skip[b]) % m;
      while (taken[slot]) {
        ++next[b];
        slot = (offset[b] + next[b] * skip[b]) % m;
      }
      taken[slot] = true;
      t.lookup_[slot] = b;
      ++next[b];
      ++filled;
    }
  }
  return t;
}

std::size_t MaglevTable::slots_of(std::uint32_t backend) const {
  return static_cast<std::size_t>(
      std::count(lookup_.begin(), lookup_.end(), backend));
}

// --- the state computation ---------------------------------------------------

PacketView view_of(const net::Packet& pkt) {
  PacketView v;
  view_into(pkt, v);
  return v;
}

void view_into(const net::Packet& pkt, PacketView& out) {
  out.flow = pkt.flow;
  out.wire_bytes = pkt.wire_len();
  out.segs = std::max<std::uint32_t>(pkt.gro_segs, 1);
  std::uint8_t flags = 0;
  if (pkt.flow.protocol == net::Ipv4Header::kProtoTcp && !pkt.encapsulated) {
    const auto bytes = pkt.buf.data();
    constexpr std::size_t kTcpOff =
        net::EthernetHeader::kSize + net::Ipv4Header::kSize;
    if (bytes.size() >= kTcpOff + net::TcpHeader::kSize) {
      const net::TcpHeader tcp = net::TcpHeader::decode(bytes.subspan(kTcpOff));
      if (tcp.flag_syn) flags |= kTcpFlagSyn;
      if (tcp.flag_ack) flags |= kTcpFlagAck;
      if (tcp.flag_fin) flags |= kTcpFlagFin;
    }
  }
  out.tcp_flags = flags;
}

std::uint16_t nat_port_for(const ChainConfig& cfg, const net::FlowKey& key) {
  const std::uint16_t span = std::max<std::uint16_t>(cfg.nat_port_span, 1);
  return static_cast<std::uint16_t>(cfg.nat_port_base +
                                    key_hash(key, cfg.nat_seed) % span);
}

namespace {

/// One NF's update by `segs` wire segments and `bytes` bytes of flow `key`
/// that carried the firewall classes `fw_classes`: apply() for one packet,
/// commit() for a run.
void add_to(const ChainConfig& cfg, const MaglevTable* maglev, Kind kind,
            const net::FlowKey& key, std::uint64_t segs, std::uint64_t bytes,
            std::uint8_t fw_classes, FlowState& state) {
  switch (kind) {
    case Kind::kNat:
      if (state.nat.ext_port == 0) state.nat.ext_port = nat_port_for(cfg, key);
      state.nat.segs += segs;
      state.nat.bytes += bytes;
      break;
    case Kind::kFirewall:
      state.fw.flags |= fw_classes;
      state.fw.segs += segs;
      state.fw.bytes += bytes;
      break;
    case Kind::kLoadBalancer:
      if (state.lb.backend == 0 && maglev != nullptr)
        state.lb.backend = maglev->backend_for(key) + 1;
      state.lb.segs += segs;
      state.lb.bytes += bytes;
      break;
  }
}

}  // namespace

void apply(const ChainConfig& cfg, const MaglevTable* maglev, Kind kind,
           const PacketView& view, FlowState& state) {
  add_to(cfg, maglev, kind, view.flow, view.segs, view.wire_bytes,
         fw_class(view.tcp_flags), state);
}

void commit(const ChainConfig& cfg, const MaglevTable* maglev,
            const net::FlowKey& key, const RunFold& run, FlowState& state) {
  for (Kind kind : cfg.chain)
    add_to(cfg, maglev, kind, key, run.segs, run.bytes, run.fw_classes, state);
}

bool nat_rewrite(const ChainConfig& cfg, net::Packet& pkt,
                 std::uint16_t ext_port) {
  if (pkt.encapsulated) return false;
  auto bytes = pkt.buf.data();
  constexpr std::size_t kIpOff = net::EthernetHeader::kSize;
  constexpr std::size_t kL4Off = kIpOff + net::Ipv4Header::kSize;
  constexpr std::size_t kCsumOff = kIpOff + 10;
  constexpr std::size_t kSrcOff = kIpOff + 12;
  if (bytes.size() < kL4Off + 4) return false;
  const auto word = [&bytes](std::size_t off) -> std::uint32_t {
    return (std::uint32_t{bytes[off]} << 8) | bytes[off + 1];
  };
  if (word(12) != net::EthernetHeader::kEtherTypeIpv4) return false;
  const std::uint8_t proto = bytes[kIpOff + 9];
  if (proto != net::Ipv4Header::kProtoTcp &&
      proto != net::Ipv4Header::kProtoUdp)
    return false;
  // RFC 1624 eqn. 3, HC' = ~(~HC + ~m + m'), over the two 16-bit words of
  // the source address. On a header whose checksum was valid this equals a
  // full recompute byte for byte: both one's-complement sums are nonzero
  // and agree modulo 0xFFFF, so the end-around-carry fold lands on the
  // same value.
  const std::uint32_t src = cfg.nat_external.value;
  std::uint32_t sum = ~word(kCsumOff) & 0xFFFF;
  sum += (~word(kSrcOff) & 0xFFFF) + (src >> 16);
  sum += (~word(kSrcOff + 2) & 0xFFFF) + (src & 0xFFFF);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  const std::uint32_t csum = ~sum & 0xFFFF;
  bytes[kCsumOff] = static_cast<std::uint8_t>(csum >> 8);
  bytes[kCsumOff + 1] = static_cast<std::uint8_t>(csum & 0xFF);
  for (std::size_t k = 0; k < 4; ++k)
    bytes[kSrcOff + k] = static_cast<std::uint8_t>(src >> (24 - 8 * k));
  // Source port is the first 16-bit field of both TCP and UDP.
  bytes[kL4Off] = static_cast<std::uint8_t>(ext_port >> 8);
  bytes[kL4Off + 1] = static_cast<std::uint8_t>(ext_port & 0xFF);
  return true;
}

}  // namespace mflow::nf
