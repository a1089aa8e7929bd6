// Stateful-NF layer tests (src/nf): unit checks of the replicated pure
// computations (Maglev, NAT port/rewrite, firewall conntrack) and the
// property SCR rests on — merging per-core state replicas yields EXACTLY
// the state a single shared-lock oracle would hold, for any partition of
// the packet stream across cores, any per-core reordering, any lost
// subset, and a live rescale (repartition mid-stream). Plus end-to-end
// digest-equality runs through both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "experiment/scenario.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "nf/nf.hpp"
#include "rt/engine.hpp"
#include "util/rng.hpp"

using namespace mflow;

namespace {

net::FlowKey key_of(int i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(i)),
                      net::Ipv4Addr(10, 0, 2, 1),
                      static_cast<std::uint16_t>(40000 + i), 5000,
                      net::Ipv4Header::kProtoTcp};
}

}  // namespace

// --- Maglev ----------------------------------------------------------------

TEST(NfMaglev, DeterministicAndCoversEveryBackend) {
  const auto a = nf::MaglevTable::build(8, 251, 0xfeed);
  const auto b = nf::MaglevTable::build(8, 251, 0xfeed);
  ASSERT_EQ(a.size(), 251u);
  std::size_t total = 0, lo = 251, hi = 0;
  for (std::uint32_t be = 0; be < 8; ++be) {
    const std::size_t n = a.slots_of(be);
    EXPECT_GT(n, 0u) << "backend " << be << " owns no slots";
    total += n;
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_EQ(total, a.size());
  // Maglev's whole point: near-even slot ownership.
  EXPECT_LE(hi, 2 * lo);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(a.backend_for(key_of(i)), b.backend_for(key_of(i)));
}

TEST(NfMaglev, SeedChangesTheMapping) {
  const auto a = nf::MaglevTable::build(8, 251, 1);
  const auto b = nf::MaglevTable::build(8, 251, 2);
  int diff = 0;
  for (int i = 0; i < 64; ++i)
    diff += a.backend_for(key_of(i)) != b.backend_for(key_of(i));
  EXPECT_GT(diff, 0);
}

// --- dynamic NAT ------------------------------------------------------------

TEST(NfNat, PortDeterministicAndInRange) {
  nf::ChainConfig cfg;
  cfg.nat_port_base = 2048;
  cfg.nat_port_span = 1000;
  for (int i = 0; i < 256; ++i) {
    const auto p = nf::nat_port_for(cfg, key_of(i));
    EXPECT_GE(p, cfg.nat_port_base);
    EXPECT_LT(p, cfg.nat_port_base + cfg.nat_port_span);
    EXPECT_EQ(p, nf::nat_port_for(cfg, key_of(i)));  // pure in the key
  }
}

TEST(NfNat, RewritesRealHeaderBytes) {
  nf::ChainConfig cfg;
  net::FlowKey udp_key = key_of(3);
  udp_key.protocol = net::Ipv4Header::kProtoUdp;
  auto pkt = net::make_udp_datagram(udp_key, 1200);
  ASSERT_TRUE(nf::nat_rewrite(cfg, *pkt, 7777));
  const auto bytes = pkt->buf.data();
  const auto ip =
      net::Ipv4Header::decode(bytes.subspan(net::EthernetHeader::kSize));
  EXPECT_EQ(ip.src, cfg.nat_external);
  EXPECT_EQ(ip.protocol, net::Ipv4Header::kProtoUdp);
  EXPECT_EQ(ip.dst, udp_key.dst);  // destination untouched
  EXPECT_TRUE(net::Ipv4Header::verify(
      bytes.subspan(net::EthernetHeader::kSize)));  // checksum recomputed
  const auto udp = net::UdpHeader::decode(bytes.subspan(
      net::EthernetHeader::kSize + net::Ipv4Header::kSize));
  EXPECT_EQ(udp.src_port, 7777);
  EXPECT_EQ(udp.dst_port, udp_key.dst_port);
  // Flow METADATA stays: downstream delivery keys on it.
  EXPECT_EQ(pkt->flow, udp_key);

  auto tcp = net::make_tcp_segment(key_of(4), 0, 1000);
  ASSERT_TRUE(nf::nat_rewrite(cfg, *tcp, 4242));
  const auto th = net::TcpHeader::decode(tcp->buf.data().subspan(
      net::EthernetHeader::kSize + net::Ipv4Header::kSize));
  EXPECT_EQ(th.src_port, 4242);

  auto empty = net::make_packet();  // no parseable headers
  EXPECT_FALSE(nf::nat_rewrite(cfg, *empty, 1));
}

// The incremental checksum update (RFC 1624) against the decode / set-src /
// encode reference, over random TCP and UDP headers and random external
// addresses: byte-identical, and the rewritten header verifies.
TEST(NfNat, IncrementalChecksumMatchesFullReencode) {
  constexpr std::size_t kIpOff = net::EthernetHeader::kSize;
  constexpr std::size_t kL4Off = kIpOff + net::Ipv4Header::kSize;
  util::Rng rng(0x1624);
  net::Packet pkt;
  for (int n = 0; n < 100000; ++n) {
    const bool tcp = (n & 1) != 0;
    net::Ipv4Header ip;
    ip.protocol = tcp ? net::Ipv4Header::kProtoTcp : net::Ipv4Header::kProtoUdp;
    ip.src = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
    ip.dst = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
    ip.ttl = static_cast<std::uint8_t>(rng.uniform(256));
    ip.identification = static_cast<std::uint16_t>(rng.uniform(65536));
    ip.tos = static_cast<std::uint8_t>(rng.uniform(256));
    ip.total_length = static_cast<std::uint16_t>(rng.uniform(65536));
    ip.dont_fragment = rng.chance(0.5);
    nf::ChainConfig cfg;
    cfg.nat_external = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
    const auto port = static_cast<std::uint16_t>(rng.uniform(65536));

    pkt.buf.reset();
    net::EthernetHeader{}.encode(pkt.buf.append(net::EthernetHeader::kSize));
    ip.encode(pkt.buf.append(net::Ipv4Header::kSize));
    for (auto& b : pkt.buf.append(tcp ? net::TcpHeader::kSize
                                      : net::UdpHeader::kSize))
      b = static_cast<std::uint8_t>(rng.uniform(256));

    std::vector<std::uint8_t> want(pkt.buf.data().begin(),
                                   pkt.buf.data().end());
    const std::span<std::uint8_t> ref(want);
    net::Ipv4Header re = net::Ipv4Header::decode(ref.subspan(kIpOff));
    re.src = cfg.nat_external;
    re.encode(ref.subspan(kIpOff));
    ref[kL4Off] = static_cast<std::uint8_t>(port >> 8);
    ref[kL4Off + 1] = static_cast<std::uint8_t>(port & 0xFF);

    ASSERT_TRUE(nf::nat_rewrite(cfg, pkt, port)) << "header " << n;
    const auto got = pkt.buf.data();
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "header " << n;
    ASSERT_TRUE(net::Ipv4Header::verify(got.subspan(kIpOff))) << "header " << n;
  }
}

// Every rejection returns false and leaves the bytes exactly as they were.
TEST(NfNat, RejectionsLeaveBytesUntouched) {
  nf::ChainConfig cfg;
  const auto rejected = [&cfg](net::Packet& pkt) {
    const std::vector<std::uint8_t> before(pkt.buf.data().begin(),
                                           pkt.buf.data().end());
    if (nf::nat_rewrite(cfg, pkt, 4242)) return false;
    const auto after = pkt.buf.data();
    return std::equal(after.begin(), after.end(), before.begin(),
                      before.end());
  };
  net::FlowKey udp = key_of(5);
  udp.protocol = net::Ipv4Header::kProtoUdp;

  auto encapsulated = net::make_udp_datagram(udp, 100);
  net::vxlan_encap(*encapsulated, net::Ipv4Addr(192, 168, 1, 2),
                   net::Ipv4Addr(192, 168, 1, 3), 42);
  EXPECT_TRUE(rejected(*encapsulated));

  // Eth + IPv4 + 3 bytes: one short of the L4 source port.
  auto shorty = net::make_packet();
  net::EthernetHeader{}.encode(shorty->buf.append(net::EthernetHeader::kSize));
  net::Ipv4Header ip;
  ip.src = udp.src;
  ip.dst = udp.dst;
  ip.encode(shorty->buf.append(net::Ipv4Header::kSize));
  shorty->buf.append(3);
  EXPECT_TRUE(rejected(*shorty));

  auto ipv6 = net::make_udp_datagram(udp, 100);
  ipv6->buf.data()[12] = 0x86;  // ethertype 0x86DD
  ipv6->buf.data()[13] = 0xDD;
  EXPECT_TRUE(rejected(*ipv6));

  auto icmp = net::make_udp_datagram(udp, 100);
  icmp->buf.data()[net::EthernetHeader::kSize + 9] = 1;  // protocol ICMP
  EXPECT_TRUE(rejected(*icmp));
}

// --- firewall conntrack ------------------------------------------------------

TEST(NfFirewall, PhaseDerivedMonotonicallyFromFlags) {
  nf::ChainConfig cfg;
  cfg.chain = {nf::Kind::kFirewall};
  nf::FlowState st;
  nf::PacketView v;
  v.flow = key_of(1);
  v.wire_bytes = 60;

  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kNew);
  v.tcp_flags = nf::kTcpFlagSyn;
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, st);
  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kSynSent);
  v.tcp_flags = nf::kTcpFlagSyn | nf::kTcpFlagAck;
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, st);
  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kEstablished);
  v.tcp_flags = nf::kTcpFlagAck;  // data
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, st);
  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kEstablished);
  v.tcp_flags = nf::kTcpFlagFin | nf::kTcpFlagAck;
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, st);
  EXPECT_EQ(st.fw.phase(), nf::FwPhase::kClosing);
  EXPECT_EQ(st.fw.segs, 4u);

  // Unsolicited bare data only: never leaves kNew.
  nf::FlowState cold;
  v.tcp_flags = nf::kTcpFlagAck;
  nf::apply(cfg, nullptr, nf::Kind::kFirewall, v, cold);
  EXPECT_EQ(cold.fw.phase(), nf::FwPhase::kNew);
}

TEST(NfFirewall, ViewDecodesRealTcpFlagBytes) {
  auto pkt = net::make_tcp_segment(key_of(2), 0, 0);
  // Wire TCP flags byte: offset 13 into the TCP header (FIN=0x01, SYN=0x02,
  // ACK=0x10). Patch the real bytes and check view_of decodes them.
  auto bytes = pkt->buf.data();
  std::uint8_t* flags =
      &bytes[net::EthernetHeader::kSize + net::Ipv4Header::kSize + 13];
  *flags = 0x02;  // SYN
  EXPECT_EQ(nf::view_of(*pkt).tcp_flags, nf::kTcpFlagSyn);
  *flags = 0x12;  // SYN|ACK
  EXPECT_EQ(nf::view_of(*pkt).tcp_flags, nf::kTcpFlagSyn | nf::kTcpFlagAck);
  *flags = 0x11;  // FIN|ACK
  EXPECT_EQ(nf::view_of(*pkt).tcp_flags, nf::kTcpFlagFin | nf::kTcpFlagAck);
  EXPECT_EQ(nf::view_of(*pkt).flow, key_of(2));
}

// --- the SCR exactness property ---------------------------------------------
//
// For a random packet stream: process it (a) in order through ONE state
// table (the shared-lock oracle) and (b) split across K per-core replica
// tables under a random partition, each replica's share randomly reordered,
// with a repartition ("live rescale") half-way — then merge the replicas.
// The merged state must be bit-identical to the oracle, per flow, and the
// fold digests must agree. Loss: a random subset of packets is dropped from
// BOTH sides (a lost packet is lost before the NF everywhere).
TEST(NfScr, MergeEqualsSharedLockOracleUnderSplitReorderLossRescale) {
  nf::ChainConfig cfg;
  cfg.chain = {nf::Kind::kNat, nf::Kind::kFirewall, nf::Kind::kLoadBalancer};
  const auto maglev =
      nf::MaglevTable::build(cfg.lb_backends, cfg.lb_table_size, cfg.lb_seed);
  constexpr int kFlows = 6;
  constexpr int kPackets = 400;

  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);

    // Generate the stream: (flow id, view) with plausible TCP flag order
    // not required — the lattice is order-insensitive by design, and the
    // oracle defines whatever "correct" is.
    struct Synth {
      net::FlowId fid;
      nf::PacketView view;
    };
    std::vector<Synth> stream;
    stream.reserve(kPackets);
    for (int i = 0; i < kPackets; ++i) {
      if (rng.chance(0.1)) continue;  // loss: dropped before any NF
      const auto fid = static_cast<net::FlowId>(rng.uniform(kFlows));
      nf::PacketView v;
      v.flow = key_of(static_cast<int>(fid));
      v.wire_bytes = 54 + static_cast<std::uint32_t>(rng.uniform(1446));
      v.segs = 1 + static_cast<std::uint32_t>(rng.uniform(4));  // GRO skb
      const std::uint8_t flag_sets[] = {
          nf::kTcpFlagSyn, nf::kTcpFlagSyn | nf::kTcpFlagAck,
          nf::kTcpFlagAck, nf::kTcpFlagFin | nf::kTcpFlagAck, 0};
      v.tcp_flags = flag_sets[rng.uniform(5)];
      stream.push_back({fid, v});
    }

    const auto run_chain = [&](const Synth& s, nf::FlowState& st) {
      for (const auto kind : cfg.chain)
        nf::apply(cfg, &maglev, kind, s.view, st);
    };

    // (a) shared-lock oracle: one table, in arrival order.
    std::map<net::FlowId, nf::FlowState> oracle;
    for (const auto& s : stream) run_chain(s, oracle[s.fid]);

    // (b) SCR replicas under two partition regimes (live rescale half-way:
    // the split degree AND the packet->core mapping both change).
    const std::size_t k1 = 1 + rng.uniform(4);
    const std::size_t k2 = 1 + rng.uniform(4);
    const std::size_t cores = std::max(k1, k2);
    std::vector<std::vector<Synth>> shares(cores);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::size_t k = i < stream.size() / 2 ? k1 : k2;
      shares[rng.uniform(k)].push_back(stream[i]);
    }
    std::vector<std::map<net::FlowId, nf::FlowState>> replicas(cores);
    for (std::size_t c = 0; c < cores; ++c) {
      std::shuffle(shares[c].begin(), shares[c].end(), rng);  // reorder
      for (const auto& s : shares[c]) run_chain(s, replicas[c][s.fid]);
    }
    std::map<net::FlowId, nf::FlowState> merged;
    for (const auto& rep : replicas)
      for (const auto& [fid, st] : rep) nf::merge(merged[fid], st);

    ASSERT_EQ(merged.size(), oracle.size()) << "seed " << seed;
    for (const auto& [fid, st] : oracle)
      EXPECT_EQ(merged.at(fid), st) << "seed " << seed << " flow " << fid;
    std::uint64_t ho = 0, hm = 0;
    for (const auto& [fid, st] : oracle) ho = nf::fold_digest(ho, fid, st);
    for (const auto& [fid, st] : merged) hm = nf::fold_digest(hm, fid, st);
    EXPECT_EQ(ho, hm) << "seed " << seed;
  }
}

// --- the run fold ------------------------------------------------------------
//
// The rt workers commit a run of one flow's packets in one step:
// nf::RunFold adds up the run's packets and nf::commit applies the sums and
// OR'd firewall classes. For random TCP streams (SYN, SYN+ACK, FIN, data,
// GRO skbs of several segments) cut into random runs, under several chains,
// the committed state must equal per-packet nf::apply field by field.
TEST(NfRunFold, CommitEqualsPerPacketApplyFieldByField) {
  const std::vector<std::vector<nf::Kind>> chains = {
      {nf::Kind::kNat, nf::Kind::kFirewall, nf::Kind::kLoadBalancer},
      {nf::Kind::kFirewall},
      {nf::Kind::kLoadBalancer, nf::Kind::kNat},
      {nf::Kind::kFirewall, nf::Kind::kFirewall}};
  const std::uint8_t flag_sets[] = {
      nf::kTcpFlagSyn, nf::kTcpFlagSyn | nf::kTcpFlagAck, nf::kTcpFlagFin,
      nf::kTcpFlagFin | nf::kTcpFlagAck, nf::kTcpFlagAck, 0};
  for (const auto& chain : chains) {
    nf::ChainConfig cfg;
    cfg.chain = chain;
    const auto maglev =
        nf::MaglevTable::build(cfg.lb_backends, cfg.lb_table_size, cfg.lb_seed);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      util::Rng rng(seed);
      std::map<net::FlowId, nf::FlowState> applied, folded;
      nf::RunFold run;
      net::FlowId run_flow = 0;
      std::size_t runs = 0;
      const auto commit = [&] {
        if (run.segs == 0) return;
        nf::commit(cfg, &maglev, key_of(static_cast<int>(run_flow)), run,
                   folded[run_flow]);
        run = {};
        ++runs;
      };
      net::FlowId fid = 1;
      for (int i = 0; i < 300; ++i) {
        if (rng.chance(0.25)) fid = 1 + rng.uniform(3);  // sticky flows
        nf::PacketView v;
        v.flow = key_of(static_cast<int>(fid));
        v.wire_bytes = 54 + static_cast<std::uint32_t>(rng.uniform(1446));
        v.segs = 1 + static_cast<std::uint32_t>(rng.uniform(4));
        v.tcp_flags = flag_sets[rng.uniform(std::size(flag_sets))];
        for (const auto kind : cfg.chain)
          nf::apply(cfg, &maglev, kind, v, applied[fid]);
        // A flow change ends the run; a random cut ends it early.
        if (fid != run_flow || rng.chance(0.2)) commit();
        run_flow = fid;
        run.add(v);
      }
      commit();
      const std::string where =
          nf::chain_name(chain) + " seed " + std::to_string(seed);
      ASSERT_GT(runs, 30u) << where;
      ASSERT_EQ(folded.size(), applied.size()) << where;
      for (const auto& [fid, want] : applied) {
        const nf::FlowState& got = folded.at(fid);
        EXPECT_EQ(got.nat.ext_port, want.nat.ext_port) << where;
        EXPECT_EQ(got.nat.segs, want.nat.segs) << where;
        EXPECT_EQ(got.nat.bytes, want.nat.bytes) << where;
        EXPECT_EQ(got.fw.flags, want.fw.flags) << where;
        EXPECT_EQ(got.fw.segs, want.fw.segs) << where;
        EXPECT_EQ(got.fw.bytes, want.fw.bytes) << where;
        EXPECT_EQ(got.lb.backend, want.lb.backend) << where;
        EXPECT_EQ(got.lb.segs, want.lb.segs) << where;
        EXPECT_EQ(got.lb.bytes, want.lb.bytes) << where;
      }
    }
  }
}

// --- DES engine: strategies agree end-to-end --------------------------------
//
// Paced lossless TCP through the full simulated stack with MFLOW splitting
// on; the senders quiesce half-way through the window so the in-flight tail
// drains. All three strategies then process the identical delivered
// multiset and must report the identical merged-state digest.
TEST(NfScenario, StateDigestEqualAcrossStrategiesUnderSplit) {
  std::vector<std::uint64_t> digests;
  std::uint64_t packets = 0;
  for (const auto strat :
       {nf::Strategy::kSharedLock, nf::Strategy::kFlowAffinity,
        nf::Strategy::kScr}) {
    exp::ScenarioConfig cfg;
    cfg.mode = exp::Mode::kMflow;
    cfg.protocol = net::Ipv4Header::kProtoTcp;
    cfg.num_flows = 2;
    cfg.message_size = 65536;
    cfg.measure = sim::ms(10);
    cfg.pace_per_message = sim::ms(1);
    for (int f = 0; f < cfg.num_flows; ++f)
      cfg.rate_changes.push_back(
          {f, cfg.warmup + cfg.measure / 2, sim::seconds(10)});
    cfg.nf.enabled = true;
    cfg.nf.strategy = strat;
    cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                          nf::Kind::kLoadBalancer};
    const auto res = exp::run_scenario(cfg);
    EXPECT_GT(res.nf_packets, 0u);
    EXPECT_EQ(res.nf_flows_live, static_cast<std::uint64_t>(cfg.num_flows));
    digests.push_back(res.nf_state_digest);
    packets = res.nf_packets;
  }
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]) << "scr diverged from shared-lock oracle"
                                    << " after " << packets << " packets";
}

// TTL sweep: once the senders stop, entries idle past the TTL and the
// periodic sweep retires them (counted, and retracted from the live table).
TEST(NfScenario, IdleFlowStateExpiresUnderTtlSweep) {
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kMflow;
  cfg.protocol = net::Ipv4Header::kProtoTcp;
  cfg.num_flows = 2;
  cfg.message_size = 65536;
  cfg.measure = sim::ms(10);
  cfg.pace_per_message = sim::ms(1);
  for (int f = 0; f < cfg.num_flows; ++f)
    cfg.rate_changes.push_back(
        {f, cfg.warmup + cfg.measure / 2, sim::seconds(10)});
  cfg.nf.enabled = true;
  cfg.nf.strategy = nf::Strategy::kScr;
  cfg.nf.chain.chain = {nf::Kind::kFirewall};
  cfg.nf.state_ttl = sim::ms(1);
  cfg.nf.sweep_interval = sim::ms(1);
  const auto res = exp::run_scenario(cfg);
  EXPECT_GT(res.nf_flows_expired, 0u);
  EXPECT_LT(res.nf_flows_live, res.nf_flows_peak);
}

// --- rt engine: real threads ------------------------------------------------
//
// Lossless config (no push-drop, no faults): every generated packet is
// delivered, so the merged state must account for exactly the delivered
// stream — and identically across all three strategies.
TEST(NfRtEngine, ConservationAndDigestEqualAcrossStrategies) {
  constexpr std::uint64_t kTotal = 4000;
  std::vector<std::uint64_t> digests;
  for (const auto strat :
       {nf::Strategy::kSharedLock, nf::Strategy::kFlowAffinity,
        nf::Strategy::kScr}) {
    rt::EngineConfig rc;
    rc.workers = 2;
    rc.batch_size = 64;
    rc.cost_ns_per_packet = 0;
    rc.max_push_spins = 0;  // lossless backpressure
    rc.overlay.enabled = true;
    rc.overlay.flows = 4;
    rc.nf.enabled = true;
    rc.nf.strategy = strat;
    rc.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                         nf::Kind::kLoadBalancer};
    const auto res = rt::Engine(rc).run(kTotal);
    EXPECT_EQ(res.packets, kTotal);
    EXPECT_EQ(res.nf_packets, kTotal);
    EXPECT_EQ(res.nf_nat_rewrites, kTotal);  // overlay: real bytes rewritten
    EXPECT_EQ(res.nf_nat_rewrite_failures, 0u);
    std::uint64_t segs = 0;
    for (const auto& [fid, st] : res.nf_state) segs += st.fw.segs;
    EXPECT_EQ(segs, kTotal) << "state lost or double-counted packets";
    digests.push_back(res.nf_state_digest);
  }
  ASSERT_EQ(digests.size(), 3u);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

// Workers resolve replica-table state once per run of equal (flow, batch).
// The SCR digest must still equal the one-worker run and the shared-lock
// run (which keeps its per-packet locked update) at batch sizes that are
// not multiples of the 128-packet chunk, so a micro-flow ends mid-chunk or
// spans chunks:
//  - overlay: the rt-overlay-nf shape (cache, flow table, live rescales);
//  - churn: state tables smaller than the flows created, so inserts evict.
//    A churned flow never returns once the next flows start, and the rings
//    bound how far one worker runs ahead of another (about 2300 packets,
//    23 batches at batch size 100) well below a flow's 32 batches, so
//    every table evicts only finished flows and all keep the same newest.
TEST(NfRtEngine, PerRunStateMatchesOneWorkerAndSharedLockDigests) {
  // 38500 packets end on a churned flow of two batches at both batch
  // sizes, so both workers hold the newest flows.
  constexpr std::uint64_t kTotal = 38500;
  constexpr std::size_t kStateCapacity = 3;
  for (const std::uint32_t batch : {100u, 300u}) {
    for (const bool churn : {false, true}) {
      const auto run = [&](std::size_t workers, nf::Strategy strat) {
        rt::EngineConfig rc;
        rc.workers = workers;
        rc.batch_size = batch;
        rc.cost_ns_per_packet = 0;
        rc.max_push_spins = 0;
        rc.flow_table.enabled = true;
        rc.nf.enabled = true;
        rc.nf.strategy = strat;
        rc.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                             nf::Kind::kLoadBalancer};
        if (churn) {
          rc.flow_table.flow_lifetime_batches = 32;
          rc.nf.state_capacity = kStateCapacity;
        } else {
          rc.overlay.enabled = true;
          rc.overlay.cache = true;
          rc.overlay.flows = 16;
          rc.rescales = {{kTotal / 3, 1}, {2 * kTotal / 3, 2}};
        }
        const auto res = rt::Engine(rc).run(kTotal);
        EXPECT_TRUE(res.in_order);
        EXPECT_EQ(res.packets, kTotal);
        EXPECT_EQ(res.nf_packets, kTotal);
        return res;
      };
      const auto scr = run(2, nf::Strategy::kScr);
      const auto one = run(1, nf::Strategy::kScr);
      const auto lock = run(2, nf::Strategy::kSharedLock);
      const std::string where = "batch " + std::to_string(batch) +
                                (churn ? " churn" : " overlay");
      EXPECT_EQ(scr.nf_state_digest, one.nf_state_digest) << where;
      EXPECT_EQ(scr.nf_state_digest, lock.nf_state_digest) << where;
      EXPECT_EQ(lock.nf_lock_acquires, kTotal) << where;
      if (churn) {
        EXPECT_EQ(one.nf_flows, kStateCapacity) << where;
        EXPECT_EQ(scr.nf_flows, kStateCapacity) << where;
      } else {
        EXPECT_EQ(scr.nf_flows, 16u) << where;
        EXPECT_EQ(scr.rescales_applied, 2u) << where;
        EXPECT_EQ(scr.nf_nat_rewrites, kTotal) << where;
      }
    }
  }
}

// With faults on, the NF sees SURVIVORS only: the state seg count must equal
// delivered packets, not generated ones.
TEST(NfRtEngine, StateCountsSurvivorsOnlyUnderLoss) {
  rt::EngineConfig rc;
  rc.workers = 2;
  rc.batch_size = 64;
  rc.cost_ns_per_packet = 0;
  rc.max_push_spins = 0;
  rc.fault_drop_rate = 0.05;
  rc.fault_seed = 7;
  rc.nf.enabled = true;
  rc.nf.strategy = nf::Strategy::kScr;
  rc.nf.chain.chain = {nf::Kind::kFirewall};
  const auto res = rt::Engine(rc).run(8000);
  EXPECT_LT(res.packets, 8000u);  // some were dropped
  std::uint64_t segs = 0;
  for (const auto& [fid, st] : res.nf_state) segs += st.fw.segs;
  EXPECT_EQ(segs, res.packets);
  EXPECT_EQ(res.nf_packets, res.packets);
}

// The merge ring sheds packets here: ring 64, a 16-yield deposit budget and
// a sink that stalls once, for 500 ms, after 1024 packets. A worker that
// finds its buffer ring full sheds after 16 yields, which on any plausibly
// loaded host ends far inside the stall (brief sleeps could be outlasted
// by the budget, so nothing was certain to shed). NF state is committed after
// the deposit, over the packets the ring accepted, so it counts exactly the
// delivered stream: nf_packets, the summed fw.segs and (shared lock) the
// lock count equal the delivered packets, and the engine's digest equals
// the one-table, in-order oracle run over the packets the sink received.
TEST(NfRtEngine, DepositShedsLeaveNoNfState) {
  constexpr std::uint64_t kTotal = 200000;
  for (const auto strat : {nf::Strategy::kScr, nf::Strategy::kSharedLock}) {
    rt::EngineConfig rc;
    rc.workers = 2;
    rc.batch_size = 256;
    rc.ring_capacity = 64;
    rc.cost_ns_per_packet = 0;
    rc.max_push_spins = 16;
    rc.overlay.enabled = true;
    rc.overlay.cache = true;
    rc.overlay.flows = 16;
    rc.nf.enabled = true;
    rc.nf.strategy = strat;
    rc.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                         nf::Kind::kLoadBalancer};
    const auto maglev = nf::MaglevTable::build(rc.nf.chain.lb_backends,
                                               rc.nf.chain.lb_table_size,
                                               rc.nf.chain.lb_seed);
    std::map<net::FlowId, nf::FlowState> oracle;
    std::uint64_t seen = 0;
    const auto res = rt::Engine(rc).run(kTotal, [&](const rt::RtPacket& p) {
      const nf::PacketView v = nf::view_of(*p.skb);
      for (const auto kind : rc.nf.chain.chain)
        nf::apply(rc.nf.chain, &maglev, kind, v, oracle[p.skb->flow_id]);
      if (++seen == 1024)
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
    });
    const std::string where(nf::strategy_name(strat));
    EXPECT_TRUE(res.in_order) << where;
    ASSERT_LT(res.packets, kTotal) << where << ": nothing was shed";
    EXPECT_GT(res.drops.merge_ring, 0u) << where;
    EXPECT_EQ(res.nf_packets, res.packets) << where;
    std::uint64_t segs = 0;
    for (const auto& [fid, st] : res.nf_state) segs += st.fw.segs;
    EXPECT_EQ(segs, res.packets) << where;
    if (strat == nf::Strategy::kSharedLock) {
      EXPECT_EQ(res.nf_lock_acquires, res.packets) << where;
    }
    std::uint64_t h = 0;
    for (const auto& [fid, st] : oracle) h = nf::fold_digest(h, fid, st);
    EXPECT_EQ(res.nf_state_digest, h) << where;
  }
}
