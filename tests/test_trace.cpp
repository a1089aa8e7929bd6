// src/trace: tracer buffers, sampling, registry, latency attribution
// (phases must partition end-to-end latency exactly), exporter schemas, the
// rt-engine absorb path, and the disabled-tracing overhead guard.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "experiment/scenario.hpp"
#include "rt/engine.hpp"
#include "stack/stage.hpp"
#include "trace/attribution.hpp"
#include "trace/export.hpp"
#include "trace/registry.hpp"

namespace mflow {
namespace {

// --- minimal JSON parser (validation only; no external deps) ---------------

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;
  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  const JsonObject& object() const { return std::get<JsonObject>(v); }
  const JsonArray& array() const { return std::get<JsonArray>(v); }
  double number() const { return std::get<double>(v); }
  const std::string& string() const { return std::get<std::string>(v); }
  const JsonValue* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = object().find(key);
    return it == object().end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  std::string error() const {
    return "JSON parse error at byte " + std::to_string(pos_);
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool value(JsonValue& out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': {
        std::string str;
        if (!string(str)) return false;
        out.v = std::move(str);
        return true;
      }
      case 't': out.v = true; return literal("true");
      case 'f': out.v = false; return literal("false");
      case 'n': out.v = nullptr; return literal("null");
      default: return number(out);
    }
  }
  bool object(JsonValue& out) {
    JsonObject obj;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      out.v = std::move(obj);
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue val;
      if (!value(val)) return false;
      obj.emplace(std::move(key), std::move(val));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        out.v = std::move(obj);
        return true;
      }
      return false;
    }
  }
  bool array(JsonValue& out) {
    JsonArray arr;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      out.v = std::move(arr);
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue val;
      if (!value(val)) return false;
      arr.push_back(std::move(val));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        out.v = std::move(arr);
        return true;
      }
      return false;
    }
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      out.push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return false;
    try {
      out.v = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- tracer basics ----------------------------------------------------------

TEST(Tracer, RecordsAndSortsAcrossTracks) {
  trace::Tracer tr({.enabled = true});
  tr.packet(trace::EventKind::kStageEnter, 300, 2, 1, 0, 0);
  tr.packet(trace::EventKind::kWireArrival, 100, -1, 1, 0, 0);
  tr.packet(trace::EventKind::kRingDequeue, 200, 1, 1, 0, 0);
  const auto evs = tr.sorted_events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].kind, trace::EventKind::kWireArrival);
  EXPECT_EQ(evs[1].kind, trace::EventKind::kRingDequeue);
  EXPECT_EQ(evs[2].kind, trace::EventKind::kStageEnter);
  EXPECT_EQ(tr.recorded(), 3u);
}

TEST(Tracer, SamplePeriodSkipsPacketsButNotMarks) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = 4;
  trace::Tracer tr(cfg);
  for (std::uint64_t seq = 0; seq < 8; ++seq)
    tr.packet(trace::EventKind::kWireArrival, 10 * seq, -1, 1, seq, 0);
  tr.mark(trace::EventKind::kIrqRaise, 5, 1, 0);
  const auto evs = tr.sorted_events();
  // seq 0 and 4 survive, plus the mark.
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_TRUE(tr.sampled(0));
  EXPECT_FALSE(tr.sampled(3));
  EXPECT_TRUE(tr.sampled(4));
}

TEST(Tracer, RingBufferOverwritesOldest) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 8;
  trace::Tracer tr(cfg);
  for (std::uint64_t seq = 0; seq < 20; ++seq)
    tr.packet(trace::EventKind::kWireArrival, seq, -1, 1, seq, 0);
  const auto evs = tr.sorted_events();
  ASSERT_EQ(evs.size(), 8u);
  EXPECT_EQ(evs.front().seq, 12u);  // oldest retained
  EXPECT_EQ(evs.back().seq, 19u);
  EXPECT_EQ(tr.overwritten(), 12u);
}

TEST(Tracer, AbsorbMergesThreadBuffers) {
  trace::Tracer tr({.enabled = true});
  tr.packet(trace::EventKind::kWireArrival, 50, -1, 1, 0, 0);
  std::vector<trace::TraceEvent> buf(2);
  buf[0].ts = 10;
  buf[0].kind = trace::EventKind::kRingDequeue;
  buf[1].ts = 90;
  buf[1].kind = trace::EventKind::kCopyDone;
  tr.absorb(std::move(buf));
  const auto evs = tr.sorted_events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].kind, trace::EventKind::kRingDequeue);
  EXPECT_EQ(evs[1].kind, trace::EventKind::kWireArrival);
  EXPECT_EQ(evs[2].kind, trace::EventKind::kCopyDone);
}

TEST(Tracer, ActiveFollowsSetCurrent) {
  EXPECT_EQ(trace::current(), nullptr);
  trace::Tracer tr({.enabled = true});
  trace::set_current(&tr);
  if (trace::compiled_in()) {
    EXPECT_EQ(trace::active(), &tr);
  } else {
    EXPECT_EQ(trace::active(), nullptr);
  }
  trace::set_current(nullptr);
  EXPECT_EQ(trace::active(), nullptr);
}

TEST(Registry, CountersGaugesAndSnapshot) {
  trace::Registry reg;
  reg.add("a.count");
  reg.add("a.count", 4);
  reg.set_counter("b.total", 10);
  reg.set_gauge("c.rate", 2.5);
  EXPECT_EQ(reg.counter("a.count"), 5u);
  EXPECT_EQ(reg.counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("c.rate"), 2.5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("a.count"), 5u);
  EXPECT_EQ(snap.counter("b.total"), 10u);
  EXPECT_DOUBLE_EQ(snap.gauge("c.rate"), 2.5);
  reg.clear();
  EXPECT_EQ(reg.counter("a.count"), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
}

// trace::stage_short_name duplicates stack::stage_name (trace sits below the
// stack layer); this pins the two tables together.
TEST(Attribution, StageShortNamesMatchStackStageNames) {
  for (int id = 0; id <= 9; ++id) {
    EXPECT_EQ(
        trace::stage_short_name(static_cast<std::uint64_t>(id)),
        stack::stage_name(static_cast<stack::StageId>(id)))
        << "stage id " << id;
  }
  EXPECT_EQ(trace::stage_short_name(0xFF), "rt");
}

TEST(Attribution, SyntheticJourneyPartitionsExactly) {
  trace::Tracer tr({.enabled = true});
  const std::uint64_t f = 7, s = 3;
  tr.packet(trace::EventKind::kWireArrival, 1000, -1, f, s, 0);
  tr.packet(trace::EventKind::kRingEnqueue, 1000, -1, f, s, 0);
  tr.packet(trace::EventKind::kRingDequeue, 1400, 1, f, s, 0);
  tr.packet(trace::EventKind::kSkbAlloc, 1650, 1, f, s, 0, 0, 250);
  tr.packet(trace::EventKind::kEnqueue, 1700, 1, f, s, 0, 1);
  tr.packet(trace::EventKind::kStageEnter, 1800, 1, f, s, 0, 1);
  tr.packet(trace::EventKind::kStageExit, 2100, 1, f, s, 0, 1, 300);
  tr.packet(trace::EventKind::kSocketEnqueue, 2200, 1, f, s, 0);
  tr.packet(trace::EventKind::kReaderPop, 2900, 0, f, s, 0);
  tr.packet(trace::EventKind::kCopyStart, 3000, 0, f, s, 0);
  tr.packet(trace::EventKind::kCopyDone, 3500, 0, f, s, 0, 0, 500);

  const auto journeys = trace::build_journeys(tr);
  ASSERT_EQ(journeys.size(), 1u);
  const auto& j = journeys[0];
  EXPECT_TRUE(j.complete);
  EXPECT_EQ(j.e2e, 2500);
  sim::Time total = 0;
  for (const auto& [name, ns] : j.phases) total += ns;
  EXPECT_EQ(total, j.e2e);  // exact partition, not approximate
  EXPECT_EQ(j.phase_ns("ring_wait"), 400);
  EXPECT_EQ(j.phase_ns("svc:driver"), 250);
  EXPECT_EQ(j.phase_ns("svc:gro"), 300);
  EXPECT_EQ(j.phase_ns("socket_wait"), 700);
  EXPECT_EQ(j.phase_ns("copy"), 500);
  EXPECT_EQ(j.phase_ns("other"), 0);
}

// --- full-scenario integration ---------------------------------------------

exp::ScenarioConfig traced_scenario(exp::Mode mode) {
  exp::ScenarioConfig cfg;
  cfg.mode = mode;
  cfg.warmup = sim::ms(2);
  cfg.measure = sim::ms(5);
  cfg.trace.enabled = true;
  return cfg;
}

TEST(ScenarioTrace, PhasesPartitionEndToEndForEveryPacket) {
  if (!trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  const auto res = exp::run_scenario(traced_scenario(exp::Mode::kVanilla));
  ASSERT_NE(res.tracer, nullptr);
  const auto journeys = trace::build_journeys(*res.tracer);
  std::uint64_t complete = 0;
  for (const auto& j : journeys) {
    if (!j.complete) continue;
    ++complete;
    sim::Time total = 0;
    for (const auto& [name, ns] : j.phases) total += ns;
    // Acceptance bound is 1%; the gap partition makes it exact.
    ASSERT_EQ(total, j.e2e)
        << "flow " << j.key.flow << " seq " << j.key.seq;
    EXPECT_GT(j.e2e, 0);
  }
  EXPECT_GT(complete, 100u);
  EXPECT_FALSE(res.phases.empty());
  EXPECT_GT(res.phases.end_to_end.count(), 0u);
  EXPECT_GT(res.stats.counter("nic.wire_packets"), 0u);
  EXPECT_GT(res.stats.counter("socket.delivered_skbs"), 0u);
  EXPECT_GT(res.stats.gauge("goodput_gbps"), 0.0);
}

TEST(ScenarioTrace, MflowRunHasSplitAndMergeEvents) {
  if (!trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  const auto res = exp::run_scenario(traced_scenario(exp::Mode::kMflow));
  ASSERT_NE(res.tracer, nullptr);
  EXPECT_GT(res.stats.counter("split.dispatched"), 0u);
  std::set<trace::EventKind> kinds;
  for (const auto& ev : res.tracer->sorted_events()) kinds.insert(ev.kind);
  EXPECT_TRUE(kinds.count(trace::EventKind::kSplitDecision));
  EXPECT_TRUE(kinds.count(trace::EventKind::kSplitDeposit));
  EXPECT_TRUE(kinds.count(trace::EventKind::kReasmHold));
  EXPECT_TRUE(kinds.count(trace::EventKind::kReasmRelease));
  EXPECT_TRUE(kinds.count(trace::EventKind::kIrqRaise));
  // split_queue residency shows up as a named phase.
  bool has_split_queue = false;
  for (const auto& name : res.phases.phase_order)
    if (name == "split_queue") has_split_queue = true;
  EXPECT_TRUE(has_split_queue);
}

// Pins the traced model: a change that keeps every end-to-end output but
// moves a per-packet charge or record to another vnow() (or drops one) moves
// these. Record counts are per EventKind over the retained events; each
// attribution phase is pinned by its p50 and p99 in ns. Recorded before stage
// transitions resolved once per same-flow run.
struct PhasePin {
  std::uint64_t p50, p99;
};

void expect_trace_pinned(const exp::ScenarioResult& res,
                         const std::map<std::string, std::uint64_t>& kinds,
                         const std::map<std::string, PhasePin>& phases,
                         const char* name) {
  ASSERT_NE(res.tracer, nullptr) << name;
  std::map<std::string, std::uint64_t> got_kinds;
  for (const auto& ev : res.tracer->sorted_events())
    ++got_kinds[std::string(trace::event_kind_name(ev.kind))];
  EXPECT_EQ(got_kinds, kinds) << name;
  std::map<std::string, PhasePin> got_phases;
  for (const auto& [phase, h] : res.phases.phases)
    got_phases[phase] = PhasePin{h.p50(), h.p99()};
  ASSERT_EQ(got_phases.size(), phases.size()) << name;
  for (const auto& [phase, want] : phases) {
    const auto it = got_phases.find(phase);
    ASSERT_NE(it, got_phases.end()) << name << ": no phase " << phase;
    EXPECT_EQ(it->second.p50, want.p50) << name << " " << phase << " p50";
    EXPECT_EQ(it->second.p99, want.p99) << name << " " << phase << " p99";
  }
}

TEST(ScenarioTrace, PinnedPhases) {
  if (!trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  // des-mflow-tcp as the repo benchmark traces it (every 16th packet).
  exp::ScenarioConfig tcp;
  tcp.seed = 1;
  tcp.mode = exp::Mode::kMflow;
  tcp.message_size = 65536;
  tcp.warmup = sim::ms(10);
  tcp.measure = sim::ms(100);
  tcp.trace.enabled = true;
  tcp.trace.sample_period = 16;
  expect_trace_pinned(
      exp::run_scenario(tcp),
      {{"copy_done", 7614}, {"copy_start", 7614}, {"enqueue", 41657},
       {"handoff", 13848}, {"irq_raise", 3462}, {"reasm_hold", 6107},
       {"reasm_release", 7614}, {"ring_dequeue", 27696},
       {"ring_enqueue", 13848}, {"skb_alloc", 13848},
       {"split_decision", 13848}, {"split_deposit", 13848},
       {"stage_enter", 41654}, {"stage_exit", 41654},
       {"wire_arrival", 13848}},
      {{"copy", {2208, 2208}}, {"queue", {33280, 56832}},
       {"reader_proc", {920, 920}}, {"reasm_hold", {17664, 62976}},
       {"ring_wait", {4000, 16000}}, {"split_queue", {1840, 12160}},
       {"svc:bridge", {150, 150}}, {"svc:driver", {150, 150}},
       {"svc:gro", {91, 91}}, {"svc:ip", {250, 250}},
       {"svc:ip_outer", {250, 250}}, {"svc:veth", {202, 202}},
       {"svc:vxlan", {1776, 1776}}},
      "des-mflow-tcp");
  // Three flows through FALCON's per-flow pipelines: every skb crosses cores.
  exp::ScenarioConfig falcon;
  falcon.seed = 1;
  falcon.mode = exp::Mode::kFalconFun;
  falcon.message_size = 65536;
  falcon.num_flows = 3;
  falcon.warmup = sim::ms(2);
  falcon.measure = sim::ms(10);
  falcon.trace.enabled = true;
  expect_trace_pinned(
      exp::run_scenario(falcon),
      {{"copy_done", 3158}, {"copy_start", 3158}, {"enqueue", 39078},
       {"handoff", 26464}, {"reader_pop", 3158}, {"ring_dequeue", 20160},
       {"ring_enqueue", 20166}, {"skb_alloc", 20160},
       {"socket_enqueue", 3158}, {"stage_enter", 39084},
       {"stage_exit", 39084}, {"wire_arrival", 20166}},
      {{"copy", {2208, 2208}}, {"queue", {1490944, 1523712}},
       {"ring_wait", {1424, 1523712}}, {"socket_wait", {3360, 9600}},
       {"svc:bridge", {150, 150}}, {"svc:driver", {250, 250}},
       {"svc:gro", {91, 91}}, {"svc:ip", {250, 250}},
       {"svc:ip_outer", {250, 250}}, {"svc:tcp", {920, 920}},
       {"svc:veth", {202, 202}}, {"svc:vxlan", {808, 1776}}},
      "falcon-fun-3tcp");
}

// The overhead guard: identical fig08-style runs with tracing enabled vs
// disabled must agree on goodput within 2% (acceptance bound; the DES is
// deterministic in virtual time, so they in fact agree exactly).
TEST(ScenarioTrace, OverheadGuardDisabledTracingChangesNothing) {
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kMflow;
  cfg.warmup = sim::ms(2);
  cfg.measure = sim::ms(5);
  cfg.trace.enabled = false;
  const auto off = exp::run_scenario(cfg);
  cfg.trace.enabled = true;
  const auto on = exp::run_scenario(cfg);
  ASSERT_GT(off.goodput_gbps, 0.0);
  const double delta =
      std::abs(on.goodput_gbps - off.goodput_gbps) / off.goodput_gbps;
  EXPECT_LE(delta, 0.02);
  EXPECT_EQ(off.messages, on.messages);  // virtual time is unperturbed
}

// --- exporters --------------------------------------------------------------

TEST(Export, ChromeJsonIsValidAndWellFormed) {
  if (!trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  auto cfg = traced_scenario(exp::Mode::kMflow);
  cfg.trace.sample_period = 8;  // keep the document parseable in-test
  const auto res = exp::run_scenario(cfg);
  ASSERT_NE(res.tracer, nullptr);
  std::ostringstream os;
  trace::export_chrome_json(*res.tracer, os);
  const std::string text = os.str();

  JsonParser parser(text);
  JsonValue doc;
  ASSERT_TRUE(parser.parse(doc)) << parser.error();
  ASSERT_TRUE(doc.is_object());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array().empty());

  std::set<std::string> phases_seen;
  std::size_t flow_starts = 0, flow_finishes = 0, spans = 0;
  for (const JsonValue& ev : events->array()) {
    ASSERT_TRUE(ev.is_object());
    const JsonValue* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    const std::string& phase = ph->string();
    phases_seen.insert(phase);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    if (phase == "M") {
      ASSERT_NE(ev.find("name"), nullptr);
      continue;
    }
    const JsonValue* ts = ev.find("ts");
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->is_number());
    ASSERT_GE(ts->number(), 0.0);
    if (phase == "X") {
      ++spans;
      const JsonValue* dur = ev.find("dur");
      ASSERT_NE(dur, nullptr);
      ASSERT_TRUE(dur->is_number());
      ASSERT_GT(dur->number(), 0.0);
    } else if (phase == "s" || phase == "t" || phase == "f") {
      ASSERT_NE(ev.find("id"), nullptr);
      if (phase == "s") ++flow_starts;
      if (phase == "f") ++flow_finishes;
    } else {
      ASSERT_EQ(phase, "i") << "unexpected event phase " << phase;
    }
  }
  EXPECT_TRUE(phases_seen.count("M"));  // core-track metadata present
  EXPECT_GT(spans, 0u);                 // stage service spans present
  EXPECT_GT(flow_starts, 0u);           // packet flow arrows present
  EXPECT_GT(flow_finishes, 0u);
}

TEST(Export, CsvHasHeaderAndOneRowPerEvent) {
  trace::Tracer tr({.enabled = true});
  tr.packet(trace::EventKind::kWireArrival, 100, -1, 1, 0, 0);
  tr.packet(trace::EventKind::kCopyDone, 300, 0, 1, 0, 0, 0, 50);
  std::ostringstream os;
  trace::export_csv(tr, os);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "ts_ns,core,kind,flow,seq,microflow,aux,dur_ns");
  std::size_t rows = 0;
  while (std::getline(is, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 2u);
}

// --- rt engine (real threads) ----------------------------------------------

TEST(RtTrace, EngineAbsorbsThreadLocalBuffers) {
  if (!trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  trace::Tracer tr({.enabled = true});
  trace::set_current(&tr);
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  rt::Engine engine(cfg);
  const auto res = engine.run(2000);
  trace::set_current(nullptr);
  EXPECT_TRUE(res.in_order);
  const auto evs = tr.sorted_events();
  ASSERT_FALSE(evs.empty());
  std::uint64_t deposits = 0, releases = 0, rt_spans = 0;
  for (const auto& ev : evs) {
    if (ev.kind == trace::EventKind::kSplitDeposit) ++deposits;
    if (ev.kind == trace::EventKind::kReasmRelease) ++releases;
    if (ev.kind == trace::EventKind::kStageExit) {
      EXPECT_EQ(ev.aux, 0xFFu);
      ++rt_spans;
    }
  }
  EXPECT_EQ(deposits, 2000u);
  EXPECT_EQ(releases, res.packets);
  EXPECT_EQ(rt_spans, 2000u);
}

}  // namespace
}  // namespace mflow

// remove_counter/remove_gauge exist for flow expiry: the monitor retracts
// a dead flow's rate gauges so the stat surface stays bounded under churn.
TEST(Registry, RemoveRetractsStats) {
  mflow::trace::Registry reg;
  reg.add("a.count");
  reg.set_gauge("b.rate", 1.0);
  reg.set_gauge("c.rate", 2.0);
  EXPECT_EQ(reg.num_counters(), 1u);
  EXPECT_EQ(reg.num_gauges(), 2u);
  EXPECT_TRUE(reg.remove_gauge("b.rate"));
  EXPECT_FALSE(reg.remove_gauge("b.rate"));
  EXPECT_EQ(reg.num_gauges(), 1u);
  EXPECT_TRUE(reg.remove_counter("a.count"));
  EXPECT_FALSE(reg.remove_counter("absent"));
  EXPECT_EQ(reg.num_counters(), 0u);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge("c.rate"), 2.0);
  EXPECT_EQ(snap.counter("a.count"), 0u);
}
