#include "control/policy.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <string_view>
#include <utility>

namespace mflow::control {

namespace {

/// `flow.<id>.rate_pps` and `flow.<id>.rate_bps`, built on the stack when
/// a registry is attached: the records carry no names.
class GaugeName {
 public:
  explicit GaugeName(net::FlowId flow) {
    constexpr std::string_view kPrefix = "flow.";
    char* p = std::copy(kPrefix.begin(), kPrefix.end(), buf_);
    p = std::to_chars(p, buf_ + sizeof buf_, flow).ptr;
    prefix_ = static_cast<std::size_t>(p - buf_);
  }
  std::string_view pps() { return with(".rate_pps"); }
  std::string_view bps() { return with(".rate_bps"); }

 private:
  std::string_view with(std::string_view suffix) {
    std::copy(suffix.begin(), suffix.end(), buf_ + prefix_);
    return {buf_, prefix_ + suffix.size()};
  }

  char buf_[48];  // "flow." + 20 digits + ".rate_pps"
  std::size_t prefix_ = 0;
};

}  // namespace

std::uint32_t ScalingPolicy::degree_for(FlowClass cls, double rate_pps,
                                        std::uint32_t max_degree,
                                        std::uint32_t current_degree) const {
  if (cls == FlowClass::kMouse) return 0;
  double lanes = 1.0;
  if (params_.per_core_pps > 0.0) {
    lanes = std::ceil(rate_pps / params_.per_core_pps);
  }
  std::uint32_t want = static_cast<std::uint32_t>(
      std::clamp(lanes, 1.0, static_cast<double>(max_degree)));
  want = std::max(want, std::min(params_.min_elephant_degree, max_degree));
  // Shrink deadband: stay at the current degree unless the rate fits the
  // smaller lane count with shrink_margin headroom.
  if (want < current_degree && params_.per_core_pps > 0.0 &&
      rate_pps > static_cast<double>(want) * params_.per_core_pps *
                     params_.shrink_margin)
    return std::min(current_degree, max_degree);
  return want;
}

Controller::Controller(ControllerParams params, Source source,
                       CapacityTarget* target)
    : params_(params),
      source_(std::move(source)),
      target_(target),
      policy_(params.scaling) {
  // The shards and their capacity are a FlowTable's, so per-shard LRU
  // eviction picks the same victims.
  const FlowTableParams& table = params_.monitor.table;
  std::size_t n = 1;
  while (n < std::max<std::size_t>(1, table.shards)) n <<= 1;
  shard_mask_ = static_cast<std::uint32_t>(n - 1);
  shard_capacity_ = std::max<std::size_t>(1, (table.capacity + n - 1) / n);
  shard_live_.assign(n, 0);
  lru_.resize(n);
  shard_start_scratch_.assign(n + 1, 0);
}

Controller::Controller(ControllerParams params, ValueSource source,
                       CapacityTarget* target)
    : Controller(
          params,
          [src = std::move(source)](std::vector<FlowTotals>& out) {
            out = src();
          },
          target) {}

void Controller::tick(sim::Time now) {
  assert(now >= now_ && "Controller::tick: time went backwards");
  now_ = now;
  const std::uint32_t max_degree = target_->max_degree();
  totals_.clear();
  source_(totals_);
  // The report follows first-seen order, so the next flow is expected at
  // the record after the last one; anything else (a flow that skipped
  // ticks, a reordered report, a new flow) is one index lookup.
  std::size_t next = 0;
  for (const FlowTotals& t : totals_) {
    std::optional<std::pair<net::FlowId, std::uint32_t>> evicted;
    std::size_t i = next;
    if (i >= keys_.size() || keys_[i] != t.flow || !live(i)) {
      const std::uint64_t hash = detail::mix64(t.flow);
      i = index_.find(t.flow, hash);
      if (i == PositionIndex::kNone) i = insert(t.flow, hash, now, evicted);
    }
    next = i + 1;
    FlowCtl& fc = records_[i];
    // Recency tracks ACTIVITY, so a flow reported at frozen totals still
    // goes idle and expires.
    const bool active =
        fc.rates.record(t.segs, t.bytes, now, params_.monitor, samples_);
    const double pps = fc.rates.rate_pps();
    if (registry_ != nullptr) publish_gauges(t.flow, fc.rates);
    if (fc.hysteresis.update(pps, now, params_.classifier)) ++transitions_;
    const std::uint32_t current = fc.degree;
    const std::uint32_t want = policy_.degree_for(fc.hysteresis.committed,
                                                  pps, max_degree, current);
    fc.degree = want;
    // A touch as FlowTable::touch makes it: monotone, and an equal stamp
    // keeps the record's place.
    Recency& r = recency_[i];
    if (active && now > r.last_seen) r = Recency{now, next_order_++};
    if (evicted) forget(evicted->first, evicted->second);
    if (current == want) continue;  // mice staying unsplit land here too
    history_.push_back(RescaleEvent{now, t.flow, current, want});
    target_->set_flow_degree(t.flow, want);
  }
  if (params_.monitor.table.ttl > 0) expire_flows(now);
  if (2 * dead_ > live_) compact();
  if (registry_ != nullptr) {
    std::uint64_t lanes = 0;
    for (std::size_t i = 0; i < records_.size(); ++i)
      if (live(i)) lanes += records_[i].degree;
    registry_->set_gauge("control.elephants",
                         static_cast<double>(elephants()));
    registry_->set_gauge("control.active_lanes", static_cast<double>(lanes));
    registry_->set_counter("control.rescales", history_.size());
    registry_->set_gauge("control.tracked_flows",
                         static_cast<double>(live_));
    registry_->set_counter("control.flows_expired", expired_);
  }
}

std::uint32_t Controller::insert(
    net::FlowId flow, std::uint64_t hash, sim::Time now,
    std::optional<std::pair<net::FlowId, std::uint32_t>>& evicted) {
  // FlowTable's shard: an upper slice of the hash the index probes on.
  const std::uint32_t shard =
      static_cast<std::uint32_t>(hash >> 32) & shard_mask_;
  if (shard_live_[shard] == shard_capacity_) {
    const std::uint32_t victim = lru_of(shard);
    evicted.emplace(keys_[victim], records_[victim].degree);
    kill(victim);
  }
  const auto pos = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(flow);
  recency_.push_back(Recency{now, next_order_++});
  bound_block(pos, now);
  FlowCtl& fc = records_.emplace_back();
  fc.shard = shard;
  index_.insert(flow, hash, pos);
  ++shard_live_[shard];
  peak_ = std::max(peak_, ++live_);
  return pos;
}

std::uint32_t Controller::lru_of(std::uint32_t shard) {
  LruSnapshot& snap = lru_[shard];
  for (;; ++snap.next) {
    if (snap.next == snap.keys.size()) {
      // Every entry is spent: sort the shard's live records afresh. The
      // shard is full, so there is at least one.
      snap.keys.clear();
      snap.next = 0;
      for (std::size_t i = 0; i < records_.size(); ++i)
        if (live(i) && records_[i].shard == shard)
          snap.keys.push_back(chain_key(static_cast<std::uint32_t>(i)));
      std::sort(snap.keys.begin(), snap.keys.end());
    }
    // Stamps are unique, so a matching one is the same record, untouched
    // since the snapshot.
    const ChainKey& k = snap.keys[snap.next];
    if (recency_[k.pos].order == k.order) return k.pos;
  }
}

void Controller::kill(std::size_t i) {
  index_.erase(keys_[i]);
  records_[i].rates.release(samples_);
  --shard_live_[records_[i].shard];
  recency_[i] = Recency{kDeadStamp, kDeadOrder};
  --live_;
  ++dead_;
}

void Controller::compact() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (!live(i)) continue;
    if (out != i) {
      keys_[out] = keys_[i];
      recency_[out] = recency_[i];
      records_[out] = records_[i];
      index_.move(keys_[out], static_cast<std::uint32_t>(out));
    }
    ++out;
  }
  keys_.resize(out);
  recency_.resize(out);
  records_.resize(out);
  dead_ = 0;
  for (LruSnapshot& snap : lru_) {  // their positions are stale
    snap.keys.clear();
    snap.next = 0;
  }
  block_min_.clear();
  for (std::size_t i = 0; i < out; ++i)
    bound_block(i, recency_[i].last_seen);
}

void Controller::bound_block(std::size_t pos, sim::Time stamp) {
  if (pos % kBlock == 0)
    block_min_.push_back(stamp);
  else
    block_min_.back() = std::min(block_min_.back(), stamp);
}

void Controller::sort_by_chain(std::vector<ChainKey>& keys) const {
  std::vector<std::uint32_t>& start = shard_start_scratch_;
  std::fill(start.begin(), start.end(), 0);
  for (const ChainKey& k : keys) ++start[k.shard + 1];
  for (std::size_t s = 1; s < start.size(); ++s) start[s] += start[s - 1];
  if (bucket_scratch_.size() < keys.size()) bucket_scratch_.resize(keys.size());
  for (const ChainKey& k : keys) bucket_scratch_[start[k.shard]++] = k;
  std::copy_n(bucket_scratch_.begin(), keys.size(), keys.begin());
  // start[s] is now where shard s ends.
  auto first = keys.begin();
  for (std::size_t s = 0; s + 1 < start.size(); ++s) {
    const auto last = keys.begin() + start[s];
    if (!std::is_sorted(first, last)) std::sort(first, last);
    first = last;
  }
}

void Controller::publish_gauges(net::FlowId flow, const RateWindow& rates) {
  GaugeName name(flow);
  registry_->set_gauge(name.pps(), rates.rate_pps());
  registry_->set_gauge(name.bps(), rates.rate_bps());
}

void Controller::expire_flows(sim::Time now) {
  const sim::Time deadline = now - params_.monitor.table.ttl;
  // Every idle record is a candidate. Blocks whose bound shows no idle
  // record are skipped; a scanned block's bound becomes exact.
  const Recency* rec = recency_.data();
  const std::size_t n = recency_.size();
  idle_scratch_.clear();
  for (std::size_t b = 0; b < block_min_.size(); ++b) {
    if (block_min_[b] > deadline) continue;
    sim::Time low = kDeadStamp;
    for (std::size_t i = b * kBlock; i < std::min(n, (b + 1) * kBlock); ++i) {
      low = std::min(low, rec[i].last_seen);
      if (rec[i].last_seen <= deadline)
        idle_scratch_.push_back(chain_key(static_cast<std::uint32_t>(i)));
    }
    block_min_[b] = low;  // a candidate kept by a veto keeps it low
  }
  // Asked for release in collect_idle()'s (shard, oldest-first) order.
  sort_by_chain(idle_scratch_);
  for (const ChainKey& c : idle_scratch_) {
    const std::uint32_t i = c.pos;
    const net::FlowId flow = keys_[i];
    FlowCtl& fc = records_[i];
    // A still-split idle flow (an elephant that went silent) is demoted
    // first so the data path runs the normal rescale-drain protocol; its
    // state is reclaimed once the drain completes.
    if (fc.degree > 0) {
      demote(flow, fc.degree);
      fc.degree = 0;
    }
    if (!target_->release_flow(flow)) {
      // In-flight work (e.g. unsplit hold not yet drained): keep the
      // record and retry next tick — reclamation is atomic.
      ++release_retries_;
      continue;
    }
    retract_gauges(flow);
    kill(i);
    ++expired_;
  }
}

void Controller::demote(net::FlowId flow, std::uint32_t degree) {
  history_.push_back(RescaleEvent{now_, flow, degree, 0});
  target_->set_flow_degree(flow, 0);
}

void Controller::forget(net::FlowId flow, std::uint32_t degree) {
  if (degree > 0) demote(flow, degree);
  retract_gauges(flow);
}

void Controller::retract_gauges(net::FlowId flow) {
  if (registry_ == nullptr) return;
  GaugeName name(flow);
  registry_->remove_gauge(name.pps());
  registry_->remove_gauge(name.bps());
}

bool Controller::erase(net::FlowId flow) {
  const std::uint32_t i = index_.find(flow);
  if (i == PositionIndex::kNone) return false;
  forget(flow, records_[i].degree);
  kill(i);
  return true;
}

void Controller::clear() {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (!live(i)) continue;
    forget(keys_[i], records_[i].degree);
    kill(i);
  }
  compact();
}

std::uint32_t Controller::degree_of(net::FlowId flow) const {
  const std::uint32_t i = index_.find(flow);
  return i == PositionIndex::kNone ? 0 : records_[i].degree;
}

std::uint64_t Controller::elephants() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const FlowCtl& fc = records_[i];
    if (live(i) && fc.degree > 0 &&
        fc.hysteresis.committed == FlowClass::kElephant)
      ++n;
  }
  return n;
}

double Controller::rate_pps(net::FlowId flow) const {
  const std::uint32_t i = index_.find(flow);
  return i == PositionIndex::kNone ? 0.0 : records_[i].rates.rate_pps();
}

double Controller::rate_bps(net::FlowId flow) const {
  const std::uint32_t i = index_.find(flow);
  return i == PositionIndex::kNone ? 0.0 : records_[i].rates.rate_bps();
}

double Controller::aggregate_rate_pps() const {
  // Summed in a FlowTable's for_each order, so the double comes out bit
  // for bit as it did when the records lived in one.
  order_scratch_.clear();
  for (std::size_t i = 0; i < records_.size(); ++i)
    if (live(i)) order_scratch_.push_back(chain_key(static_cast<std::uint32_t>(i)));
  sort_by_chain(order_scratch_);
  double total = 0.0;
  for (const ChainKey& c : order_scratch_)
    total += records_[c.pos].rates.rate_pps();
  return total;
}

std::vector<net::FlowId> Controller::flows() const {
  std::vector<net::FlowId> out;
  out.reserve(live_);
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (live(i)) out.push_back(keys_[i]);
  return out;
}

FlowClass Controller::classify(net::FlowId flow) const {
  const std::uint32_t i = index_.find(flow);
  return i == PositionIndex::kNone ? FlowClass::kMouse
                                   : records_[i].hysteresis.committed;
}

// --- PositionIndex ------------------------------------------------------------

std::size_t Controller::PositionIndex::slot_of(net::FlowId flow,
                                               std::uint64_t hash) const {
  std::size_t s = hash & mask_;
  while (entries_[s].pos != kNone && entries_[s].flow != flow)
    s = (s + 1) & mask_;
  return s;
}

std::uint32_t Controller::PositionIndex::find(net::FlowId flow,
                                              std::uint64_t hash) const {
  if (size_ == 0) return kNone;
  return entries_[slot_of(flow, hash)].pos;
}

void Controller::PositionIndex::insert(net::FlowId flow, std::uint64_t hash,
                                       std::uint32_t pos) {
  if ((size_ + 1) * 2 > entries_.size()) grow();
  entries_[slot_of(flow, hash)] = Entry{flow, pos};
  ++size_;
}

void Controller::PositionIndex::move(net::FlowId flow, std::uint32_t pos) {
  entries_[slot_of(flow, detail::mix64(flow))].pos = pos;
}

void Controller::PositionIndex::erase(net::FlowId flow) {
  std::size_t hole = slot_of(flow, detail::mix64(flow));
  entries_[hole].pos = kNone;
  --size_;
  // Backward-shift deletion: pull back every later entry of the probe run
  // whose home slot lies cyclically at or before the hole.
  for (std::size_t j = (hole + 1) & mask_; entries_[j].pos != kNone;
       j = (j + 1) & mask_) {
    const std::size_t home = detail::mix64(entries_[j].flow) & mask_;
    const bool movable = hole <= j ? (home <= hole || home > j)
                                   : (home <= hole && home > j);
    if (movable) {
      entries_[hole] = entries_[j];
      entries_[j].pos = kNone;
      hole = j;
    }
  }
}

void Controller::PositionIndex::grow() {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(std::max<std::size_t>(16, old.size() * 2),
                  Entry{0, kNone});
  mask_ = entries_.size() - 1;
  for (const Entry& e : old)
    if (e.pos != kNone) entries_[slot_of(e.flow, detail::mix64(e.flow))] = e;
}

}  // namespace mflow::control
