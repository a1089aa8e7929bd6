// Sharded, expiration-aware flow table: the bounded per-flow state plane
// of the DES split point (BatchAssigner), the NF layer, the steering pins
// and the rt engine's flow tracking and NF state. The Controller's flow
// records (policy.hpp) keep this table's shards, eviction and expiry
// order in dense arrays of their own.
//
// Design (after nfos's map + double-chain pair): the key space is
// partitioned into power-of-two shards by hash; each shard owns
//   - an open-addressing bucket array of slot indices (linear probing,
//     backward-shift deletion — churn is delete-heavy, so tombstones would
//     rot the probe distance),
//   - a slot allocator (parallel key/recency arrays + a free-index stack),
//   - a recency chain (intrusive doubly-linked list over slot indices,
//     oldest at the head) that doubles as the expiration chain.
// Buckets grow geometrically up to the configured capacity so an idle
// table costs little; at capacity the shard evicts its oldest entry, so
// occupancy is bounded by construction, never by caller discipline.
//
// Recency is explicit and *monotone*: upsert() stamps new entries and
// touch() refreshes existing ones (or upsert_apply() does both in one probe
// when its callback returns true), but a touch with a timestamp older than
// the entry's is a no-op. That keeps the chain sorted by last-seen even
// when touches arrive out of order, which is what makes expire_idle()
// deterministic: it pops from the head while `last_seen <= now - ttl` and
// stops at the first survivor.
//
// Values live in a per-shard vector parallel to the slot arrays. find() /
// upsert() return pointers/references into it: they remain valid until the
// next mutating call on the same shard.
//
// A table has one user at a time: it takes no lock and holds no atomic. A
// caller that shares a table across threads serializes every call on it
// with its own lock (the rt engine's shared-lock NF strategy does).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/flow.hpp"
#include "sim/time.hpp"

namespace mflow::control {

struct FlowTableParams {
  /// Shard count (rounded up to a power of two). Shards partition the
  /// capacity, the LRU eviction (a full shard evicts its own oldest entry)
  /// and the iteration order of collect_idle()/for_each().
  std::size_t shards = 8;
  /// Hard bound on resident entries (split evenly across shards). Inserts
  /// past it evict the least-recently-touched entry of the full shard.
  std::size_t capacity = 1 << 20;
  /// Idle horizon for expire_idle()/collect_idle(): an entry whose
  /// last-touch is `ttl` or more behind `now` is expirable. 0 disables
  /// time-based expiry (the table still enforces `capacity`).
  sim::Time ttl = 0;
};

namespace detail {

/// splitmix64 finalizer — cheap, and FlowIds are often small consecutive
/// integers, so the raw key would pile every flow into one shard.
std::uint64_t mix64(std::uint64_t x);

/// One shard's index machinery: key -> slot mapping, slot allocation and
/// the recency chain. Knows nothing about values; the FlowTable template
/// keeps a parallel value vector aligned with the slots handed out here.
class ShardIndex {
 public:
  static constexpr std::int32_t kNil = -1;

  void init(std::size_t max_entries);

  /// Slot holding `key`, or kNil.
  std::int32_t find(net::FlowId key) const;

  /// Find-or-allocate. New entries are stamped `last_seen = now` and
  /// appended to the chain tail; existing entries are returned untouched
  /// (recency refresh is touch()'s job). Returns kNil when the shard is at
  /// capacity — the caller evicts oldest() and retries.
  std::int32_t acquire(net::FlowId key, std::int64_t now, bool& inserted);

  /// Monotone recency refresh: no-op (returns false) when `now` is older
  /// than the slot's stamp, else restamps and moves the slot to the chain
  /// tail. Monotonicity keeps the chain sorted by last_seen.
  bool touch(std::int32_t slot, std::int64_t now);

  /// Unmap `key`, unlink it from the chain and free its slot (backward-
  /// shift deletion closes the probe hole). Returns the freed slot so the
  /// caller can reclaim the parallel value, or kNil if absent.
  std::int32_t erase(net::FlowId key);

  std::int32_t oldest() const { return head_; }
  std::int32_t chain_next(std::int32_t slot) const { return next_[slot]; }
  net::FlowId key_at(std::int32_t slot) const { return keys_[slot]; }
  std::int64_t last_seen(std::int32_t slot) const { return last_seen_[slot]; }
  std::size_t size() const { return size_; }
  void clear();

 private:
  void unlink(std::int32_t slot);
  void append(std::int32_t slot);
  void rehash(std::size_t new_buckets);
  void maybe_grow();

  std::vector<std::int32_t> buckets_;  // bucket -> slot, kNil = empty
  std::vector<net::FlowId> keys_;      // slot -> key
  std::vector<std::int64_t> last_seen_;
  std::vector<std::int32_t> prev_, next_;  // recency chain links
  std::vector<std::int32_t> free_;         // recycled slot indices
  std::int32_t head_ = kNil, tail_ = kNil;
  std::size_t mask_ = 0;         // buckets_.size() - 1
  std::size_t size_ = 0;
  std::size_t cap_ = 0;          // max slots
  std::size_t max_buckets_ = 0;  // bucket array ceiling (load <= 1/2 at cap)
};

}  // namespace detail

template <typename V>
class FlowTable {
 public:
  explicit FlowTable(FlowTableParams params = {}) : params_(params) {
    std::size_t n = 1;
    while (n < std::max<std::size_t>(1, params_.shards)) n <<= 1;
    const std::size_t per_shard =
        std::max<std::size_t>(1, (params_.capacity + n - 1) / n);
    shards_.resize(n);
    for (Shard& sh : shards_) sh.idx.init(per_shard);
    shard_mask_ = n - 1;
    capacity_ = per_shard * n;
  }
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// Lookup without refreshing recency. The pointer stays valid until the
  /// next mutating call on this key's shard.
  V* find(net::FlowId key) {
    Shard& sh = shard_for(key);
    const std::int32_t slot = sh.idx.find(key);
    return slot == detail::ShardIndex::kNil ? nullptr : &sh.values[slot];
  }
  const V* find(net::FlowId key) const {
    return const_cast<FlowTable*>(this)->find(key);
  }
  bool contains(net::FlowId key) const { return find(key) != nullptr; }

  /// Recency stamp of `key` (its last insert or effective touch), or
  /// nullopt if absent.
  std::optional<sim::Time> last_seen(net::FlowId key) const {
    const Shard& sh = shard_for(key);
    const std::int32_t slot = sh.idx.find(key);
    if (slot == detail::ShardIndex::kNil) return std::nullopt;
    return sh.idx.last_seen(slot);
  }

  /// Find-or-insert. New entries are value-initialized and stamped at
  /// `now`; existing entries keep their recency (touch() refreshes it).
  /// When the key's shard is full its least-recently-touched entry is
  /// evicted through the reclaim callback to make room — occupancy is
  /// bounded no matter what the caller does. The returned reference is
  /// invalidated by the next mutating call on this key's shard.
  V& upsert(net::FlowId key, sim::Time now, bool* inserted_out = nullptr) {
    V* vp = nullptr;
    const bool evicted = upsert_apply(
        key, now, [&vp](V& v) { vp = &v; }, inserted_out);
    if (evicted && reclaim_) {
      // The reclaim callback ran after fn and may have re-entered the
      // table, relocating this shard's values — re-resolve.
      if (V* re = find(key); re != nullptr) vp = re;
    }
    return *vp;
  }

  /// Find-or-insert and mutate in one probe: `fn(V&)` runs on the entry
  /// before anything else can move the shard's values. When fn returns
  /// bool, `true` also refreshes the entry's recency at `now` (touch()
  /// semantics) — one probe for what would otherwise be an upsert and a
  /// touch. A resident key builds no V; only an insert (and the eviction
  /// it forces) does. Capacity eviction routes through the reclaim
  /// callback after fn has run; returns true when the insert evicted the
  /// shard's LRU entry.
  template <typename Fn>
  bool upsert_apply(net::FlowId key, sim::Time now, Fn&& fn,
                    bool* inserted_out = nullptr) {
    Shard& sh = shard_for(key);
    net::FlowId evicted_key{};
    std::optional<V> evicted;
    bool inserted = false;
    std::int32_t slot = sh.idx.acquire(key, now, inserted);
    if (slot == detail::ShardIndex::kNil) {
      const std::int32_t victim = sh.idx.oldest();
      evicted_key = sh.idx.key_at(victim);
      evicted.emplace(std::move(sh.values[victim]));
      sh.values[victim] = V();
      sh.idx.erase(evicted_key);
      --size_;
      slot = sh.idx.acquire(key, now, inserted);
    }
    if (static_cast<std::size_t>(slot) >= sh.values.size())
      sh.values.resize(static_cast<std::size_t>(slot) + 1);
    if (inserted) peak_ = std::max(peak_, ++size_);
    V& value = sh.values[static_cast<std::size_t>(slot)];
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, V&>, bool>) {
      if (fn(value)) sh.idx.touch(slot, now);
    } else {
      fn(value);
    }
    if (evicted) {
      ++evictions_;
      if (reclaim_) reclaim_(evicted_key, std::move(*evicted));
    }
    if (inserted_out != nullptr) *inserted_out = inserted;
    return evicted.has_value();
  }

  /// Monotone recency refresh; false if the key is absent (a touch never
  /// resurrects an expired entry) or `now` is older than its stamp.
  bool touch(net::FlowId key, sim::Time now) {
    Shard& sh = shard_for(key);
    const std::int32_t slot = sh.idx.find(key);
    if (slot == detail::ShardIndex::kNil) return false;
    return sh.idx.touch(slot, now);
  }

  bool erase(net::FlowId key) {
    Shard& sh = shard_for(key);
    const std::int32_t slot = sh.idx.erase(key);
    if (slot == detail::ShardIndex::kNil) return false;
    sh.values[static_cast<std::size_t>(slot)] = V();
    --size_;
    return true;
  }

  /// Keys idle for >= ttl at `now`, in deterministic (shard, oldest-first)
  /// order. Non-destructive: callers that must veto reclamation (e.g. one
  /// waiting on a drain) peek with this and erase() selectively.
  void collect_idle(sim::Time now, std::vector<net::FlowId>& out) const {
    if (params_.ttl <= 0) return;
    const sim::Time deadline = now - params_.ttl;
    for (const Shard& sh : shards_) {
      for (std::int32_t s = sh.idx.oldest(); s != detail::ShardIndex::kNil;
           s = sh.idx.chain_next(s)) {
        if (sh.idx.last_seen(s) > deadline) break;  // chain is sorted
        out.push_back(sh.idx.key_at(s));
      }
    }
  }

  /// Remove every entry idle for >= ttl at `now`; `fn(key, V&&)` runs for
  /// each AFTER the sweep has finished (safe to re-enter the table).
  /// Returns the number expired.
  template <typename Fn>
  std::size_t expire_idle(sim::Time now, Fn&& fn) {
    if (params_.ttl <= 0) return 0;
    const sim::Time deadline = now - params_.ttl;
    std::vector<std::pair<net::FlowId, V>> out;
    for (Shard& sh : shards_) {
      std::int32_t s;
      while ((s = sh.idx.oldest()) != detail::ShardIndex::kNil &&
             sh.idx.last_seen(s) <= deadline) {
        const net::FlowId key = sh.idx.key_at(s);
        out.emplace_back(key, std::move(sh.values[s]));
        sh.values[static_cast<std::size_t>(s)] = V();
        sh.idx.erase(key);
        --size_;
      }
    }
    expirations_ += out.size();
    for (auto& [key, value] : out) fn(key, std::move(value));
    return out.size();
  }
  std::size_t expire_idle(sim::Time now) {
    return expire_idle(now, [](net::FlowId, V&&) {});
  }

  /// Visit every entry as fn(key, const V&), shard by shard in recency
  /// order (oldest first). Deterministic for a deterministic operation
  /// history.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& sh : shards_) {
      for (std::int32_t s = sh.idx.oldest(); s != detail::ShardIndex::kNil;
           s = sh.idx.chain_next(s)) {
        fn(sh.idx.key_at(s), sh.values[static_cast<std::size_t>(s)]);
      }
    }
  }

  /// Receives entries displaced by capacity eviction (NOT by erase() or
  /// expire_idle(), whose callers already hold the state in hand). Called
  /// after the insert that displaced them has finished.
  void set_reclaim(std::function<void(net::FlowId, V&&)> fn) {
    reclaim_ = std::move(fn);
  }

  void clear() {
    for (Shard& sh : shards_) {
      sh.idx.clear();
      sh.values.clear();
    }
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  /// Effective bound (capacity rounded up to shards * per-shard).
  std::size_t capacity() const { return capacity_; }
  sim::Time ttl() const { return params_.ttl; }
  /// High-water resident entries — "occupancy bounded by live flows, not
  /// cumulative flows" is asserted against this.
  std::size_t peak_size() const { return peak_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

 private:
  struct Shard {
    detail::ShardIndex idx;
    std::vector<V> values;
  };

  // Buckets inside the shard probe on the low hash bits; shard selection
  // uses an upper slice so the two stay independent.
  std::size_t shard_of(net::FlowId key) const {
    return (detail::mix64(key) >> 32) & shard_mask_;
  }
  Shard& shard_for(net::FlowId key) { return shards_[shard_of(key)]; }
  const Shard& shard_for(net::FlowId key) const {
    return shards_[shard_of(key)];
  }

  FlowTableParams params_;
  std::vector<Shard> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t capacity_ = 0;
  std::function<void(net::FlowId, V&&)> reclaim_;
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace mflow::control
