#include "control/flowtable.hpp"

namespace mflow::control::detail {

namespace {

constexpr std::int32_t kNil = ShardIndex::kNil;

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void ShardIndex::init(std::size_t max_entries) {
  cap_ = std::max<std::size_t>(1, max_entries);
  // Bucket ceiling keeps the load factor <= 1/2 even at full capacity, so
  // probe runs stay short; the array starts tiny and grows geometrically.
  max_buckets_ = pow2_at_least(cap_ * 2);
  buckets_.assign(std::min<std::size_t>(max_buckets_, 16), kNil);
  mask_ = buckets_.size() - 1;
  keys_.clear();
  last_seen_.clear();
  prev_.clear();
  next_.clear();
  free_.clear();
  head_ = tail_ = kNil;
  size_ = 0;
}

std::int32_t ShardIndex::find(net::FlowId key) const {
  if (size_ == 0) return kNil;
  std::size_t i = mix64(key) & mask_;
  while (true) {
    const std::int32_t s = buckets_[i];
    if (s == kNil) return kNil;
    if (keys_[static_cast<std::size_t>(s)] == key) return s;
    i = (i + 1) & mask_;
  }
}

std::int32_t ShardIndex::acquire(net::FlowId key, std::int64_t now,
                                 bool& inserted) {
  inserted = false;
  maybe_grow();
  std::size_t i = mix64(key) & mask_;
  while (buckets_[i] != kNil) {
    if (keys_[static_cast<std::size_t>(buckets_[i])] == key)
      return buckets_[i];
    i = (i + 1) & mask_;
  }
  std::int32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else if (keys_.size() < cap_) {
    slot = static_cast<std::int32_t>(keys_.size());
    keys_.push_back(0);
    last_seen_.push_back(0);
    prev_.push_back(kNil);
    next_.push_back(kNil);
  } else {
    return kNil;  // full: the caller evicts oldest() and retries
  }
  buckets_[i] = slot;
  keys_[static_cast<std::size_t>(slot)] = key;
  last_seen_[static_cast<std::size_t>(slot)] = now;
  append(slot);
  ++size_;
  inserted = true;
  return slot;
}

bool ShardIndex::touch(std::int32_t slot, std::int64_t now) {
  auto& stamp = last_seen_[static_cast<std::size_t>(slot)];
  if (now < stamp) return false;  // stale touch: keep the chain sorted
  // Equal stamps are no-ops, not reorders: a touch that replays the
  // entry's own time (the rt generator touches right after its upsert)
  // must not move it past entries with newer stamps, or the chain would
  // stop being sorted and expiry order would depend on the replay.
  if (now == stamp) return true;
  stamp = now;
  if (slot != tail_) {
    unlink(slot);
    append(slot);
  }
  return true;
}

std::int32_t ShardIndex::erase(net::FlowId key) {
  if (size_ == 0) return kNil;
  std::size_t i = mix64(key) & mask_;
  while (true) {
    const std::int32_t s = buckets_[i];
    if (s == kNil) return kNil;
    if (keys_[static_cast<std::size_t>(s)] == key) break;
    i = (i + 1) & mask_;
  }
  const std::int32_t slot = buckets_[i];
  unlink(slot);
  free_.push_back(slot);
  --size_;
  // Backward-shift deletion: walk the probe run after the hole and pull
  // back every entry whose ideal bucket lies cyclically at-or-before the
  // hole, so later lookups never hit a false empty.
  std::size_t hole = i;
  std::size_t j = i;
  while (true) {
    j = (j + 1) & mask_;
    const std::int32_t s = buckets_[j];
    if (s == kNil) break;
    const std::size_t ideal = mix64(keys_[static_cast<std::size_t>(s)]) & mask_;
    const bool movable = hole <= j ? (ideal <= hole || ideal > j)
                                   : (ideal <= hole && ideal > j);
    if (movable) {
      buckets_[hole] = s;
      hole = j;
    }
  }
  buckets_[hole] = kNil;
  return slot;
}

void ShardIndex::clear() {
  init(cap_);
}

void ShardIndex::unlink(std::int32_t slot) {
  const std::size_t s = static_cast<std::size_t>(slot);
  if (prev_[s] != kNil)
    next_[static_cast<std::size_t>(prev_[s])] = next_[s];
  else
    head_ = next_[s];
  if (next_[s] != kNil)
    prev_[static_cast<std::size_t>(next_[s])] = prev_[s];
  else
    tail_ = prev_[s];
  prev_[s] = next_[s] = kNil;
}

void ShardIndex::append(std::int32_t slot) {
  const std::size_t s = static_cast<std::size_t>(slot);
  prev_[s] = tail_;
  next_[s] = kNil;
  if (tail_ != kNil)
    next_[static_cast<std::size_t>(tail_)] = slot;
  else
    head_ = slot;
  tail_ = slot;
}

void ShardIndex::rehash(std::size_t new_buckets) {
  buckets_.assign(new_buckets, kNil);
  mask_ = new_buckets - 1;
  // Reinsert in chain order — deterministic, and every key gets a fresh
  // minimal probe run.
  for (std::int32_t s = head_; s != kNil;
       s = next_[static_cast<std::size_t>(s)]) {
    std::size_t i = mix64(keys_[static_cast<std::size_t>(s)]) & mask_;
    while (buckets_[i] != kNil) i = (i + 1) & mask_;
    buckets_[i] = s;
  }
}

void ShardIndex::maybe_grow() {
  if ((size_ + 1) * 2 > buckets_.size() && buckets_.size() < max_buckets_)
    rehash(buckets_.size() * 2);
}

}  // namespace mflow::control::detail
