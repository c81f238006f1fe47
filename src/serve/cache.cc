#include "serve/cache.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace hsis::serve {

namespace {

/// splitmix64 finalizer — cheap, well-distributed mixing for the hash
/// table.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Quantized image of one parameter. quantum == 0: the exact bit
/// pattern (with -0.0 folded into +0.0 so the two spellings of zero
/// share an entry); quantum > 0: the nearest lattice index, saturated
/// at the int64 range so absurd magnitudes cannot overflow into UB.
uint64_t QuantizeComponent(double value, double quantum) {
  if (quantum == 0) {
    return std::bit_cast<uint64_t>(value == 0.0 ? 0.0 : value);
  }
  double index = std::nearbyint(value / quantum);
  index = std::clamp(index, -9.0e18, 9.0e18);
  return static_cast<uint64_t>(static_cast<int64_t>(index));
}

/// Index slot layout: the low 40 bits hold ring position + 1 (0 marks
/// an empty slot), the high 24 the top of the key's hash, so most
/// probes past a foreign slot never touch the ring.
constexpr int kPositionBits = 40;
constexpr uint64_t kPositionMask = (uint64_t{1} << kPositionBits) - 1;
constexpr size_t kMinIndexSlots = 16;

uint64_t Tag(uint64_t hash) { return hash & ~kPositionMask; }
size_t Position(uint64_t slot) { return (slot & kPositionMask) - 1; }

}  // namespace

size_t HashKey::operator()(const QueryKey& key) const {
  uint64_t h = Mix64(key.benefit);
  h = Mix64(h ^ key.cheat_gain);
  h = Mix64(h ^ key.frequency);
  h = Mix64(h ^ key.penalty);
  h = Mix64(h ^ static_cast<uint64_t>(key.n));
  return static_cast<size_t>(h);
}

QueryKey MakeQueryKey(const QueryRequest& request, double quantum) {
  QueryKey key;
  key.benefit = QuantizeComponent(request.benefit, quantum);
  key.cheat_gain = QuantizeComponent(request.cheat_gain, quantum);
  key.frequency = QuantizeComponent(request.frequency, quantum);
  key.penalty = QuantizeComponent(request.penalty, quantum);
  key.n = request.n;
  return key;
}

QueryRequest SnapRequest(const QueryRequest& request, double quantum) {
  if (quantum == 0) return request;
  auto snap = [quantum](double value) {
    return std::nearbyint(value / quantum) * quantum;
  };
  QueryRequest snapped = request;
  snapped.benefit = std::max(0.0, snap(request.benefit));
  snapped.cheat_gain = snap(request.cheat_gain);
  snapped.frequency = std::clamp(snap(request.frequency), 0.0, 1.0);
  snapped.penalty = std::max(0.0, snap(request.penalty));
  // Snapping can collapse the F > B gap (both land on the same lattice
  // point); bump F to the next lattice point above B so every
  // equivalence class stays servable.
  if (snapped.cheat_gain <= snapped.benefit) {
    snapped.cheat_gain = snapped.benefit + quantum;
  }
  return snapped;
}

Result<AnswerCache> AnswerCache::Create(const CacheConfig& config) {
  if (!std::isfinite(config.quantum) || config.quantum < 0) {
    return Status::InvalidArgument(
        "CacheConfig.quantum must be finite and non-negative");
  }
  return AnswerCache(config.quantum, config.capacity);
}

size_t AnswerCache::Find(const QueryKey& key, uint64_t hash) const {
  const size_t mask = index_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = index_[i];
    if (slot == 0 ||
        (Tag(slot) == Tag(hash) && ring_[Position(slot)].key == key)) {
      return i;
    }
  }
}

void AnswerCache::Erase(size_t hole) {
  const size_t mask = index_.size() - 1;
  for (size_t next = (hole + 1) & mask; index_[next] != 0;
       next = (next + 1) & mask) {
    // The entry at `next` may fill the hole unless its home slot lies
    // (cyclically) after the hole.
    const size_t home = HashKey{}(ring_[Position(index_[next])].key) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = 0;
}

void AnswerCache::Grow() {
  index_.assign(std::max(kMinIndexSlots, 2 * index_.size()), 0);
  const size_t mask = index_.size() - 1;
  for (size_t position = 0; position < ring_.size(); ++position) {
    const uint64_t hash = HashKey{}(ring_[position].key);
    size_t i = hash & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = Tag(hash) | (position + 1);
  }
}

bool AnswerCache::Lookup(const QueryKey& key, QueryAnswer* answer) {
  if (!index_.empty()) {
    const uint64_t slot = index_[Find(key, HashKey{}(key))];
    if (slot != 0) {
      ++hits_;
      *answer = ring_[Position(slot)].answer;
      return true;
    }
  }
  ++misses_;
  return false;
}

void AnswerCache::Insert(const QueryKey& key, const QueryAnswer& answer) {
  if (index_.empty()) Grow();
  const uint64_t hash = HashKey{}(key);
  size_t i = Find(key, hash);
  if (index_[i] != 0) {
    ring_[Position(index_[i])].answer = answer;  // refresh — no FIFO movement
    return;
  }
  if (capacity_ != 0 && ring_.size() == capacity_) {
    // FIFO eviction: the new entry takes the oldest one's ring position.
    Entry& oldest = ring_[head_];
    Erase(Find(oldest.key, HashKey{}(oldest.key)));
    oldest = Entry{key, answer};
    index_[Find(key, hash)] = Tag(hash) | (head_ + 1);
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++evictions_;
    return;
  }
  HSIS_CHECK(ring_.size() < kPositionMask);
  if (2 * (ring_.size() + 1) > index_.size()) {
    Grow();
    i = Find(key, hash);
  }
  if (capacity_ != 0 && ring_.size() == ring_.capacity()) {
    ring_.reserve(std::min(capacity_, std::max<size_t>(8, 2 * ring_.size())));
  }
  index_[i] = Tag(hash) | (ring_.size() + 1);
  ring_.push_back(Entry{key, answer});
}

CacheStats AnswerCache::Stats() const {
  return CacheStats{hits_, misses_, evictions_, ring_.size()};
}

void AnswerCache::Clear() {
  ring_.clear();
  head_ = 0;
  std::fill(index_.begin(), index_.end(), 0);
}

}  // namespace hsis::serve
