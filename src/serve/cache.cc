#include "serve/cache.h"

#include <algorithm>
#include <bit>
#include <cmath>

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

bool AnswerCache::Lookup(const QueryKey& key, QueryAnswer* answer) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  *answer = it->second;
  return true;
}

void AnswerCache::Insert(const QueryKey& key, const QueryAnswer& answer) {
  auto [it, inserted] = entries_.try_emplace(key, answer);
  if (!inserted) {
    it->second = answer;  // refresh — no FIFO movement
    return;
  }
  fifo_.push_back(key);
  if (capacity_ != 0 && entries_.size() > capacity_) {
    // FIFO eviction: the front is the oldest resident entry, never the
    // one just added (capacity >= 1 keeps it behind at least one other).
    entries_.erase(fifo_.front());
    fifo_.pop_front();
    ++evictions_;
  }
}

CacheStats AnswerCache::Stats() const {
  return CacheStats{hits_, misses_, evictions_, entries_.size()};
}

void AnswerCache::Clear() {
  entries_.clear();
  fifo_.clear();
}

}  // namespace hsis::serve
