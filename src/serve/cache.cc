#include "serve/cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace hsis::serve {

namespace {

/// The high and low halves of a 64x64-bit product, folded.
uint64_t MulFold(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
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

/// Index slot layout: the low 32 bits hold ring position + 1 (0 marks
/// an empty slot), the high 32 the top of the key's hash. A slot's home
/// is the top bits of its hash, so while the index has at most 2^32
/// slots the tag carries its own home: probes past a foreign slot, the
/// backward shift and the growth never touch the ring.
constexpr uint64_t kPositionMask = 0xffffffffULL;
/// A ring below 2^31 entries keeps the index, at most half full, within
/// 2^32 slots.
constexpr size_t kMaxEntries = size_t{1} << 31;
constexpr size_t kMinIndexSlots = 16;

uint64_t Tag(uint64_t hash) { return hash & ~kPositionMask; }
size_t Position(uint64_t slot) { return (slot & kPositionMask) - 1; }

/// The home slot of a hash (or of a slot, whose tag is the top of its
/// hash) in an index of `slots` slots, a power of two.
size_t Home(uint64_t hash, size_t slots) {
  return hash >> std::countl_zero(slots - 1);
}

}  // namespace

size_t HashKey::operator()(const QueryKey& key) const {
  const uint64_t h =
      MulFold(key.benefit ^ 0xa0761d6478bd642fULL,
              key.cheat_gain ^ 0xe7037ed1a0b428dbULL) ^
      MulFold(key.frequency ^ 0x8ebc6af09c88c6e3ULL,
              key.penalty ^ 0x589965cc75374cc3ULL);
  return static_cast<size_t>(
      MulFold(h, static_cast<uint64_t>(key.n) ^ 0x1d8e4e27c47d124fULL));
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
  for (size_t i = Home(hash, index_.size());; i = (i + 1) & mask) {
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
    const size_t home = Home(index_[next], index_.size());
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = 0;
}

void AnswerCache::Grow() {
  const std::vector<uint64_t> old = std::move(index_);
  index_.assign(std::max(kMinIndexSlots, 2 * old.size()), 0);
  const size_t mask = index_.size() - 1;
  for (const uint64_t slot : old) {
    if (slot == 0) continue;
    size_t i = Home(slot, index_.size());
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = slot;
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
    // The oldest entry's slot is the one holding that position, found
    // from its key's home with no key compare.
    const size_t mask = index_.size() - 1;
    const uint64_t oldest = head_ + 1;
    size_t j = Home(HashKey{}(ring_[head_].key), index_.size());
    while ((index_[j] & kPositionMask) != oldest) j = (j + 1) & mask;
    Erase(j);
    ring_[head_] = Entry{key, answer};
    index_[Find(key, hash)] = Tag(hash) | oldest;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++evictions_;
    return;
  }
  HSIS_CHECK(ring_.size() < kMaxEntries);
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
