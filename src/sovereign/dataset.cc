#include "sovereign/dataset.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <utility>

namespace hsis::sovereign {
namespace {

// Below this many tuples a comparison sort beats the radix sort's fixed
// costs, its digit histograms and scratch buffers (the two cross near
// 128 tuples; EXPERIMENTS.md).
constexpr size_t kRadixCutoff = 128;

// A tuple's packed sort key: its first 16 bytes, big-endian and zero
// padded (words 0 and 1), then min(size, 17) as the last digit (word 2).
// Keys order as `CompareBytes` orders the tuples: where they differ the
// first differing byte decides, or the zero padding puts a proper prefix
// first (its length digit is smaller). Where they tie with a length of
// at most 16 the tuples are equal; a tie at 17 shares 16 bytes and needs
// the full compare.
using SortKey = std::array<uint64_t, 3>;

constexpr uint64_t kLongLength = 16 + 1;

// Digit d (0 least significant) is the byte of word `kDigitWord[d]` at
// `kDigitShift[d]`: the length, then the key bytes from the last.
constexpr size_t kDigits = 17;
constexpr std::array<uint8_t, kDigits> kDigitWord = {2, 1, 1, 1, 1, 1, 1,
                                                     1, 1, 0, 0, 0, 0, 0,
                                                     0, 0, 0};
constexpr std::array<uint8_t, kDigits> kDigitShift = {
    0, 0, 8, 16, 24, 32, 40, 48, 56, 0, 8, 16, 24, 32, 40, 48, 56};

uint32_t Digit(const SortKey& key, size_t d) {
  return static_cast<uint32_t>(key[kDigitWord[d]] >> kDigitShift[d]) & 0xff;
}

// Sorts `tuples` into canonical order: an LSD radix sort of the tuples'
// indices by their packed keys, over the digits that vary, then one pass
// that moves the tuples, and a comparison sort of each run of long
// tuples that tie on 16 bytes.
void SortTuples(std::vector<Tuple>& tuples) {
  // Resolves build their results in tuple order: one pass, no sort.
  if (std::is_sorted(tuples.begin(), tuples.end())) return;
  const size_t n = tuples.size();
  if (n < kRadixCutoff || n > UINT32_MAX) {
    std::sort(tuples.begin(), tuples.end());
    return;
  }

  auto keys = std::make_unique_for_overwrite<SortKey[]>(n);
  std::vector<std::array<uint32_t, 256>> counts(kDigits);
  for (size_t i = 0; i < n; ++i) {
    const Bytes& value = tuples[i].value;
    SortKey& key = keys[i];
    if (value.size() >= 16) {
      std::memcpy(key.data(), value.data(), 16);
    } else {
      key[0] = key[1] = 0;
      if (!value.empty()) std::memcpy(key.data(), value.data(), value.size());
    }
    key[0] = BigEndian64(key[0]);
    key[1] = BigEndian64(key[1]);
    key[2] = std::min<uint64_t>(value.size(), kLongLength);
    for (size_t d = 0; d < kDigits; ++d) ++counts[d][Digit(key, d)];
  }

  std::vector<uint32_t> order(n), scratch(n);
  std::iota(order.begin(), order.end(), 0u);
  for (size_t d = 0; d < kDigits; ++d) {
    std::array<uint32_t, 256>& offsets = counts[d];
    // A digit that every key shares leaves the order as it is.
    if (offsets[Digit(keys[0], d)] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : offsets) sum += std::exchange(c, sum);
    for (uint32_t i : order) scratch[offsets[Digit(keys[i], d)]++] = i;
    order.swap(scratch);
  }
  scratch = {};

  // The runs of long tuples that tie on 16 bytes, in sorted positions.
  std::vector<std::pair<size_t, size_t>> ties;
  for (size_t lo = 0, i = 1; i <= n; ++i) {
    if (i < n && keys[order[i - 1]] == keys[order[i]]) continue;
    if (i - lo > 1 && keys[order[lo]][2] == kLongLength) {
      ties.emplace_back(lo, i);
    }
    lo = i;
  }
  keys.reset();

  std::vector<Tuple> sorted;
  sorted.reserve(n);
  for (uint32_t i : order) sorted.push_back(std::move(tuples[i]));
  tuples.swap(sorted);
  for (auto [lo, hi] : ties) {
    std::sort(tuples.begin() + static_cast<ptrdiff_t>(lo),
              tuples.begin() + static_cast<ptrdiff_t>(hi));
  }
}

}  // namespace

Dataset::Dataset(std::vector<Tuple> tuples) : tuples_(std::move(tuples)) {
  SortTuples(tuples_);
}

Dataset Dataset::FromStrings(std::initializer_list<std::string_view> values) {
  std::vector<Tuple> tuples;
  tuples.reserve(values.size());
  for (std::string_view v : values) tuples.push_back(Tuple::FromString(v));
  return Dataset(std::move(tuples));
}

Dataset Dataset::FromStrings(const std::vector<std::string>& values) {
  std::vector<Tuple> tuples;
  tuples.reserve(values.size());
  for (const std::string& v : values) tuples.push_back(Tuple::FromString(v));
  return Dataset(std::move(tuples));
}

void Dataset::Add(Tuple tuple) {
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), tuple);
  tuples_.insert(it, std::move(tuple));
}

void Dataset::InsertAll(std::vector<Tuple> batch) {
  SortTuples(batch);
  const ptrdiff_t middle = static_cast<ptrdiff_t>(tuples_.size());
  tuples_.insert(tuples_.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
  std::inplace_merge(tuples_.begin(), tuples_.begin() + middle,
                     tuples_.end());
}

bool Dataset::Contains(const Tuple& tuple) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), tuple);
}

size_t Dataset::Count(const Tuple& tuple) const {
  auto range = std::equal_range(tuples_.begin(), tuples_.end(), tuple);
  return static_cast<size_t>(range.second - range.first);
}

Dataset Dataset::Intersect(const Dataset& other) const {
  std::vector<Tuple> out;
  std::set_intersection(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                        other.tuples_.end(), std::back_inserter(out));
  return Dataset(std::move(out));
}

Dataset Dataset::Union(const Dataset& other) const {
  std::vector<Tuple> out;
  std::merge(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
             other.tuples_.end(), std::back_inserter(out));
  return Dataset(std::move(out));
}

Dataset Dataset::Difference(const Dataset& other) const {
  std::vector<Tuple> out;
  std::set_difference(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                      other.tuples_.end(), std::back_inserter(out));
  return Dataset(std::move(out));
}

DatasetSource::DatasetSource(const Dataset& dataset, size_t chunk_size)
    : dataset_(&dataset), chunk_size_(std::max<size_t>(chunk_size, 1)) {}

size_t DatasetSource::chunk_count() const {
  return (dataset_->size() + chunk_size_ - 1) / chunk_size_;
}

std::span<const Tuple> DatasetSource::Chunk(size_t index) const {
  size_t begin = index * chunk_size_;
  size_t end = std::min(begin + chunk_size_, dataset_->size());
  return std::span<const Tuple>(dataset_->tuples()).subspan(begin, end - begin);
}

void Dataset::RemoveRandom(size_t n, Rng& rng) {
  n = std::min(n, tuples_.size());
  for (size_t k = 0; k < n; ++k) {
    size_t idx = rng.UniformUint64(tuples_.size());
    tuples_.erase(tuples_.begin() + static_cast<ptrdiff_t>(idx));
  }
}

}  // namespace hsis::sovereign
