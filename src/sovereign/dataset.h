#ifndef HSIS_SOVEREIGN_DATASET_H_
#define HSIS_SOVEREIGN_DATASET_H_

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"

namespace hsis::sovereign {

/// One database tuple. The protocol layer treats tuples as opaque byte
/// strings.
struct Tuple {
  Bytes value;

  Tuple() = default;
  explicit Tuple(Bytes v) : value(std::move(v)) {}

  static Tuple FromString(std::string_view s) { return Tuple(ToBytes(s)); }
  std::string ToString() const { return BytesToString(value); }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.value == b.value;
  }
  friend std::strong_ordering operator<=>(const Tuple& a, const Tuple& b) {
    return CompareBytes(a.value, b.value);
  }
};

/// A multiset of tuples — one party's database D_i.
///
/// Stored in canonical (sorted) order so that equality, hashing and the
/// exact set operations used as protocol ground truth are well defined.
/// Canonical order is `CompareBytes`'s: bytewise lexicographic on
/// unsigned bytes, a proper prefix before every tuple it prefixes.
///
/// Building a dataset sorts its tuples by packed keys (the first 16
/// bytes and the length) in a radix sort, linear in the tuple count. Its
/// worst case is many long tuples that share their first 16 bytes: each
/// such run falls back to a comparison sort with the full compare.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<Tuple> tuples);

  static Dataset FromStrings(std::initializer_list<std::string_view> values);
  static Dataset FromStrings(const std::vector<std::string>& values);

  void Add(Tuple tuple);

  /// Adds every tuple of `batch`: equal to `Add`ing them one by one,
  /// with one sort of the batch and one merge instead of a shifting
  /// insert per tuple.
  void InsertAll(std::vector<Tuple> batch);

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Tuples in canonical order.
  const std::vector<Tuple>& tuples() const { return tuples_; }

  bool Contains(const Tuple& tuple) const;

  /// Number of occurrences of `tuple`.
  size_t Count(const Tuple& tuple) const;

  /// Exact multiset operations (protocol ground truth).
  Dataset Intersect(const Dataset& other) const;
  Dataset Union(const Dataset& other) const;
  Dataset Difference(const Dataset& other) const;

  /// Removes `n` uniformly-chosen tuples (withholding cheat). Removes
  /// everything if n >= size.
  void RemoveRandom(size_t n, Rng& rng);

  friend bool operator==(const Dataset& a, const Dataset& b) {
    return a.tuples_ == b.tuples_;
  }

 private:
  std::vector<Tuple> tuples_;  // kept sorted
};

/// Read-only chunked cursor over a `Dataset`: yields the dataset's
/// canonical (sorted) tuple order as fixed-size blocks of at most
/// `chunk_size` tuples. Indexed access (rather than a single forward
/// iterator) lets parallel stages address chunks independently. The
/// intersection protocol does not ship these blocks: its frames follow
/// a whole-set shuffled send order, because a sorted block would tell
/// the peer each ciphertext's rank band.
///
/// The cursor borrows the dataset; the dataset must outlive it and stay
/// unmodified while the cursor is in use.
class DatasetSource {
 public:
  /// `chunk_size` must be >= 1 (callers validate via
  /// `ValidateIntersectionOptions`; a zero chunk size is clamped to 1
  /// here so the cursor itself is total).
  DatasetSource(const Dataset& dataset, size_t chunk_size);

  /// Total tuples across all chunks.
  size_t total() const { return dataset_->size(); }

  /// Frame size in tuples (the last chunk may be smaller).
  size_t chunk_size() const { return chunk_size_; }

  /// Number of chunks: ceil(total / chunk_size); 0 for an empty dataset.
  size_t chunk_count() const;

  /// Tuples of chunk `index` (in [0, chunk_count())), canonical order.
  std::span<const Tuple> Chunk(size_t index) const;

 private:
  const Dataset* dataset_;
  size_t chunk_size_;
};

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_DATASET_H_
