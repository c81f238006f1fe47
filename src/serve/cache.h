#ifndef HSIS_SERVE_CACHE_H_
#define HSIS_SERVE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "serve/query.h"

/// \file
/// \brief Single-owner memo-cache for served query answers.
///
/// Production query streams are heavily repetitive — the same tariff
/// points, the same contract templates — so the serving tier memoizes
/// answers keyed on the request's parameter point. Keys are built by
/// `MakeQueryKey`: with the default `quantum == 0` the key is the
/// exact bit pattern of each parameter (lossless — a hit returns the
/// bit-identical answer the analytic path would compute, including at
/// points within `kPayoffEpsilon` of a regime flip), while a positive
/// quantum snaps parameters to a lattice and the cache stores the
/// answer *of the snapped point* (`SnapRequest`), so lossy mode is
/// deterministic and arrival-order independent.
///
/// The cache has one owner and no locks: one flat entry ring in
/// insertion order (the FIFO eviction order), one open-addressed index
/// over it and three counters, snapshotted by `Stats()` for the
/// service's stats endpoint. `capacity` bounds the whole cache.

namespace hsis::serve {

/// Tuning knobs of an `AnswerCache`.
struct CacheConfig {
  /// Key quantization step. 0 (default) keys on exact double bit
  /// patterns; q > 0 snaps every parameter to the lattice q*Z (and the
  /// answer is computed at the snapped point). Must be finite, >= 0.
  double quantum = 0.0;
  /// Entries in the cache before FIFO eviction kicks in; 0 = unbounded.
  size_t capacity = 65536;
};

/// Cache counters, as of one `Stats()` call.
struct CacheStats {
  uint64_t hits = 0;       ///< Lookups answered from the cache.
  uint64_t misses = 0;     ///< Lookups that found nothing.
  uint64_t evictions = 0;  ///< Entries displaced by capacity pressure.
  uint64_t entries = 0;    ///< Entries currently resident.
};

/// Cache key of one request: quantized parameter images plus the party
/// count. Equality is exact — two requests collide iff every quantized
/// component matches.
struct QueryKey {
  uint64_t benefit = 0;     ///< Quantized image of B.
  uint64_t cheat_gain = 0;  ///< Quantized image of F.
  uint64_t frequency = 0;   ///< Quantized image of f.
  uint64_t penalty = 0;     ///< Quantized image of P.
  int n = 0;                ///< Party count (cached answers are n-tagged).

  /// Exact component-wise equality.
  bool operator==(const QueryKey& other) const = default;
};

/// Hash of a `QueryKey` (two levels of folded 64x64-bit products over
/// its components); the cache's index hasher, whose top bits pick a
/// key's home slot.
struct HashKey {
  /// Mixes every component of `key`.
  size_t operator()(const QueryKey& key) const;
};

/// Builds the cache key of `request` under `quantum` (see
/// `CacheConfig::quantum`). -0.0 and +0.0 share a key.
QueryKey MakeQueryKey(const QueryRequest& request, double quantum);

/// The canonical request of a key's equivalence class: the identity
/// for `quantum == 0`, otherwise every parameter rounded to the
/// nearest lattice point (frequency re-clamped to [0, 1] so snapping
/// never produces an unservable request). Cached answers are computed
/// here, so every request in the class serves the same bytes.
QueryRequest SnapRequest(const QueryRequest& request, double quantum);

/// Memoization of `QueryKey -> QueryAnswer`. Not thread-safe: one
/// owner; use one cache per thread.
class AnswerCache {
 public:
  /// Validates `config` (finite quantum >= 0) and builds an empty
  /// cache.
  static Result<AnswerCache> Create(const CacheConfig& config);

  /// Looks `key` up; on a hit copies the answer into `*answer` and
  /// returns true. Counts one hit or one miss.
  bool Lookup(const QueryKey& key, QueryAnswer* answer);

  /// Inserts (or overwrites) `key`'s answer, evicting the oldest entry
  /// when the cache is full (FIFO — deterministic for a given
  /// insertion order). Overwriting refreshes the answer in place.
  void Insert(const QueryKey& key, const QueryAnswer& answer);

  /// Counters and resident entries as of now.
  CacheStats Stats() const;

  /// Drops every entry; counters keep accumulating.
  void Clear();

  /// The quantum the cache was built with.
  double quantum() const { return quantum_; }

 private:
  /// One resident answer and its key.
  struct Entry {
    QueryKey key;
    QueryAnswer answer;
  };

  AnswerCache(double quantum, size_t capacity)
      : quantum_(quantum), capacity_(capacity) {}

  /// The index slot holding `key` (hash `hash`), or the empty slot that
  /// ends its probe run. The index must be non-empty.
  size_t Find(const QueryKey& key, uint64_t hash) const;
  /// Empties index slot `hole` by backward shift: later members of its
  /// probe run move up so every run stays gap-free.
  void Erase(size_t hole);
  /// Doubles the index and re-places every occupied slot at its tag's
  /// home.
  void Grow();

  double quantum_ = 0;
  size_t capacity_ = 0;
  /// Resident entries in insertion order. Appended until `capacity_`;
  /// then each insert overwrites the oldest, at `head_`.
  std::vector<Entry> ring_;
  size_t head_ = 0;
  /// Linear-probing index over `ring_`, a power of two at most half
  /// full: each slot is (top 32 hash bits << 32) | (ring position + 1),
  /// 0 empty. A key's home slot is the top bits of its hash, so the tag
  /// carries its own home; the ring stays below 2^31 entries, the index
  /// at most 2^32 slots.
  std::vector<uint64_t> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace hsis::serve

#endif  // HSIS_SERVE_CACHE_H_
