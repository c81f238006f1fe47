#include "serve/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"

#include "serve/query.h"

namespace hsis::serve {
namespace {

QueryRequest Point(double benefit, double cheat_gain, double frequency,
                   double penalty, int n = 2) {
  return QueryRequest{benefit, cheat_gain, frequency, penalty, n};
}

QueryAnswer Tagged(double tag) {
  QueryAnswer answer;
  answer.min_penalty = tag;
  return answer;
}

TEST(CacheConfigTest, CreateRejectsBadConfigs) {
  CacheConfig config;
  config.quantum = -1;
  EXPECT_FALSE(AnswerCache::Create(config).ok());
  config = CacheConfig{};
  config.quantum = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(AnswerCache::Create(config).ok());
}

TEST(CacheConfigTest, ErrorsNameTheField) {
  for (double quantum : {-1.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    CacheConfig config;
    config.quantum = quantum;
    Result<AnswerCache> cache = AnswerCache::Create(config);
    ASSERT_FALSE(cache.ok()) << quantum;
    EXPECT_EQ(cache.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(cache.status().message().find("CacheConfig.quantum"),
              std::string::npos)
        << cache.status().ToString();
  }
}

TEST(QueryKeyTest, ExactModeKeysOnBitPatterns) {
  QueryRequest a = Point(10, 25, 0.3, 40);
  EXPECT_EQ(MakeQueryKey(a, 0), MakeQueryKey(a, 0));
  // The next representable frequency is a different point.
  QueryRequest b = a;
  b.frequency = std::nextafter(b.frequency, 1.0);
  EXPECT_FALSE(MakeQueryKey(a, 0) == MakeQueryKey(b, 0));
  // The party count is part of the key.
  QueryRequest c = a;
  c.n = 3;
  EXPECT_FALSE(MakeQueryKey(a, 0) == MakeQueryKey(c, 0));
  // Exact mode never rewrites the request.
  QueryRequest snapped = SnapRequest(a, 0);
  EXPECT_EQ(snapped.benefit, a.benefit);
  EXPECT_EQ(snapped.frequency, a.frequency);
}

TEST(QueryKeyTest, BothZeroSpellingsShareAKey) {
  QueryRequest plus = Point(0.0, 25, 0.3, 40);
  QueryRequest minus = plus;
  minus.benefit = -0.0;  // valid (B >= 0) but a distinct bit pattern
  EXPECT_TRUE(MakeQueryKey(plus, 0) == MakeQueryKey(minus, 0));
}

TEST(QueryKeyTest, QuantizedModeCollapsesNearbyPoints) {
  const double kQuantum = 1e-3;
  QueryRequest a = Point(10, 25, 0.3, 40);
  QueryRequest b = Point(10 + 4e-4, 25 - 4e-4, 0.3 + 4e-4, 40 - 4e-4);
  EXPECT_TRUE(MakeQueryKey(a, kQuantum) == MakeQueryKey(b, kQuantum));
  // ...but points a full quantum apart stay distinct.
  QueryRequest c = Point(10 + 2e-3, 25, 0.3, 40);
  EXPECT_FALSE(MakeQueryKey(a, kQuantum) == MakeQueryKey(c, kQuantum));
  // Snapping lands every member of the class on the same canonical
  // request, so the cached answer is arrival-order independent.
  QueryRequest snap_a = SnapRequest(a, kQuantum);
  QueryRequest snap_b = SnapRequest(b, kQuantum);
  EXPECT_EQ(snap_a.benefit, snap_b.benefit);
  EXPECT_EQ(snap_a.cheat_gain, snap_b.cheat_gain);
  EXPECT_EQ(snap_a.frequency, snap_b.frequency);
  EXPECT_EQ(snap_a.penalty, snap_b.penalty);
}

TEST(QueryKeyTest, SnappingKeepsRequestsServable) {
  const double kQuantum = 0.5;
  // Snapping would collapse F onto B; the canonical point must keep
  // the F > B gap open.
  QueryRequest tight = Point(10.1, 10.3, 0.99, 40);
  QueryRequest snapped = SnapRequest(tight, kQuantum);
  EXPECT_TRUE(ValidateQueryRequest(snapped).ok());
  EXPECT_GT(snapped.cheat_gain, snapped.benefit);
  // Frequencies snap back into [0, 1].
  QueryRequest edge = Point(10, 25, 0.9, 40);
  EXPECT_LE(SnapRequest(edge, 0.4).frequency, 1.0);
}

// Mean and largest displacement of `keys` linear-probed into 2^17
// slots by the top 17 bits of their hash, as the cache's index homes
// them.
struct Displacement {
  double mean = 0;
  size_t max = 0;
};

Displacement ProbeByTopBits(const std::vector<QueryKey>& keys) {
  constexpr int kSlotBits = 17;
  constexpr size_t kMask = (size_t{1} << kSlotBits) - 1;
  std::vector<bool> occupied(kMask + 1, false);
  Displacement d;
  for (const QueryKey& key : keys) {
    const size_t home = HashKey{}(key) >> (64 - kSlotBits);
    size_t i = home;
    while (occupied[i]) i = (i + 1) & kMask;
    occupied[i] = true;
    const size_t displacement = (i - home) & kMask;
    d.mean += static_cast<double>(displacement);
    d.max = std::max(d.max, displacement);
  }
  d.mean /= static_cast<double>(keys.size());
  return d;
}

// The index homes a key by the top bits of its hash, so those bits
// must spread every key family a served stream produces: a quantized
// lattice (small integers in every field), exact doubles like a
// benchmark's random and fresh points, and keys in which a single
// field varies. 65 536 distinct keys fill 2^17 slots half way, as the
// index at its growth point; a hash that ignored a field would pile a
// family on a few homes.
TEST(HashKeyTest, TopBitsSpreadEveryKeyFamilyOverTheIndex) {
  constexpr size_t kKeys = 65536;
  std::vector<std::pair<std::string, std::vector<QueryKey>>> families;

  std::vector<QueryKey> lattice;
  const double kQuantum = 1e-2;
  for (int b = 0; b < 16; ++b) {
    for (int gap = 1; gap <= 16; ++gap) {
      for (int f = 0; f < 16; ++f) {
        for (int p = 0; p < 16; ++p) {
          lattice.push_back(MakeQueryKey(
              Point(b * kQuantum, (b + gap) * kQuantum, f * kQuantum,
                    p * kQuantum),
              kQuantum));
        }
      }
    }
  }
  families.emplace_back("quantized lattice", std::move(lattice));

  std::vector<QueryKey> points;
  Rng rng(0x9a5c4e11u);
  for (size_t i = 0; i < kKeys; ++i) {
    QueryRequest q;
    q.benefit = 1 + 19 * rng.UniformDouble();
    q.cheat_gain = q.benefit * (1.2 + 1.8 * rng.UniformDouble());
    q.frequency = rng.UniformDouble();
    q.penalty = i % 2 == 0 ? 200 * rng.UniformDouble()
                           : 1000 + 1e-3 * static_cast<double>(i);
    q.n = 2 + static_cast<int>(rng.UniformUint64(7));
    points.push_back(MakeQueryKey(q, 0));
  }
  families.emplace_back("exact-double points", std::move(points));

  const char* kFields[] = {"benefit", "cheat_gain", "frequency", "penalty",
                           "n"};
  for (int field = 0; field < 5; ++field) {
    std::vector<QueryKey> keys;
    for (size_t i = 0; i < kKeys; ++i) {
      QueryRequest q = Point(10, 1e6, 0.3, 40);
      const double x = static_cast<double>(i);
      switch (field) {
        case 0:
          q.benefit = x;
          break;
        case 1:
          q.cheat_gain = 1e6 + x;
          break;
        case 2:
          q.frequency = x / kKeys;
          break;
        case 3:
          q.penalty = x;
          break;
        default:
          q.n = 2 + static_cast<int>(i);
      }
      keys.push_back(MakeQueryKey(q, 0));
    }
    families.emplace_back(std::string("only ") + kFields[field] + " varies",
                          std::move(keys));
  }

  for (const auto& [name, keys] : families) {
    SCOPED_TRACE(name);
    ASSERT_EQ(keys.size(), kKeys);
    const Displacement d = ProbeByTopBits(keys);
    EXPECT_LE(d.mean, 1.0);
    EXPECT_LE(d.max, 64u);
  }
}

TEST(AnswerCacheTest, CountsHitsAndMisses) {
  AnswerCache cache = std::move(AnswerCache::Create({}).value());
  QueryKey key = MakeQueryKey(Point(10, 25, 0.3, 40), 0);
  QueryAnswer out;
  EXPECT_FALSE(cache.Lookup(key, &out));
  cache.Insert(key, Tagged(25.0));
  EXPECT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out.min_penalty, 25.0);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(AnswerCacheTest, EvictsOldestFirstWhenFull) {
  CacheConfig config;
  config.capacity = 2;
  AnswerCache cache = std::move(AnswerCache::Create(config).value());
  QueryKey k1 = MakeQueryKey(Point(1, 2, 0.1, 1), 0);
  QueryKey k2 = MakeQueryKey(Point(2, 3, 0.2, 2), 0);
  QueryKey k3 = MakeQueryKey(Point(3, 4, 0.3, 3), 0);
  cache.Insert(k1, Tagged(1));
  cache.Insert(k2, Tagged(2));
  cache.Insert(k3, Tagged(3));  // evicts k1
  QueryAnswer out;
  EXPECT_FALSE(cache.Lookup(k1, &out));
  EXPECT_TRUE(cache.Lookup(k2, &out));
  EXPECT_TRUE(cache.Lookup(k3, &out));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(AnswerCacheTest, ReinsertRefreshesWithoutEvicting) {
  CacheConfig config;
  config.capacity = 2;
  AnswerCache cache = std::move(AnswerCache::Create(config).value());
  QueryKey k1 = MakeQueryKey(Point(1, 2, 0.1, 1), 0);
  QueryKey k2 = MakeQueryKey(Point(2, 3, 0.2, 2), 0);
  cache.Insert(k1, Tagged(1));
  cache.Insert(k2, Tagged(2));
  cache.Insert(k1, Tagged(100));  // overwrite, no capacity pressure
  QueryAnswer out;
  EXPECT_TRUE(cache.Lookup(k1, &out));
  EXPECT_EQ(out.min_penalty, 100.0);
  EXPECT_EQ(cache.Stats().evictions, 0u);
}

TEST(AnswerCacheTest, CapacityBoundsTheWholeCache) {
  // `capacity` counts every resident entry, wherever its key hashes:
  // the third distinct key evicts exactly one entry, the oldest.
  CacheConfig config;
  config.capacity = 2;
  AnswerCache cache = std::move(AnswerCache::Create(config).value());
  QueryKey oldest = MakeQueryKey(Point(5, 50, 0.05, 5), 0);
  QueryKey middle = MakeQueryKey(Point(6, 60, 0.06, 6), 0);
  QueryKey newest = MakeQueryKey(Point(7, 70, 0.07, 7), 0);
  cache.Insert(oldest, Tagged(5));
  cache.Insert(middle, Tagged(6));
  cache.Insert(newest, Tagged(7));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  QueryAnswer out;
  EXPECT_FALSE(cache.Lookup(oldest, &out));
  EXPECT_TRUE(cache.Lookup(middle, &out));
  EXPECT_EQ(out.min_penalty, 6.0);
  EXPECT_TRUE(cache.Lookup(newest, &out));
  EXPECT_EQ(out.min_penalty, 7.0);
}

TEST(AnswerCacheTest, ClearDropsEntriesButKeepsCounters) {
  AnswerCache cache = std::move(AnswerCache::Create({}).value());
  QueryKey key = MakeQueryKey(Point(10, 25, 0.3, 40), 0);
  cache.Insert(key, Tagged(1));
  QueryAnswer out;
  EXPECT_TRUE(cache.Lookup(key, &out));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(key, &out));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(AnswerCacheTest, UnboundedModeNeverEvicts) {
  CacheConfig config;
  config.capacity = 0;  // unbounded
  AnswerCache cache = std::move(AnswerCache::Create(config).value());
  for (int i = 0; i < 1000; ++i) {
    cache.Insert(MakeQueryKey(Point(i, i + 1, 0.5, i), 0), Tagged(i));
  }
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1000u);
}


// Reference model of the cache's observable contract: a node map plus
// an insertion-order queue, FIFO eviction of the front once the map
// holds more than `capacity` entries, refresh in place on re-insert.
class ReferenceCache {
 public:
  explicit ReferenceCache(size_t capacity) : capacity_(capacity) {}

  bool Lookup(const QueryKey& key, QueryAnswer* answer) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    *answer = it->second;
    return true;
  }

  void Insert(const QueryKey& key, const QueryAnswer& answer) {
    auto [it, inserted] = entries_.try_emplace(key, answer);
    if (!inserted) {
      it->second = answer;
      return;
    }
    fifo_.push_back(key);
    if (capacity_ != 0 && entries_.size() > capacity_) {
      entries_.erase(fifo_.front());
      fifo_.pop_front();
      ++stats_.evictions;
    }
  }

  void Clear() {
    entries_.clear();
    fifo_.clear();
  }

  CacheStats Stats() const {
    CacheStats stats = stats_;
    stats.entries = entries_.size();
    return stats;
  }

 private:
  size_t capacity_;
  std::unordered_map<QueryKey, QueryAnswer, HashKey> entries_;
  std::deque<QueryKey> fifo_;
  CacheStats stats_;
};

bool SameAnswer(const QueryAnswer& a, const QueryAnswer& b) {
  return a.effectiveness == b.effectiveness &&
         a.honest_is_dominant == b.honest_is_dominant &&
         std::memcmp(&a.min_frequency, &b.min_frequency, sizeof(double)) == 0 &&
         std::memcmp(&a.min_penalty, &b.min_penalty, sizeof(double)) == 0 &&
         std::memcmp(&a.zero_penalty_frequency, &b.zero_penalty_frequency,
                     sizeof(double)) == 0;
}

bool SameStats(const CacheStats& a, const CacheStats& b) {
  return a.hits == b.hits && a.misses == b.misses &&
         a.evictions == b.evictions && a.entries == b.entries;
}

// Seeded random Lookup / Insert / re-Insert / Clear streams against the
// reference model. The key domain is a small multiple of the capacity,
// so the cache keeps evicting and its index keeps deleting from the
// middle of probe clusters; every lookup result, every answer and the
// stats after every operation must agree.
TEST(AnswerCacheTest, MatchesTheReferenceModelOnRandomOperations) {
  constexpr int kOpsPerCapacity = 500000;
  for (size_t capacity : {0, 1, 2, 3, 7, 64, 1000, 4096}) {
    SCOPED_TRACE(capacity);
    CacheConfig config;
    config.capacity = capacity;
    AnswerCache cache = std::move(AnswerCache::Create(config).value());
    ReferenceCache reference(capacity);
    const uint64_t domain = capacity == 0 ? 5000 : 3 * capacity + 5;
    Rng rng(0x5eed0000u + capacity);
    for (int op = 0; op < kOpsPerCapacity; ++op) {
      const uint64_t id = rng.UniformUint64(domain);
      QueryKey key;
      key.benefit = id;
      key.cheat_gain = id * 0x9e3779b97f4a7c15ULL;
      key.frequency = id % 3;
      key.n = static_cast<int>(id % 5);
      const uint64_t kind = rng.UniformUint64(10000);
      if (kind < 5000) {
        QueryAnswer got, want;
        const bool hit = cache.Lookup(key, &got);
        ASSERT_EQ(hit, reference.Lookup(key, &want)) << "op " << op;
        if (hit) {
          ASSERT_TRUE(SameAnswer(got, want)) << "op " << op;
        }
      } else if (kind < 9995) {
        QueryAnswer answer = Tagged(static_cast<double>(op));
        answer.effectiveness = static_cast<game::DeviceEffectiveness>(op % 4);
        answer.honest_is_dominant = op % 2 == 0;
        answer.min_frequency = static_cast<double>(id);
        cache.Insert(key, answer);
        reference.Insert(key, answer);
      } else {
        cache.Clear();
        reference.Clear();
      }
      ASSERT_TRUE(SameStats(cache.Stats(), reference.Stats())) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace hsis::serve
