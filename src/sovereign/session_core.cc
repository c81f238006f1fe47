#include "sovereign/session_core.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <functional>
#include <memory>
#include <numeric>

#include "common/logging.h"
#include "common/parallel.h"
#include "crypto/hmac_sha256.h"

namespace hsis::sovereign {

namespace {

// Items per tile of the passes that plan and compact a partitioned
// resolve.
constexpr size_t kPlanTile = 1024;

// The shortest kMu tile `CommitTuples` hashes on the batch lane. Below
// about six tuples the batch's fixed cost (the lane product's R-power
// fix-up, a 16-wide square of a few bases) outweighs its per-tuple gain,
// and adding one by one is cheaper.
constexpr size_t kMuBatchMin = 8;

// The high and low halves of a 64x64-bit product, folded.
uint64_t MulFold(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

// Keyed hash of all four limbs: each limb pair is masked with its key
// words and multiplied, and the folded sum is mixed once more so that
// its high bits, which pick the partition and the bucket, depend on
// every input bit.
uint64_t KeyedHash(const ResolveKey& key, const U256& v) {
  return MulFold(MulFold(v.limb[0] ^ key[0], v.limb[1] ^ key[1]) ^
                     MulFold(v.limb[2] ^ key[2], v.limb[3] ^ key[3]),
                 0x9e3779b97f4a7c15);
}

// The commitment of `n` tuples whose tile [lo, hi) hashes to
// `tile_hash(lo, hi)`: tiles on the pool, united in tile order. One
// tile is its own commitment: `NewHash()` is the identity of +H.
Bytes CommitTiles(
    const crypto::MultisetHashFamily& family, size_t n, int threads,
    const std::function<std::unique_ptr<crypto::MultisetHash>(size_t, size_t)>&
        tile_hash) {
  const size_t tiles = (n + kCommitmentTile - 1) / kCommitmentTile;
  if (tiles == 1) return tile_hash(0, n)->Serialize();
  std::vector<std::unique_ptr<crypto::MultisetHash>> tile_hashes(tiles);
  common::ParallelForTiles(threads, n, kCommitmentTile,
                           [&](size_t lo, size_t hi) {
                             tile_hashes[lo / kCommitmentTile] =
                                 tile_hash(lo, hi);
                           });
  std::unique_ptr<crypto::MultisetHash> total = family.NewHash();
  for (const std::unique_ptr<crypto::MultisetHash>& hash : tile_hashes) {
    Status united = total->Union(*hash);
    HSIS_CHECK(united.ok()) << united.ToString();  // same family throughout
  }
  return total->Serialize();
}

// The Mu hash of `tuples[lo, lo + hashed.size())`, leaving each h(t) in
// `hashed`: one batched hash-to-group and one lane product.
std::unique_ptr<crypto::MultisetHash> MuTileHash(
    const crypto::MultisetHashFamily& family, std::span<const Tuple> tuples,
    size_t lo, std::span<U256> hashed) {
  family.mu_group()->HashToElements(
      [&](size_t i) -> const Bytes& { return tuples[lo + i].value; }, hashed);
  return family.MuHashOfFactors(hashed);
}

}  // namespace

Bytes CommitTuples(const crypto::MultisetHashFamily& family,
                   std::span<const Tuple> tuples, int threads) {
  return CommitTiles(family, tuples.size(), threads, [&](size_t lo, size_t hi) {
    if (family.mu_group() != nullptr && hi - lo >= kMuBatchMin) {
      // Left unwritten: HashToElements fills it. The bytes implicitly
      // create the U256s, which need no construction.
      alignas(U256) std::byte scratch[kCommitmentTile * sizeof(U256)];
      return MuTileHash(family, tuples, lo,
                        std::span(reinterpret_cast<U256*>(scratch), hi - lo));
    }
    std::unique_ptr<crypto::MultisetHash> hash = family.NewHash();
    for (size_t i = lo; i < hi; ++i) hash->Add(tuples[i].value);
    return hash;
  });
}

bool SharesTupleHash(const crypto::MultisetHashFamily& family,
                     const crypto::PrimeGroup& group) {
  const crypto::PrimeGroup* mu = family.mu_group();
  return mu != nullptr && mu->modulus() == group.modulus();
}

Bytes CommitAndHashTuples(const crypto::MultisetHashFamily& family,
                          std::span<const Tuple> tuples, std::span<U256> hashed,
                          int threads) {
  HSIS_CHECK(family.mu_group() != nullptr)
      << "CommitAndHashTuples needs a kMu family";
  HSIS_CHECK(hashed.size() == tuples.size())
      << "CommitAndHashTuples: " << hashed.size() << " slots for "
      << tuples.size() << " tuples";
  return CommitTiles(family, tuples.size(), threads, [&](size_t lo, size_t hi) {
    return MuTileHash(family, tuples, lo, hashed.subspan(lo, hi - lo));
  });
}

ResolveKey DeriveResolveKey(const U256& cipher_key) {
  return U256::FromBytesBE(crypto::HmacPrf(cipher_key.ToBytesBE(), 0x02,
                                           ToBytes("hsis resolve table")))
      .limb;
}

int ElementMultiset::KeyedIndex::PartitionBits(int threads) {
  const int workers = common::ResolveThreadCount(threads);
  if (workers == 1) return 0;
  // A power of two at least twice the workers, so dynamic claiming
  // evens out partitions of unequal size; partitions fit one byte.
  return std::min(
      8, static_cast<int>(std::bit_width(static_cast<unsigned>(workers - 1))) + 1);
}

size_t ElementMultiset::KeyedIndex::Plan::count(size_t q) const {
  size_t total = 0;
  for (size_t t = 0; t < bounds.size(); t += parts + 1) {
    total += bounds[t + q + 1] - bounds[t + q];
  }
  return total;
}

template <typename Get>
ElementMultiset::KeyedIndex::Plan ElementMultiset::KeyedIndex::MakePlan(
    size_t n, const Get& value, int threads) const {
  Plan plan;
  plan.parts = size_t{1} << bits_;
  if (bits_ == 0) {
    plan.bounds = {0, n};
    return plan;
  }
  HSIS_CHECK(n < kEmpty) << "a partition plan holds fewer than 2^32 - 1";
  const size_t stride = plan.parts + 1;
  plan.order.resize(n);
  plan.rank.resize(n);
  plan.bounds.resize((n + kPlanTile - 1) / kPlanTile * stride);
  // One counting sort per tile, inside the tile's own positions.
  common::ParallelForTiles(threads, n, kPlanTile, [&](size_t lo, size_t hi) {
    size_t* bound = &plan.bounds[lo / kPlanTile * stride];
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t q =
          static_cast<uint32_t>(KeyedHash(key_, value(i)) >> (64 - bits_));
      plan.rank[i] = q;  // the partition, until the scatter below
      ++bound[q + 1];
    }
    bound[0] = lo;
    std::partial_sum(bound, bound + stride, bound);
    std::array<size_t, 256> next{};
    std::copy(bound, bound + plan.parts, next.begin());
    for (size_t i = lo; i < hi; ++i) {
      const size_t k = next[plan.rank[i]]++;
      plan.order[k] = static_cast<uint32_t>(i);
      plan.rank[i] = static_cast<uint32_t>(k);
    }
  });
  return plan;
}

void ElementMultiset::KeyedIndex::Allocate(const Plan& plan) {
  regions_.clear();
  size_t offset = 0;
  for (size_t q = 0; q < plan.parts; ++q) {
    // A power of two at least twice the count: load factor <= 1/2.
    const size_t count = plan.count(q);
    HSIS_CHECK(count < kEmpty) << "KeyedIndex holds fewer than 2^32 - 1";
    int log2 = 1;
    while ((size_t{1} << log2) < 2 * count) ++log2;
    regions_.push_back({offset, size_t{1} << log2, 64 - log2});
    offset += size_t{1} << log2;
  }
  // Left unwritten here: each partition's worker first-touches its own.
  slots_ = std::make_unique_for_overwrite<Slot[]>(offset);
}

void ElementMultiset::KeyedIndex::Clear(size_t q) {
  const Region& r = regions_[q];
  std::fill_n(slots_.get() + r.offset, r.size, Slot{kEmpty, 0});
}

ElementMultiset::KeyedIndex::Slot& ElementMultiset::KeyedIndex::Find(
    std::span<const U256> values, const U256& value) {
  const uint64_t hash = KeyedHash(key_, value);
  const Region& r = regions_[bits_ == 0 ? 0 : hash >> (64 - bits_)];
  Slot* slots = slots_.get() + r.offset;
  const size_t mask = r.size - 1;
  for (size_t i = (hash << bits_) >> r.shift;; i = (i + 1) & mask) {
    Slot& slot = slots[i];
    if (slot.index == kEmpty || values[slot.index] == value) {
      return slot;
    }
  }
}

ElementMultiset::ElementMultiset(std::vector<U256> values,
                                 const ResolveKey& key, int threads)
    : values_(std::move(values)),
      index_(key, KeyedIndex::PartitionBits(threads)) {
  const KeyedIndex::Plan plan = index_.MakePlan(
      values_.size(), [&](size_t i) -> const U256& { return values_[i]; },
      threads);
  index_.Allocate(plan);
  common::ParallelFor(threads, index_.partitions(), [&](size_t q) {
    index_.Clear(q);
    plan.ForEach(q, [&](size_t, size_t i) {
      KeyedIndex::Slot& slot = index_.Find(values_, values_[i]);
      if (slot.index == KeyedIndex::kEmpty) {
        slot.index = static_cast<uint32_t>(i);
      }
      ++slot.payload;
    });
  });
}

bool ElementMultiset::Take(const U256& value) {
  KeyedIndex::Slot& slot = index_.Find(values_, value);
  if (slot.index == KeyedIndex::kEmpty || slot.payload == 0) return false;
  --slot.payload;
  return true;
}

template <typename Get>
std::pair<ElementMultiset::KeyedIndex::Plan, std::vector<uint8_t>>
ElementMultiset::TakeEach(size_t n, const Get& value, int threads) {
  KeyedIndex::Plan plan = index_.MakePlan(n, value, threads);
  std::vector<uint8_t> taken(n);
  common::ParallelFor(threads, index_.partitions(), [&](size_t q) {
    plan.ForEach(q, [&](size_t k, size_t i) {
      taken[k] = Take(value(i)) ? 1 : 0;
    });
  });
  return {std::move(plan), std::move(taken)};
}

size_t ElementMultiset::TakeAll(std::span<const U256> values, int threads) {
  const std::vector<uint8_t> taken =
      TakeEach(
          values.size(), [&](size_t i) -> const U256& { return values[i]; },
          threads)
          .second;
  return static_cast<size_t>(std::count(taken.begin(), taken.end(), 1));
}

Result<Dataset> ResolvePairs(std::span<const U256> pairs,
                             std::span<const U256> self_encrypted,
                             const std::vector<Tuple>& tuples,
                             ElementMultiset& peer, int threads) {
  // Our own values E_self(h(t)), one slot per distinct value; equal
  // tuples share a slot. The payload is the reply pair that maps it.
  using KeyedIndex = ElementMultiset::KeyedIndex;
  constexpr uint32_t kNoPair = KeyedIndex::kEmpty;
  const size_t n = self_encrypted.size();
  const size_t pair_count = pairs.size() / 2;
  HSIS_CHECK(pair_count < kNoPair) << "reply has 2^32 - 1 pairs";
  KeyedIndex own(peer.index_.key(), KeyedIndex::PartitionBits(threads));
  const KeyedIndex::Plan own_plan = own.MakePlan(
      n, [&](size_t i) -> const U256& { return self_encrypted[i]; }, threads);
  const KeyedIndex::Plan pair_plan = own.MakePlan(
      pair_count, [&](size_t p) -> const U256& { return pairs[2 * p]; },
      threads);
  own.Allocate(own_plan);
  // By own_plan position: each tuple's slot, then the pair that maps it.
  std::vector<KeyedIndex::Slot*> slot_at(n);
  std::vector<uint32_t> pair_at(n);
  std::vector<uint8_t> omitted(own.partitions());
  common::ParallelFor(threads, own.partitions(), [&](size_t q) {
    own.Clear(q);
    own_plan.ForEach(q, [&](size_t k, size_t i) {
      KeyedIndex::Slot& slot = own.Find(self_encrypted, self_encrypted[i]);
      if (slot.index == KeyedIndex::kEmpty) {
        slot = {static_cast<uint32_t>(i), kNoPair};
      }
      slot_at[k] = &slot;
    });
    // The partition's pairs in wire order: a later pair with the same
    // first value overwrites an earlier one, so the last pair wins.
    pair_plan.ForEach(q, [&](size_t, size_t p) {
      KeyedIndex::Slot& slot = own.Find(self_encrypted, pairs[2 * p]);
      if (slot.index != KeyedIndex::kEmpty) {
        slot.payload = static_cast<uint32_t>(p);
      }
    });
    own_plan.ForEach(q, [&](size_t k, size_t) {
      pair_at[k] = slot_at[k]->payload;
      if (pair_at[k] == kNoPair) omitted[q] = 1;
    });
  });
  if (std::find(omitted.begin(), omitted.end(), 1) != omitted.end()) {
    return Status::ProtocolViolation(
        "peer reply omits one of our encrypted values");
  }

  // Own tuple i's double encryption, taken in tuple order per partition.
  const auto [take_plan, taken] = peer.TakeEach(
      n,
      [&](size_t i) -> const U256& {
        return pairs[2 * size_t{pair_at[own_plan.position(i)]} + 1];
      },
      threads);
  auto keep = [&](size_t i) { return taken[take_plan.position(i)] != 0; };

  // The kept tuples in tuple order, copied on the pool at the
  // prefix-summed position of each tile.
  const size_t tiles = (n + kPlanTile - 1) / kPlanTile;
  std::vector<size_t> first(tiles + 1);
  common::ParallelForTiles(threads, n, kPlanTile, [&](size_t lo, size_t hi) {
    size_t count = 0;
    for (size_t i = lo; i < hi; ++i) count += keep(i) ? 1 : 0;
    first[lo / kPlanTile + 1] = count;
  });
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<Tuple> kept(first.back());
  common::ParallelForTiles(threads, n, kPlanTile, [&](size_t lo, size_t hi) {
    size_t at = first[lo / kPlanTile];
    for (size_t i = lo; i < hi; ++i) {
      if (keep(i)) kept[at++] = tuples[i];
    }
  });
  return Dataset(std::move(kept));
}

}  // namespace hsis::sovereign
