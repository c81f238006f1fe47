#include "sovereign/session_core.h"

#include <memory>

#include "common/logging.h"
#include "common/parallel.h"
#include "crypto/hmac_sha256.h"

namespace hsis::sovereign {

namespace {

// The high and low halves of a 64x64-bit product, folded.
uint64_t MulFold(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

// Keyed hash of all four limbs: each limb pair is masked with its key
// words and multiplied, and the folded sum is mixed once more so that
// its high bits, which pick the bucket, depend on every input bit.
uint64_t KeyedHash(const ResolveKey& key, const U256& v) {
  return MulFold(MulFold(v.limb[0] ^ key[0], v.limb[1] ^ key[1]) ^
                     MulFold(v.limb[2] ^ key[2], v.limb[3] ^ key[3]),
                 0x9e3779b97f4a7c15);
}

}  // namespace

Bytes CommitTuples(const crypto::MultisetHashFamily& family,
                   std::span<const Tuple> tuples, int threads) {
  const size_t tiles = (tuples.size() + kCommitmentTile - 1) / kCommitmentTile;
  std::vector<std::unique_ptr<crypto::MultisetHash>> tile_hashes(tiles);
  common::ParallelForTiles(
      threads, tuples.size(), kCommitmentTile, [&](size_t lo, size_t hi) {
        std::unique_ptr<crypto::MultisetHash> hash = family.NewHash();
        for (size_t i = lo; i < hi; ++i) hash->Add(tuples[i].value);
        tile_hashes[lo / kCommitmentTile] = std::move(hash);
      });
  std::unique_ptr<crypto::MultisetHash> total = family.NewHash();
  for (const std::unique_ptr<crypto::MultisetHash>& hash : tile_hashes) {
    Status united = total->Union(*hash);
    HSIS_CHECK(united.ok()) << united.ToString();  // same family throughout
  }
  return total->Serialize();
}

ResolveKey DeriveResolveKey(const U256& cipher_key) {
  return U256::FromBytesBE(crypto::HmacPrf(cipher_key.ToBytesBE(), 0x02,
                                           ToBytes("hsis resolve table")))
      .limb;
}

ElementMultiset::KeyedIndex::KeyedIndex(const ResolveKey& key,
                                        size_t capacity)
    : key_(key) {
  HSIS_CHECK(capacity < kEmpty) << "KeyedIndex holds fewer than 2^32 - 1";
  // A power of two at least twice the capacity: load factor <= 1/2.
  int bits = 1;
  while ((size_t{1} << bits) < 2 * capacity) ++bits;
  shift_ = 64 - bits;
  slots_.resize(size_t{1} << bits);
}

ElementMultiset::KeyedIndex::Slot& ElementMultiset::KeyedIndex::Find(
    std::span<const U256> values, const U256& value) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = KeyedHash(key_, value) >> shift_;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.index == kEmpty || values[slot.index] == value) {
      return slot;
    }
  }
}

ElementMultiset::ElementMultiset(std::vector<U256> values,
                                 const ResolveKey& key)
    : values_(std::move(values)), index_(key, values_.size()) {
  for (size_t i = 0; i < values_.size(); ++i) {
    KeyedIndex::Slot& slot = index_.Find(values_, values_[i]);
    if (slot.index == KeyedIndex::kEmpty) {
      slot.index = static_cast<uint32_t>(i);
    }
    ++slot.payload;
  }
}

bool ElementMultiset::Take(const U256& value) {
  KeyedIndex::Slot& slot = index_.Find(values_, value);
  if (slot.index == KeyedIndex::kEmpty || slot.payload == 0) return false;
  --slot.payload;
  return true;
}

Result<Dataset> ResolvePairs(std::span<const U256> pairs,
                             std::span<const U256> self_encrypted,
                             const std::vector<Tuple>& tuples,
                             ElementMultiset& peer) {
  // Our own values E_self(h(t)), one slot per distinct value; equal
  // tuples share a slot. The payload is the reply pair that maps it.
  using KeyedIndex = ElementMultiset::KeyedIndex;
  constexpr uint32_t kNoPair = KeyedIndex::kEmpty;
  const size_t n = self_encrypted.size();
  HSIS_CHECK(pairs.size() / 2 < kNoPair) << "reply has 2^32 - 1 pairs";
  KeyedIndex own(peer.index_.key(), n);
  std::vector<KeyedIndex::Slot*> slot_of(n);
  for (size_t i = 0; i < n; ++i) {
    KeyedIndex::Slot& slot = own.Find(self_encrypted, self_encrypted[i]);
    if (slot.index == KeyedIndex::kEmpty) {
      slot = {static_cast<uint32_t>(i), kNoPair};
    }
    slot_of[i] = &slot;
  }
  // One walk in wire order: a later pair with the same first value
  // overwrites an earlier one, so the last pair wins.
  for (size_t p = 0; 2 * p + 1 < pairs.size(); ++p) {
    KeyedIndex::Slot& slot = own.Find(self_encrypted, pairs[2 * p]);
    if (slot.index != KeyedIndex::kEmpty) {
      slot.payload = static_cast<uint32_t>(p);
    }
  }

  std::vector<Tuple> kept;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t pair = slot_of[i]->payload;
    if (pair == kNoPair) {
      return Status::ProtocolViolation(
          "peer reply omits one of our encrypted values");
    }
    if (peer.Take(pairs[2 * size_t{pair} + 1])) kept.push_back(tuples[i]);
  }
  return Dataset(std::move(kept));
}

}  // namespace hsis::sovereign
