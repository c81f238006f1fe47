#ifndef HSIS_SOVEREIGN_SESSION_CORE_H_
#define HSIS_SOVEREIGN_SESSION_CORE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/u256.h"
#include "crypto/multiset_hash.h"
#include "sovereign/dataset.h"

/// \file
/// \brief The commitment and resolve steps the two-party protocol
/// (intersection_protocol.cc) and the n-party ring (multiparty.cc) share.

namespace hsis::sovereign {

/// Tuples per commitment tile: the scheduling unit of `CommitTuples`.
inline constexpr size_t kCommitmentTile = 256;

/// The serialized multiset-hash commitment of `tuples` under `family`.
/// Each tile of `kCommitmentTile` tuples is hashed on the pool
/// (`threads` workers, 0 = hardware concurrency) into its own
/// `family.NewHash()`, and the tile hashes are `Union`ed in tile order.
/// The bytes equal adding the tuples one by one into a single
/// `NewHash()`, for every scheme and thread count: `NewHash` draws no
/// randomness, and all four schemes combine elements with a commutative
/// group operation (XOR, addition mod 2^256, multiplication mod p,
/// word-wise addition).
Bytes CommitTuples(const crypto::MultisetHashFamily& family,
                   std::span<const Tuple> tuples, int threads);

/// The key of the resolve's hash tables: four 64-bit words, one per limb
/// of the values they index.
using ResolveKey = std::array<uint64_t, 4>;

/// The resolve key of the party whose commutative-cipher key is
/// `cipher_key`: the `HmacPrf` of that key under a fixed label. Secret
/// as long as the cipher key is, and it draws no randomness.
ResolveKey DeriveResolveKey(const U256& cipher_key);

class ElementMultiset;

/// Full-mode resolve. `pairs` is the peer's flat (v, E_peer(v)) reply
/// about our set; of pairs sharing a first value, the one latest in
/// `pairs` wins. Each own tuple i maps through the reply from
/// `self_encrypted[i]` to its double encryption and is kept when that
/// value has a remaining copy in `peer` (tuples are visited in order).
/// A self-encrypted value with no pair is a ProtocolViolation. Our own
/// values are indexed under `peer`'s key, and the reply is walked once.
Result<Dataset> ResolvePairs(std::span<const U256> pairs,
                             std::span<const U256> self_encrypted,
                             const std::vector<Tuple>& tuples,
                             ElementMultiset& peer);

/// A multiset of group elements: the moved-in values and a keyed hash
/// table with the remaining count of each distinct value. The values
/// come from the peer, which can compute them without our key
/// (E(x^k) = E(x)^k for any k it picks), so an unkeyed table could be
/// flooded with values that share a bucket. Keyed with the party's own
/// `DeriveResolveKey`, the peer cannot tell which values collide; the
/// key moves only the table layout, never an answer.
class ElementMultiset {
 public:
  /// A fixed key, known to everyone.
  static constexpr ResolveKey kPublicResolveKey = {
      0x243f6a8885a308d3, 0x13198a2e03707344, 0xa4093822299f31d0,
      0x082efa98ec4e6c89};

  /// The multiset of `values`, in any order. The default key is public:
  /// pass a secret one (`DeriveResolveKey`) for peer-chosen values.
  explicit ElementMultiset(std::vector<U256> values,
                           const ResolveKey& key = kPublicResolveKey);

  /// The matching rule of the resolve: consumes one remaining copy of
  /// `value` and returns true, or returns false when none is left.
  bool Take(const U256& value);

 private:
  friend Result<Dataset> ResolvePairs(std::span<const U256>,
                                      std::span<const U256>,
                                      const std::vector<Tuple>&,
                                      ElementMultiset&);

  // An open-addressed, linearly probed table over values held
  // elsewhere: one 8-byte slot per distinct value, holding the index of
  // its first occurrence and a 32-bit payload. It hashes all four limbs
  // under its key; load factor is at most 1/2.
  class KeyedIndex {
   public:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    struct Slot {
      uint32_t index = kEmpty;  // kEmpty: no value here
      uint32_t payload = 0;
    };

    // Room for `capacity` distinct values (fatal unless below kEmpty).
    KeyedIndex(const ResolveKey& key, size_t capacity);

    // The slot of `value` among `values`, the array every stored index
    // points into: the slot holding it, or the empty slot where it
    // would go.
    Slot& Find(std::span<const U256> values, const U256& value);

    const ResolveKey& key() const { return key_; }

   private:
    ResolveKey key_;
    int shift_ = 0;
    std::vector<Slot> slots_;
  };

  std::vector<U256> values_;
  KeyedIndex index_;  // payload: remaining copies
};

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_SESSION_CORE_H_
