#ifndef HSIS_SOVEREIGN_SESSION_CORE_H_
#define HSIS_SOVEREIGN_SESSION_CORE_H_

#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/u256.h"
#include "crypto/multiset_hash.h"
#include "sovereign/dataset.h"

/// \file
/// \brief The commitment step the two-party protocol and the n-party
/// ring share, and the two-party resolve step (intersection_protocol.cc).

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

/// A multiset of group elements held as sorted (value, remaining count)
/// pairs: one contiguous array, searched by binary search. The values
/// come from the peer, so nothing here hashes them — a peer cannot pick
/// values that collide into one bucket.
class ElementMultiset {
 public:
  /// The multiset of `values`, in any order.
  explicit ElementMultiset(std::vector<U256> values);

  /// The matching rule of the resolve: consumes one remaining copy of
  /// `value` and returns true, or returns false when none is left.
  bool Take(const U256& value);

 private:
  std::vector<std::pair<U256, size_t>> entries_;  // ascending, unique
};

/// Full-mode resolve. `pairs` is the peer's flat (v, E_peer(v)) reply
/// about our set; of pairs sharing a first value, the one latest in
/// `pairs` wins. Each own tuple i maps through the reply from
/// `self_encrypted[i]` to its double encryption and is kept when that
/// value has a remaining copy in `peer` (tuples are visited in order).
/// A self-encrypted value with no pair is a ProtocolViolation.
Result<Dataset> ResolvePairs(std::span<const U256> pairs,
                             std::span<const U256> self_encrypted,
                             const std::vector<Tuple>& tuples,
                             ElementMultiset& peer);

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_SESSION_CORE_H_
