#ifndef HSIS_CRYPTO_MULTISET_HASH_H_
#define HSIS_CRYPTO_MULTISET_HASH_H_

#include <memory>
#include <span>
#include <string>

#include "common/bytes.h"
#include "common/random.h"
#include "common/result.h"
#include "common/u256.h"
#include "crypto/group.h"

namespace hsis::crypto {

/// The four incremental multiset hash constructions of Clarke, Devadas,
/// van Dijk, Gassend & Suh (Asiacrypt 2003), which the paper's auditing
/// device is built on (Section 6.1).
enum class MultisetHashScheme : uint8_t {
  /// Keyed, randomized: h = H_K(0,r) XOR (XOR over H_K(1,b)). Set-collision
  /// resistant against parties without K.
  kXor = 1,
  /// Keyed, randomized: h = H_K(0,r) + sum H_K(1,b) mod 2^256.
  /// Multiset-collision resistant against parties without K.
  kAdd = 2,
  /// Unkeyed: h = product of hash-to-group(b) in the QR subgroup mod a
  /// 256-bit safe prime. Multiset-collision resistant against *everyone*
  /// under the discrete-log assumption — the right choice when the hashing
  /// party itself is the adversary, as in this paper. Library default.
  kMu = 3,
  /// Unkeyed: h = per-word vector sum of SHA-256(b) in (Z_2^64)^4.
  /// Cheapest updates; collision resistance only against random inputs.
  kVAdd = 4,
};

/// Returns a stable display name ("MSet-Mu-Hash", ...).
const char* MultisetHashSchemeName(MultisetHashScheme scheme);

/// An incremental multiset hash accumulator: the triple (H, +H, ==H) of
/// Definition 3 in the paper.
///
/// * Compression — state is O(1) (<= 48 bytes + nonce) regardless of the
///   multiset size.
/// * Comparability — `Equivalent` implements ==H, derandomizing the
///   keyed randomized schemes before comparing.
/// * Incrementality — `Add` folds in one element; `Union` implements +H.
class MultisetHash {
 public:
  virtual ~MultisetHash() = default;

  virtual MultisetHashScheme scheme() const = 0;

  /// H(M ∪ {element}) from H(M): folds one element into the accumulator.
  virtual void Add(const Bytes& element) = 0;

  /// Inverse of `Add` where the scheme supports deletion. All four
  /// schemes here do (XOR is self-inverse; Add/VAdd subtract; Mu
  /// multiplies by the group inverse).
  virtual Status Remove(const Bytes& element) = 0;

  /// +H: folds another accumulator of the same scheme (and key) in,
  /// yielding H(M ∪ M').
  virtual Status Union(const MultisetHash& other) = 0;

  /// ==H: true iff both accumulators hash the same multiset (up to the
  /// scheme's collision resistance).
  virtual bool Equivalent(const MultisetHash& other) const = 0;

  /// Number of elements folded in (tracked mod 2^64).
  virtual uint64_t count() const = 0;

  /// Serialized accumulator: scheme byte, count, state, nonce. This is
  /// the "hash value H_i(D_i)" a party reports alongside its encrypted
  /// dataset, and what the auditing device stores as HV_i.
  virtual Bytes Serialize() const = 0;

  virtual std::unique_ptr<MultisetHash> Clone() const = 0;
};

/// A concrete choice of scheme + key material; corresponds to the paper's
/// "TG_i picks H_i and announces it publicly". All accumulators that must
/// interoperate (tuple generator, player, auditing device, judge) are
/// created from the same family.
class MultisetHashFamily {
 public:
  /// Creates a family. Keyed schemes (kXor, kAdd) require a non-empty
  /// key; unkeyed schemes (kMu, kVAdd) require an empty one. kMu uses
  /// `group` (defaults to the library's 256-bit safe-prime group).
  static Result<MultisetHashFamily> Create(MultisetHashScheme scheme,
                                           Bytes key = {});
  static Result<MultisetHashFamily> CreateMu(const PrimeGroup& group);

  MultisetHashScheme scheme() const { return scheme_; }

  /// A fresh accumulator for the empty multiset (zero nonce).
  std::unique_ptr<MultisetHash> NewHash() const;

  /// A fresh accumulator with a random nonce (keyed randomized schemes;
  /// for unkeyed schemes this is identical to `NewHash`).
  std::unique_ptr<MultisetHash> NewHashRandomized(Rng& rng) const;

  /// Reconstructs an accumulator from `Serialize()` output. Fails on
  /// scheme mismatch or malformed bytes.
  Result<std::unique_ptr<MultisetHash>> Deserialize(const Bytes& data) const;

  /// One-shot convenience: hash a whole multiset.
  std::unique_ptr<MultisetHash> HashMultiset(
      const std::vector<Bytes>& elements) const;

  /// The group of a kMu family, whose `Add(b)` multiplies the state by
  /// `mu_group()->HashToElement(b)`; null for every other scheme.
  const PrimeGroup* mu_group() const { return group_.get(); }

  /// kMu only (checked, fatal): the accumulator of the multiset whose
  /// elements hash to `factors` — equal to `Add`ing each element to a
  /// `NewHash()`, without hashing any of them again.
  std::unique_ptr<MultisetHash> MuHashOfFactors(
      std::span<const U256> factors) const;

 private:
  MultisetHashFamily(MultisetHashScheme scheme, Bytes key,
                     std::shared_ptr<const PrimeGroup> group)
      : scheme_(scheme), key_(std::move(key)), group_(std::move(group)) {}

  MultisetHashScheme scheme_;
  Bytes key_;
  /// kMu only, else null: the group every accumulator of the family
  /// shares (a hash may outlive the family that made it).
  std::shared_ptr<const PrimeGroup> group_;
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_MULTISET_HASH_H_
