#ifndef HSIS_CRYPTO_GROUP_H_
#define HSIS_CRYPTO_GROUP_H_

#include <algorithm>
#include <array>
#include <span>

#include "common/bytes.h"
#include "common/random.h"
#include "common/result.h"
#include "common/u256.h"
#include "crypto/modmath.h"
#include "crypto/sha256.h"

namespace hsis::crypto {

/// The group of quadratic residues modulo a safe prime p = 2q + 1.
///
/// Because q is prime, the QR subgroup has prime order q: every element
/// except 1 generates it, every exponent in [1, q) is invertible, and
/// exponentiation x -> x^e is a bijection — exactly the structure the
/// SRA/Pohlig–Hellman commutative cipher (and the MSet-Mu-Hash) need.
class PrimeGroup {
 public:
  /// Creates a group from a safe prime. Verifies oddness and, when
  /// `check_primality` is set, runs Miller–Rabin on p and q.
  static Result<PrimeGroup> Create(const U256& safe_prime,
                                   bool check_primality = false);

  /// The library default: a fixed 256-bit safe-prime group.
  static const PrimeGroup& Default();

  /// A 64-bit safe-prime group for fast unit tests. Not secure.
  static const PrimeGroup& SmallTestGroup();

  const U256& modulus() const { return ctx_.modulus(); }
  const U256& order() const { return order_; }

  /// Deterministically maps arbitrary bytes to a group element:
  /// x = SHA-256-derived value mod p, squared to land in the QR subgroup
  /// (re-derived in the vanishingly unlikely event x == 0). Allocates
  /// nothing unless it re-derives.
  U256 HashToElement(const Bytes& data) const;

  /// out[i] = HashToElement(get(i)) for every i < out.size(), where `Get`
  /// is any callable `size_t -> const Bytes&`. The digests are squared by
  /// `SquareBatch` on `lane` (default: the lane the CPU probe selected);
  /// a digest that is 0 mod p squares to 0, and only those take
  /// `HashToElement`'s re-derive path.
  template <typename Get>
  void HashToElements(const Get& get, std::span<U256> out,
                      FixedExponentContext::Lane lane =
                          &FixedExponentContext::ModExpBatch) const {
    constexpr size_t kGroup = 16;
    for (size_t lo = 0; lo < out.size(); lo += kGroup) {
      const size_t count = std::min(kGroup, out.size() - lo);
      std::array<std::span<const uint8_t>, kGroup> messages;
      std::array<Sha256::Digest, kGroup> digests;
      for (size_t k = 0; k < count; ++k) messages[k] = get(lo + k);
      Sha256::HashEach(std::span(messages).first(count),
                       std::span(digests).first(count));
      for (size_t k = 0; k < count; ++k) {
        out[lo + k] = U256::FromBytesBE(digests[k]);
      }
    }
    SquareBatch(out, lane);
    for (size_t i = 0; i < out.size(); ++i) {
      if (out[i].IsZero()) out[i] = HashToElement(get(i));
    }
  }

  /// x[i] = x[i]^2 mod p for every i, for any U256 x[i] (a multiple of p
  /// squares to 0). On the scalar lane (named, or probed on a CPU without
  /// IFMA) each square is `HashToElement`'s two Montgomery products,
  /// x * ToMont(x) / R; on the IFMA lane it is one exponent-2
  /// `ModExpBatch`, whose three products per base run sixteen wide.
  void SquareBatch(std::span<U256> x,
                   FixedExponentContext::Lane lane =
                       &FixedExponentContext::ModExpBatch) const;

  /// True iff `a` is in [1, p) and a^q == 1 (i.e. a is in the subgroup).
  bool IsElement(const U256& a) const;

  /// Group operations. Inputs must be group elements.
  U256 Mul(const U256& a, const U256& b) const { return ctx_.ModMul(a, b); }
  U256 Product(std::span<const U256> elements) const {
    return ctx_.Product(elements);
  }
  U256 Exp(const U256& base, const U256& e) const { return ctx_.ModExp(base, e); }
  Result<U256> Inverse(const U256& a) const { return ctx_.ModInversePrime(a); }

  /// Windowed exponentiation context for a fixed exponent over the field
  /// modulus p. `FixedExp(e).ModExp(x)` returns exactly `Exp(x, e)` for
  /// every x, with the per-exponent window schedule amortized across
  /// calls — the fast path for the commutative cipher's per-key streams.
  Result<FixedExponentContext> FixedExp(const U256& e) const {
    return FixedExponentContext::Create(ctx_, e);
  }

  /// Uniform exponent in [1, q).
  U256 RandomExponent(Rng& rng) const;

  /// Inverse of exponent e modulo the (prime) group order q.
  Result<U256> InverseExponent(const U256& e) const;

  /// Identity element.
  static U256 One() { return U256(1); }

 private:
  PrimeGroup(MontgomeryContext ctx, MontgomeryContext order_ctx, U256 order,
             FixedExponentContext square)
      : ctx_(std::move(ctx)),
        order_ctx_(std::move(order_ctx)),
        order_(order),
        square_(std::move(square)) {}

  MontgomeryContext ctx_;        // arithmetic mod p
  MontgomeryContext order_ctx_;  // arithmetic mod q (for exponent inverses)
  U256 order_;                   // q = (p - 1) / 2
  FixedExponentContext square_;  // x -> x^2 mod p, for the IFMA lane
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_GROUP_H_
