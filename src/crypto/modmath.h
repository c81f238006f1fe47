#ifndef HSIS_CRYPTO_MODMATH_H_
#define HSIS_CRYPTO_MODMATH_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/u256.h"

namespace hsis::crypto {

/// (a + b) mod m; inputs must already be reduced (< m).
U256 ModAdd(const U256& a, const U256& b, const U256& m);

/// (a - b) mod m; inputs must already be reduced (< m).
U256 ModSub(const U256& a, const U256& b, const U256& m);

/// (a * b) mod m via full 512-bit product and long division. Correct for
/// any nonzero modulus; the Montgomery context below is ~50x faster for
/// repeated work modulo one odd modulus.
U256 ModMulSlow(const U256& a, const U256& b, const U256& m);

/// gcd(a, b) by Euclid's algorithm.
U256 Gcd(const U256& a, const U256& b);

/// Precomputed context for fast arithmetic modulo a fixed odd modulus,
/// using Montgomery multiplication (CIOS reduction).
///
/// The kernel is one fully unrolled 4-limb CIOS. For b < n it returns
/// a * b * 2^-256 mod n, fully reduced, for *any* a < 2^256: the working
/// value stays below 2n, so one branch-free conditional subtraction
/// suffices. With b = 2^512 mod n this makes `ToMont` a reduction of any
/// U256, so no group hot path needs long division.
class MontgomeryContext {
 public:
  /// Builds a context; fails unless `modulus` is odd and > 1.
  static Result<MontgomeryContext> Create(const U256& modulus);

  const U256& modulus() const { return n_; }

  /// Converts into / out of the Montgomery domain. Both accept any U256
  /// and return a value below n, so FromMont(ToMont(x)) == x mod n.
  U256 ToMont(const U256& a) const;
  U256 FromMont(const U256& a) const;

  /// a * b * 2^-256 mod n, below n. Needs b < n; a may be any U256.
  U256 MontMul(const U256& a, const U256& b) const;

  /// MontMul(a, a) for a < n. A dedicated square did not beat the
  /// product once inlined, so this forwards to it.
  U256 MontSqr(const U256& a) const;

  /// (a * b) mod n for any inputs (two Montgomery products).
  U256 ModMul(const U256& a, const U256& b) const;

  /// The product of `factors` mod n (1 when empty), below n, for any
  /// U256 factors. Products of at least `kIfmaProductMin` factors run on
  /// the IFMA lane when the CPU probe selected it (DESIGN §6.9), shorter
  /// ones on the scalar lane; both give identical bytes.
  U256 Product(std::span<const U256> factors) const;

  /// The scalar lane of `Product`: one Montgomery product per factor
  /// plus a fixed-up power of R, instead of `ModMul`'s two per factor.
  U256 ProductScalar(std::span<const U256> factors) const;

  /// The IFMA lane of `Product`: sixteen running products side by side,
  /// joined on the scalar lane. Call it only when
  /// `FixedExponentContext::IfmaSupported()`; otherwise it aborts.
  U256 ProductIfma(std::span<const U256> factors) const;

  /// The shortest product `Product` runs on the IFMA lane: below it the
  /// fixed cost of joining the sixteen lanes outweighs the lanes' gain.
  static constexpr size_t kIfmaProductMin = 64;

  /// base^exp mod n (plain domain), square-and-multiply. A base >= n is
  /// reduced by `ToMont` (the same convention as `ModInversePrime`), so
  /// ModExp(base, e) == ModExp(base mod n, e) for every base. exp == 0
  /// returns 1 for every base (including 0) and exp == 1 returns the
  /// reduced base, both without entering the ladder.
  U256 ModExp(const U256& base, const U256& exp) const;

  /// a^(n-2) mod n — the inverse of `a` when n is prime and a != 0 mod n.
  /// Fails on a == 0. The library only ever inverts modulo primes (the
  /// quadratic-residue subgroup order q and the field prime p).
  Result<U256> ModInversePrime(const U256& a) const;

 private:
  MontgomeryContext(const U256& n, uint64_t n0inv, const U256& r2)
      : n_(n), n0inv_(n0inv), r2_(r2) {}

  U256 n_;         // modulus
  uint64_t n0inv_; // -n^{-1} mod 2^64
  U256 r2_;        // (2^256)^2 mod n
};

/// Sliding-window modular exponentiation for one fixed exponent.
///
/// The commutative cipher raises millions of bases to the *same* secret
/// exponent, so everything that depends only on the exponent — the
/// left-to-right sliding-window schedule — is computed once here and
/// replayed for every base. Each window is at most w bits wide and
/// starts and ends on a set bit, so its digit is odd. Each `ModExp` call
/// builds a table of the odd base powers up to the largest digit in the
/// Montgomery domain, then walks the schedule: the squarings a step
/// names, then one table multiplication. Exactly one `ToMont` and one
/// `FromMont` happen per call; everything in between stays in the
/// Montgomery domain.
///
/// Results are bit-identical to `MontgomeryContext::ModExp(base, e)` for
/// every (base, exponent, modulus): both paths compute the same exact
/// integer base^e mod n, and both reduce a base >= n. This is pinned by
/// the differential suite in tests/crypto/fixed_exponent_test.cc. The
/// ladder is compiled with the Montgomery kernel inlined into it.
///
/// `ModExpBatch` runs the same schedule over a whole span of bases, on
/// one of two lanes (DESIGN §6.9). The scalar lane is the per-call
/// ladder above, one base after another; it compiles everywhere and is
/// the oracle. The IFMA lane (x86-64 only) runs sixteen bases per
/// Montgomery step on AVX-512 IFMA, as two interleaved groups of eight,
/// in radix 2^52 with R = 2^260. A one-time CPUID probe picks the lane;
/// both give identical bytes.
class FixedExponentContext {
 public:
  /// Largest accepted window width. w=6 already needs a 32-entry table
  /// per call; wider windows only pay off for exponents far beyond 256
  /// bits.
  static constexpr int kMaxWindowBits = 6;

  /// Builds the per-exponent schedule. `window_bits` 0 picks the largest
  /// window width automatically from the exponent's bit length (w=4 for
  /// the 256-bit production exponents); explicit values outside
  /// [1, kMaxWindowBits] are InvalidArgument. The Montgomery context is
  /// captured by value so the schedule stays valid when its owner (e.g.
  /// a PrimeGroup inside a moved CommutativeCipher) relocates.
  static Result<FixedExponentContext> Create(const MontgomeryContext& ctx,
                                             const U256& exponent,
                                             int window_bits = 0);

  /// base^exponent mod n; bit-identical to the naive ladder. A base >= n
  /// is reduced mod n first.
  U256 ModExp(const U256& base) const;

  /// out[i] = ModExp(in[i]) for every i, on the lane the CPU probe
  /// selected. `out.size()` must equal `in.size()` (checked, fatal);
  /// `out` may be `in` itself but must not partially overlap it.
  void ModExpBatch(std::span<const U256> in, std::span<U256> out) const;

  /// One of the batch entry points below, for callers that pick a lane.
  using Lane = void (FixedExponentContext::*)(std::span<const U256>,
                                              std::span<U256>) const;

  /// The scalar lane of `ModExpBatch`: `ModExp` per element.
  void ModExpBatchScalar(std::span<const U256> in, std::span<U256> out) const;

  /// The IFMA lane of `ModExpBatch`. Call it only when `IfmaSupported()`;
  /// on other CPUs and architectures it aborts.
  void ModExpBatchIfma(std::span<const U256> in, std::span<U256> out) const;

  /// True iff this build has the IFMA lane, the CPU reports AVX-512F and
  /// AVX-512 IFMA, and the OS saves the ZMM state (probed once).
  static bool IfmaSupported();

  /// The lane every `ModExpBatch` runs: "avx512-ifma" or "scalar".
  static const char* BatchLaneName();

  const U256& exponent() const { return exp_; }
  int window_bits() const { return window_bits_; }

 private:
  FixedExponentContext(const MontgomeryContext& ctx, const U256& exponent,
                       int window_bits);

  /// The body of the IFMA lane, compiled for AVX-512 IFMA; only
  /// `ModExpBatchIfma` calls it, after the CPU check.
  void IfmaLadder(std::span<const U256> in, std::span<U256> out) const;

  /// One step of the schedule: square the accumulator `squarings`
  /// times, then multiply it by base^digit unless `digit` is 0 (only
  /// the last step, for the exponent's trailing zeros, has digit 0).
  struct Step {
    uint16_t squarings;
    uint8_t digit;
  };

  MontgomeryContext ctx_;
  U256 exp_;
  int window_bits_;
  uint8_t first_digit_ = 0;  // the accumulator's start power; 0 iff exp == 0
  uint8_t max_digit_ = 1;    // the largest odd digit the table must hold
  std::vector<Step> steps_;  // after the first window, most significant first

  // Radix-2^52 constants of the IFMA lane, five limbs each, least
  // significant first. R = 2^260.
  using Limbs52 = std::array<uint64_t, 5>;
  Limbs52 n52_;          // the modulus
  Limbs52 rr52_;         // R^2 mod n = 2^520 mod n, for ToMont
  uint64_t n0inv52_;     // -n^{-1} mod 2^52
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_MODMATH_H_
