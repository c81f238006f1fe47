#include "crypto/modmath.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "crypto/prime.h"

namespace hsis::crypto {
namespace {

U256 RandBelow(Rng& rng, const U256& m) {
  return DivMod(U256::FromBytesBE(rng.RandomBytes(32)), m).remainder;
}

TEST(ModMathTest, ModAddWraps) {
  U256 m(97);
  EXPECT_EQ(ModAdd(U256(50), U256(60), m), U256(13));
  EXPECT_EQ(ModAdd(U256(0), U256(0), m), U256(0));
  EXPECT_EQ(ModAdd(U256(96), U256(1), m), U256(0));
}

TEST(ModMathTest, ModAddHandlesCarryOut) {
  // Modulus with the top bit set: a + b can overflow 256 bits.
  U256 m = (U256(1) << 255) + U256(1);  // odd, > 2^255
  U256 a = m - U256(1);
  U256 b = m - U256(2);
  // (a + b) mod m == m - 3
  EXPECT_EQ(ModAdd(a, b, m), m - U256(3));
}

TEST(ModMathTest, ModSubWraps) {
  U256 m(97);
  EXPECT_EQ(ModSub(U256(10), U256(20), m), U256(87));
  EXPECT_EQ(ModSub(U256(20), U256(10), m), U256(10));
  EXPECT_EQ(ModSub(U256(5), U256(5), m), U256(0));
}

TEST(ModMathTest, ModMulSlowSmall) {
  EXPECT_EQ(ModMulSlow(U256(12), U256(13), U256(100)), U256(56));
}

TEST(ModMathTest, GcdBasics) {
  EXPECT_EQ(Gcd(U256(12), U256(18)), U256(6));
  EXPECT_EQ(Gcd(U256(17), U256(13)), U256(1));
  EXPECT_EQ(Gcd(U256(0), U256(5)), U256(5));
  EXPECT_EQ(Gcd(U256(5), U256(0)), U256(5));
}

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_FALSE(MontgomeryContext::Create(U256(100)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(U256(1)).ok());
  EXPECT_TRUE(MontgomeryContext::Create(U256(101)).ok());
}

TEST(MontgomeryTest, MontMulMatchesSlowMul) {
  Rng rng(1234);
  std::vector<U256> moduli = {
      U256(101),
      U256(0x9390aa633eae9f7fULL),
      DefaultSafePrime(),
      DefaultSubgroupOrder(),
  };
  for (const U256& m : moduli) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(m);
    ASSERT_TRUE(ctx.ok());
    for (int i = 0; i < 50; ++i) {
      U256 a = RandBelow(rng, m), b = RandBelow(rng, m);
      EXPECT_EQ(ctx->ModMul(a, b), ModMulSlow(a, b, m))
          << "modulus " << m.ToHex();
    }
  }
}

TEST(MontgomeryTest, ToFromMontRoundTrip) {
  Rng rng(99);
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(DefaultSafePrime());
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 50; ++i) {
    U256 a = RandBelow(rng, ctx->modulus());
    EXPECT_EQ(ctx->FromMont(ctx->ToMont(a)), a);
  }
}

TEST(MontgomeryTest, ModExpSmallCases) {
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(U256(1000003));
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->ModExp(U256(2), U256(10)), U256(1024));
  EXPECT_EQ(ctx->ModExp(U256(5), U256(0)), U256(1));
  EXPECT_EQ(ctx->ModExp(U256(0), U256(5)), U256(0));
  EXPECT_EQ(ctx->ModExp(U256(7), U256(1)), U256(7));
}

TEST(MontgomeryTest, ModExpFermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p and a not divisible by p.
  Rng rng(55);
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(DefaultSafePrime());
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 10; ++i) {
    U256 a = RandBelow(rng, ctx->modulus());
    if (a.IsZero()) continue;
    EXPECT_EQ(ctx->ModExp(a, ctx->modulus() - U256(1)), U256(1));
  }
}

TEST(MontgomeryTest, ModExpMultiplicativeHomomorphism) {
  // a^(x+y) == a^x * a^y mod p.
  Rng rng(66);
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(DefaultSafePrime());
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 10; ++i) {
    U256 a = RandBelow(rng, ctx->modulus());
    U256 x = U256(rng.UniformUint64(1 << 20));
    U256 y = U256(rng.UniformUint64(1 << 20));
    EXPECT_EQ(ctx->ModExp(a, x + y),
              ctx->ModMul(ctx->ModExp(a, x), ctx->ModExp(a, y)));
  }
}

TEST(MontgomeryTest, ModInversePrime) {
  Rng rng(77);
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(DefaultSafePrime());
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 10; ++i) {
    U256 a = RandBelow(rng, ctx->modulus());
    if (a.IsZero()) continue;
    Result<U256> inv = ctx->ModInversePrime(a);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ(ctx->ModMul(a, *inv), U256(1));
  }
  EXPECT_FALSE(ctx->ModInversePrime(U256(0)).ok());
}

// Independent oracle for the unrolled kernel: U512 long division
// (ModMulSlow, DivMod) shares no code with it. MontMul(a, b) is the unique
// t < n with t * R == a * b (mod n), R = 2^256.

constexpr U256 kAllOnes(~0ULL, ~0ULL, ~0ULL, ~0ULL);  // 2^256 - 1

/// p, q, the 64-bit test group, and the largest odd modulus: only a
/// modulus this close to 2^256 makes a CIOS round carry out of its top
/// window limb.
std::vector<U256> OracleModuli() {
  return {DefaultSafePrime(), DefaultSubgroupOrder(), SmallSafePrime(),
          kAllOnes};
}

U256 RModN(const U256& n) { return (U512(1) << 256).Mod(n); }

/// Random values below n plus the boundary operands {0, 1, n-1, R mod n}.
std::vector<U256> OracleOperands(Rng& rng, const U256& n) {
  std::vector<U256> v = {U256(0), U256(1), n - U256(1), RModN(n)};
  for (int i = 0; i < 60; ++i) v.push_back(RandBelow(rng, n));
  return v;
}

void ExpectMontProduct(const U256& got, const U256& a, const U256& b,
                       const U256& n) {
  EXPECT_LT(got, n) << "not fully reduced: a " << a.ToHex() << " b "
                    << b.ToHex() << " n " << n.ToHex();
  EXPECT_EQ(ModMulSlow(got, RModN(n), n), ModMulSlow(a, b, n))
      << "a " << a.ToHex() << " b " << b.ToHex() << " n " << n.ToHex();
}

TEST(MontgomeryOracleTest, MontMulMatchesLongDivision) {
  Rng rng(31337);
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    const std::vector<U256> ops = OracleOperands(rng, n);
    for (const U256& a : ops) {
      for (size_t j = 0; j < ops.size(); j += 7) {
        ExpectMontProduct(ctx->MontMul(a, ops[j]), a, ops[j], n);
      }
      ExpectMontProduct(ctx->MontMul(a, n - U256(1)), a, n - U256(1), n);
    }
  }
}

TEST(MontgomeryOracleTest, MontSqrMatchesLongDivision) {
  Rng rng(4711);
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    for (const U256& a : OracleOperands(rng, n)) {
      ExpectMontProduct(ctx->MontSqr(a), a, a, n);
    }
  }
}

TEST(MontgomeryOracleTest, FirstOperandMayBeUnreduced) {
  // The kernel bound holds for any a < 2^256 when b < n; ModMul relies on
  // it and so accepts any inputs.
  Rng rng(2718);
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    std::vector<U256> big = {n, n + U256(1), kAllOnes};
    for (int i = 0; i < 30; ++i) {
      big.push_back(U256::FromBytesBE(rng.RandomBytes(32)));
    }
    for (const U256& a : big) {
      const U256 b = RandBelow(rng, n);
      ExpectMontProduct(ctx->MontMul(a, b), a, b, n);
      EXPECT_EQ(ctx->ModMul(a, b), ModMulSlow(a, b, n));
      EXPECT_EQ(ctx->ModMul(b, a), ModMulSlow(a, b, n));
      EXPECT_EQ(ctx->ModMul(a, a), ModMulSlow(a, a, n));
    }
  }
}

TEST(MontgomeryOracleTest, ToMontReducesAnyValue) {
  // FromMont(ToMont(x)) == x mod n for x in {n, n + 1, 2^256 - 1} and
  // random x >= n: the property that lets the group reduce digests and exponents
  // without DivMod.
  Rng rng(1618);
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    std::vector<U256> xs = {n, kAllOnes};
    const U256 room = kAllOnes - n;  // n + r stays below 2^256 for r < room
    if (!room.IsZero()) xs.push_back(n + U256(1));
    for (int i = 0; i < 60 && !room.IsZero(); ++i) {
      xs.push_back(n + RandBelow(rng, room));
    }
    for (const U256& x : xs) {
      const U256 expected = DivMod(x, n).remainder;
      EXPECT_EQ(ctx->FromMont(ctx->ToMont(x)), expected)
          << "x " << x.ToHex() << " n " << n.ToHex();
      EXPECT_EQ(ctx->ToMont(x), ModMulSlow(x, RModN(n), n));
    }
  }
}

}  // namespace
}  // namespace hsis::crypto
