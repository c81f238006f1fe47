// Differential suite for the batched hash-to-group
// (`PrimeGroup::HashToElements`) and the Mu product
// (`MontgomeryContext::Product` on both its lanes, `MuHashOfFactors`):
// every batch must equal the per-call `HashToElement` byte for byte on
// both library groups, at every ragged size of the IFMA lane's
// sixteen-base steps, on the lane the probe picks and on each lane
// called by name; a digest that is 0 mod p must take the re-derive path;
// every product must equal the `ModMul` chain; and the commitment of a
// tile must equal adding its tuples one by one.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "crypto/group.h"
#include "crypto/modmath.h"
#include "crypto/multiset_hash.h"

namespace hsis::crypto {
namespace {

const std::vector<size_t> kBatchSizes = {0,  1,  7,   8,   9,  15,
                                         16, 17, 255, 256, 257};

std::vector<Bytes> Tuples(size_t n, const std::string& prefix) {
  std::vector<Bytes> tuples;
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(ToBytes(prefix + std::to_string(i)));
  }
  return tuples;
}

std::vector<U256> PerCall(const PrimeGroup& group,
                          const std::vector<Bytes>& tuples) {
  std::vector<U256> out;
  for (const Bytes& t : tuples) out.push_back(group.HashToElement(t));
  return out;
}

std::vector<U256> Batched(const PrimeGroup& group,
                          const std::vector<Bytes>& tuples,
                          FixedExponentContext::Lane lane) {
  std::vector<U256> out(tuples.size());
  group.HashToElements([&](size_t i) -> const Bytes& { return tuples[i]; },
                       out, lane);
  return out;
}

void ExpectBatchesMatchPerCall(FixedExponentContext::Lane lane) {
  for (const PrimeGroup* group :
       {&PrimeGroup::Default(), &PrimeGroup::SmallTestGroup()}) {
    for (size_t n : kBatchSizes) {
      const std::vector<Bytes> tuples = Tuples(n, "cust-");
      EXPECT_EQ(Batched(*group, tuples, lane), PerCall(*group, tuples))
          << "modulus " << group->modulus().ToHex() << ", batch of " << n;
    }
  }
}

TEST(HashToElementsTest, ActiveLaneMatchesPerCall) {
  ExpectBatchesMatchPerCall(&FixedExponentContext::ModExpBatch);
  // The default argument is the probed lane.
  const std::vector<Bytes> tuples = Tuples(40, "default-");
  std::vector<U256> out(tuples.size());
  PrimeGroup::Default().HashToElements(
      [&](size_t i) -> const Bytes& { return tuples[i]; }, out);
  EXPECT_EQ(out, PerCall(PrimeGroup::Default(), tuples));
}

TEST(HashToElementsTest, ScalarLaneMatchesPerCall) {
  ExpectBatchesMatchPerCall(&FixedExponentContext::ModExpBatchScalar);
}

TEST(HashToElementsTest, IfmaLaneMatchesPerCall) {
  if (!FixedExponentContext::IfmaSupported()) {
    GTEST_SKIP() << "CPU lacks AVX-512 IFMA; only the scalar lane ran";
  }
  ExpectBatchesMatchPerCall(&FixedExponentContext::ModExpBatchIfma);
}

// Both zeros mod p a digest can be, 0 and p itself, square to 0 on every
// lane, so the batch sees them as the re-derive cases.
TEST(HashToElementsTest, BothZeroResiduesSquareToZeroOnEveryLane) {
  std::vector<FixedExponentContext::Lane> lanes = {
      &FixedExponentContext::ModExpBatch,
      &FixedExponentContext::ModExpBatchScalar};
  if (FixedExponentContext::IfmaSupported()) {
    lanes.push_back(&FixedExponentContext::ModExpBatchIfma);
  }
  for (const PrimeGroup* group :
       {&PrimeGroup::Default(), &PrimeGroup::SmallTestGroup()}) {
    Result<FixedExponentContext> square = group->FixedExp(U256(2));
    ASSERT_TRUE(square.ok());
    for (FixedExponentContext::Lane lane : lanes) {
      // Planted among nonzero values, at both ends of a 16-base step.
      std::vector<U256> x(17, U256(3));
      x[0] = U256(0);
      x[15] = group->modulus();
      x[16] = U256(0);
      ((*square).*lane)(x, x);
      EXPECT_TRUE(x[0].IsZero());
      EXPECT_TRUE(x[15].IsZero());
      EXPECT_TRUE(x[16].IsZero());
      EXPECT_EQ(x[1], U256(9));
    }
  }
}

// In the group of p = 7 one digest in seven is 0 mod p, so a batch of
// 257 takes the re-derive path dozens of times: each of those must
// still equal the per-call hash, which re-derives from data || 0x01.
TEST(HashToElementsTest, ZeroResiduesTakeTheRederivePath) {
  Result<PrimeGroup> tiny = PrimeGroup::Create(U256(7));
  ASSERT_TRUE(tiny.ok());
  const std::vector<Bytes> tuples = Tuples(257, "tiny-");
  size_t rederived = 0;
  for (const Bytes& t : tuples) {
    if (DivMod(U256::FromBytesBE(Sha256::Hash(t)), U256(7))
            .remainder.IsZero()) {
      ++rederived;
    }
  }
  EXPECT_GT(rederived, 10u);
  std::vector<FixedExponentContext::Lane> lanes = {
      &FixedExponentContext::ModExpBatch,
      &FixedExponentContext::ModExpBatchScalar};
  if (FixedExponentContext::IfmaSupported()) {
    lanes.push_back(&FixedExponentContext::ModExpBatchIfma);
  }
  const std::vector<U256> want = PerCall(*tiny, tuples);
  for (const U256& h : want) EXPECT_TRUE(tiny->IsElement(h));
  for (FixedExponentContext::Lane lane : lanes) {
    EXPECT_EQ(Batched(*tiny, tuples, lane), want);
  }
}

// `SquareBatch` on every lane equals HashToElement's square,
// x * ToMont(x) / R, and the long-division x^2 mod p, for any U256 x:
// reduced or not, across the IFMA lane's sixteen-base steps, and for
// the multiples of p, the digests HashToElement re-derives, which must
// square to 0 so that HashToElements sends them down that path.
TEST(HashToElementsTest, EveryLaneSquaresLikeHashToElement) {
  std::vector<FixedExponentContext::Lane> lanes = {
      &FixedExponentContext::ModExpBatch,
      &FixedExponentContext::ModExpBatchScalar};
  if (FixedExponentContext::IfmaSupported()) {
    lanes.push_back(&FixedExponentContext::ModExpBatchIfma);
  }
  Rng rng(42);
  for (const PrimeGroup* group :
       {&PrimeGroup::Default(), &PrimeGroup::SmallTestGroup()}) {
    const U256 p = group->modulus();
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(p);
    ASSERT_TRUE(ctx.ok());
    std::vector<U256> x = {U256(0), U256(1), p - U256(1), p,
                           U256(~0ULL, ~0ULL, ~0ULL, ~0ULL)};
    std::vector<size_t> multiples_of_p = {0, 3};
    if (p.BitLength() <= 64) {
      // Multiples of p up to 2^256: p·2^k and p·(2^k + 1).
      for (size_t k : {1, 64, 150, 191}) {
        multiples_of_p.push_back(x.size());
        x.push_back(p << k);
        multiples_of_p.push_back(x.size());
        x.push_back((p << k) + p);
      }
    }
    while (x.size() < 40) x.push_back(U256::FromBytesBE(rng.RandomBytes(32)));
    for (size_t i : multiples_of_p) {
      ASSERT_TRUE(DivMod(x[i], p).remainder.IsZero()) << x[i].ToHex();
    }
    for (FixedExponentContext::Lane lane : lanes) {
      std::vector<U256> squared = x;
      group->SquareBatch(squared, lane);
      for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(squared[i], ctx->MontMul(x[i], ctx->ToMont(x[i])))
            << "modulus " << p.ToHex() << ", x = " << x[i].ToHex();
        EXPECT_EQ(squared[i], ModMulSlow(x[i], x[i], p))
            << "modulus " << p.ToHex() << ", x = " << x[i].ToHex();
      }
      for (size_t i : multiples_of_p) {
        EXPECT_TRUE(squared[i].IsZero()) << x[i].ToHex();
      }
    }
  }
}

using ProductLane = U256 (MontgomeryContext::*)(std::span<const U256>) const;

/// `lane` against the `ModMul` chain on both group moduli and the
/// subgroup order, at every ragged size of the IFMA lane's sixteen-wide
/// steps, with any U256 factor, reduced or not.
void ExpectProductsMatchModMul(ProductLane lane) {
  Rng rng(36);
  std::vector<size_t> sizes = kBatchSizes;
  sizes.insert(sizes.end(), {31, 32, 33, 63, 64, 65, 1000});
  const U256 all_ones(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  for (const U256& m : {PrimeGroup::Default().modulus(),
                        PrimeGroup::SmallTestGroup().modulus(),
                        PrimeGroup::Default().order()}) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(m);
    ASSERT_TRUE(ctx.ok());
    for (size_t n : sizes) {
      std::vector<U256> factors(n);
      for (U256& f : factors) f = U256::FromBytesBE(rng.RandomBytes(32));
      if (n > 2) factors[n / 2] = all_ones;
      U256 want(1);
      for (const U256& f : factors) want = ctx->ModMul(want, f);
      EXPECT_EQ(((*ctx).*lane)(factors), want)
          << "modulus " << m.ToHex() << ", " << n << " factors";
    }
  }
}

TEST(MontgomeryProductTest, ActiveLaneMatchesModMulChain) {
  ExpectProductsMatchModMul(&MontgomeryContext::Product);
}

TEST(MontgomeryProductTest, ScalarLaneMatchesModMulChain) {
  ExpectProductsMatchModMul(&MontgomeryContext::ProductScalar);
}

TEST(MontgomeryProductTest, IfmaLaneMatchesModMulChain) {
  if (!FixedExponentContext::IfmaSupported()) {
    GTEST_SKIP() << "CPU lacks AVX-512 IFMA; only the scalar lane ran";
  }
  ExpectProductsMatchModMul(&MontgomeryContext::ProductIfma);
}

TEST(MuHashOfFactorsTest, EqualsTheAddChain) {
  for (const PrimeGroup* group :
       {&PrimeGroup::Default(), &PrimeGroup::SmallTestGroup()}) {
    Result<MultisetHashFamily> family = MultisetHashFamily::CreateMu(*group);
    ASSERT_TRUE(family.ok());
    for (size_t n : {size_t{0}, size_t{1}, size_t{255}, size_t{256}}) {
      const std::vector<Bytes> tuples = Tuples(n, "tile-");
      std::unique_ptr<MultisetHash> chain = family->NewHash();
      for (const Bytes& t : tuples) chain->Add(t);
      const std::vector<U256> factors = PerCall(*group, tuples);
      EXPECT_EQ(family->MuHashOfFactors(factors)->Serialize(),
                chain->Serialize())
          << "modulus " << group->modulus().ToHex() << ", tile of " << n;
    }
  }
}

}  // namespace
}  // namespace hsis::crypto
