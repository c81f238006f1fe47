#include "crypto/group.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hsis::crypto {
namespace {

TEST(PrimeGroupTest, DefaultGroupProperties) {
  const PrimeGroup& g = PrimeGroup::Default();
  EXPECT_EQ(g.modulus().BitLength(), 256u);
  EXPECT_EQ(g.order(), (g.modulus() - U256(1)) >> 1);
}

TEST(PrimeGroupTest, CreateRejectsNonOdd) {
  EXPECT_FALSE(PrimeGroup::Create(U256(100)).ok());
  EXPECT_FALSE(PrimeGroup::Create(U256(5)).ok());  // below minimum
}

TEST(PrimeGroupTest, CreateWithPrimalityCheckRejectsComposite) {
  // 2q+1 with composite q shape: 27 = 2*13+1 and 13 is prime but 27 = 3^3.
  EXPECT_FALSE(PrimeGroup::Create(U256(27), true).ok());
  EXPECT_TRUE(PrimeGroup::Create(U256(23), true).ok());  // 23 = 2*11+1
}

TEST(PrimeGroupTest, HashToElementProducesSubgroupElements) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  for (int i = 0; i < 30; ++i) {
    Bytes data = ToBytes("element-" + std::to_string(i));
    U256 e = g.HashToElement(data);
    EXPECT_TRUE(g.IsElement(e)) << i;
  }
}

TEST(PrimeGroupTest, HashToElementDeterministic) {
  const PrimeGroup& g = PrimeGroup::Default();
  EXPECT_EQ(g.HashToElement(ToBytes("x")), g.HashToElement(ToBytes("x")));
  EXPECT_NE(g.HashToElement(ToBytes("x")), g.HashToElement(ToBytes("y")));
}

TEST(PrimeGroupTest, IsElementRejectsOutOfRange) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  EXPECT_FALSE(g.IsElement(U256(0)));
  EXPECT_FALSE(g.IsElement(g.modulus()));
  EXPECT_TRUE(g.IsElement(U256(1)));  // identity
  EXPECT_TRUE(g.IsElement(U256(4)));  // 2^2 is always a QR
}

TEST(PrimeGroupTest, NonResidueRejected) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  // p = 2q+1 with q odd => 2 divides (p-1)/2 never... -1 is a non-residue
  // for p ≡ 3 (mod 4), which holds for all safe primes > 7.
  U256 minus_one = g.modulus() - U256(1);
  EXPECT_FALSE(g.IsElement(minus_one));
}

TEST(PrimeGroupTest, MulExpInverseConsistency) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Rng rng(123);
  for (int i = 0; i < 20; ++i) {
    U256 a = g.HashToElement(rng.RandomBytes(8));
    U256 b = g.HashToElement(rng.RandomBytes(8));
    EXPECT_EQ(g.Mul(a, b), g.Mul(b, a));
    Result<U256> inv = g.Inverse(a);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ(g.Mul(a, *inv), PrimeGroup::One());
    // a^q == 1 (Lagrange)
    EXPECT_EQ(g.Exp(a, g.order()), PrimeGroup::One());
  }
}

TEST(PrimeGroupTest, RandomExponentInRange) {
  const PrimeGroup& g = PrimeGroup::Default();
  Rng rng(321);
  for (int i = 0; i < 20; ++i) {
    U256 e = g.RandomExponent(rng);
    EXPECT_FALSE(e.IsZero());
    EXPECT_LT(e, g.order());
  }
}

TEST(PrimeGroupTest, InverseExponentUndoesExp) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    U256 x = g.HashToElement(rng.RandomBytes(8));
    U256 e = g.RandomExponent(rng);
    Result<U256> d = g.InverseExponent(e);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(g.Exp(g.Exp(x, e), *d), x);
  }
}

// Frozen outputs captured from the long-division (DivMod) implementation
// of HashToElement and RandomExponent, before the Montgomery reduction
// replaced it. The 64-bit group reduces every digest, so its pins cover
// the ToMont reduction path.
std::vector<Bytes> PinnedInputs() {
  return {Bytes{},
          ToBytes("x"),
          ToBytes("alice@example.com"),
          ToBytes("tuple-0000000001"),
          Bytes(32, 0x00),
          Bytes(64, 0xff),
          ToBytes("The quick brown fox jumps over the lazy dog"),
          Bytes(1000, 0x5a)};
}

void ExpectHashPins(const PrimeGroup& g, const std::vector<std::string>& pins) {
  const std::vector<Bytes> inputs = PinnedInputs();
  ASSERT_EQ(inputs.size(), pins.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(g.HashToElement(inputs[i]).ToHex(), pins[i]) << "input " << i;
  }
}

TEST(PrimeGroupTest, HashToElementPinnedDefaultGroup) {
  ExpectHashPins(PrimeGroup::Default(), {
      "8fe11a072f02d22b10a3a1b0d2bc902ebfdbd0b45d908ce392a0dc23ad371da",
      "6a8af878fa817d29cadc6200e6b7f1d89eb5fb86adcdc5e2b7e239c749c006fe",
      "46f1b3c8ccf21e80db71e8433f8fd9d38c44bd4196efba7e0e7c4108f7346df",
      "7384430d55a577eebe324edf93d6b7567f8454c4401dba9e8698c9f31a5dc1d1",
      "17759244de10593f5fe665f6dac8c6362eee6973923e0aa3fa65e2abefb57d81",
      "c8b8d69930fe80566ed7709e9a63821470e373bfd2eee16f230956a9d71a60b4",
      "9672b877614f947f9a0f4aed0f2455271901869823c1a974c87ff163f349992d",
      "4c81bebe90eba91921cd8f61efe8277bff3e2fafdfc09e83a33ee12a62b8cf9e",
  });
}

TEST(PrimeGroupTest, HashToElementPinnedSmallGroup) {
  ExpectHashPins(PrimeGroup::SmallTestGroup(), {
      "5a246bd89b82b9e9",
      "915e974a44b9bbb5",
      "365caed091b818be",
      "2929a6b53b45f4d9",
      "8421536f492eb382",
      "721f6f401f608d7d",
      "53958344f7f833d1",
      "8ef240f11853e79c",
  });
}

TEST(PrimeGroupTest, RandomExponentPinned) {
  // Same RNG draws and the same exponents as the DivMod reduction.
  const std::vector<std::string> default_pins = {
      "2e77d7135a71480e65107a8aeef337c80150ee154b3172126ba4e2aba623e328",
      "401a37e93a5c53961782f3f5584f9a87f9c37b8e10f2497a3464829bf03316d6",
      "7e906dd784d152ce935c5a1ea4ace9f82bad2e7c00814e4133dfbc768c31d18",
      "1f46741e8cfd10b0974d8c4311d5b2a6607992a832ed54dacd12742ab1abe8c5",
  };
  const std::vector<std::string> small_pins = {
      "254586d5fee4889c",
      "335bcad504bd527c",
      "40dbe55463504768",
      "1e374b3c1c93fc55",
  };
  Rng rng(2024);
  for (const std::string& pin : default_pins) {
    EXPECT_EQ(PrimeGroup::Default().RandomExponent(rng).ToHex(), pin);
  }
  Rng small_rng(2024);
  for (const std::string& pin : small_pins) {
    EXPECT_EQ(PrimeGroup::SmallTestGroup().RandomExponent(small_rng).ToHex(),
              pin);
  }
}

}  // namespace
}  // namespace hsis::crypto
