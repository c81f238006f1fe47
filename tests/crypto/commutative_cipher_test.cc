#include "crypto/commutative_cipher.h"

#include <gtest/gtest.h>

#include <vector>

namespace hsis::crypto {
namespace {

TEST(CommutativeCipherTest, EncryptDecryptRoundTrip) {
  Rng rng(1);
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Result<CommutativeCipher> c = CommutativeCipher::Create(g, rng);
  ASSERT_TRUE(c.ok());
  for (int i = 0; i < 20; ++i) {
    U256 x = g.HashToElement(rng.RandomBytes(8));
    EXPECT_EQ(c->Decrypt(c->Encrypt(x)), x);
  }
}

TEST(CommutativeCipherTest, CommutativityTwoKeys) {
  Rng rng(2);
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Result<CommutativeCipher> c1 = CommutativeCipher::Create(g, rng);
  Result<CommutativeCipher> c2 = CommutativeCipher::Create(g, rng);
  ASSERT_TRUE(c1.ok() && c2.ok());
  for (int i = 0; i < 20; ++i) {
    U256 x = g.HashToElement(rng.RandomBytes(8));
    EXPECT_EQ(c1->Encrypt(c2->Encrypt(x)), c2->Encrypt(c1->Encrypt(x)));
  }
}

TEST(CommutativeCipherTest, CommutativityThreeKeys) {
  Rng rng(3);
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Result<CommutativeCipher> c1 = CommutativeCipher::Create(g, rng);
  Result<CommutativeCipher> c2 = CommutativeCipher::Create(g, rng);
  Result<CommutativeCipher> c3 = CommutativeCipher::Create(g, rng);
  ASSERT_TRUE(c1.ok() && c2.ok() && c3.ok());
  U256 x = g.HashToElement(ToBytes("tuple"));
  U256 a = c1->Encrypt(c2->Encrypt(c3->Encrypt(x)));
  U256 b = c3->Encrypt(c1->Encrypt(c2->Encrypt(x)));
  U256 c = c2->Encrypt(c3->Encrypt(c1->Encrypt(x)));
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(CommutativeCipherTest, PartialDecryptionPeelsOneLayer) {
  Rng rng(4);
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Result<CommutativeCipher> c1 = CommutativeCipher::Create(g, rng);
  Result<CommutativeCipher> c2 = CommutativeCipher::Create(g, rng);
  ASSERT_TRUE(c1.ok() && c2.ok());
  U256 x = g.HashToElement(ToBytes("t"));
  U256 doubly = c1->Encrypt(c2->Encrypt(x));
  EXPECT_EQ(c1->Decrypt(doubly), c2->Encrypt(x));
  EXPECT_EQ(c2->Decrypt(doubly), c1->Encrypt(x));
}

TEST(CommutativeCipherTest, EncryptionIsInjectiveOnSamples) {
  Rng rng(5);
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Result<CommutativeCipher> c = CommutativeCipher::Create(g, rng);
  ASSERT_TRUE(c.ok());
  std::set<std::string> images;
  for (int i = 0; i < 100; ++i) {
    U256 x = g.HashToElement(ToBytes("elem" + std::to_string(i)));
    images.insert(c->Encrypt(x).ToHex());
  }
  EXPECT_EQ(images.size(), 100u);
}

TEST(CommutativeCipherTest, EqualPlaintextsEqualCiphertexts) {
  // Deterministic: matching is exactly what the intersection protocol uses.
  Rng rng(6);
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Result<CommutativeCipher> c = CommutativeCipher::Create(g, rng);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->EncryptBytes(ToBytes("alice")), c->EncryptBytes(ToBytes("alice")));
  EXPECT_NE(c->EncryptBytes(ToBytes("alice")), c->EncryptBytes(ToBytes("bob")));
}

TEST(CommutativeCipherTest, CreateWithKeyValidatesRange) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  EXPECT_FALSE(CommutativeCipher::CreateWithKey(g, U256(0)).ok());
  EXPECT_FALSE(CommutativeCipher::CreateWithKey(g, g.order()).ok());
  EXPECT_TRUE(CommutativeCipher::CreateWithKey(g, U256(12345)).ok());
}

TEST(CommutativeCipherTest, DistinctKeysDistinctCiphertexts) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Result<CommutativeCipher> c1 = CommutativeCipher::CreateWithKey(g, U256(11));
  Result<CommutativeCipher> c2 = CommutativeCipher::CreateWithKey(g, U256(13));
  ASSERT_TRUE(c1.ok() && c2.ok());
  U256 x = g.HashToElement(ToBytes("v"));
  EXPECT_NE(c1->Encrypt(x), c2->Encrypt(x));
}

TEST(CommutativeCipherTest, WorksOnDefault256BitGroup) {
  Rng rng(7);
  const PrimeGroup& g = PrimeGroup::Default();
  Result<CommutativeCipher> c1 = CommutativeCipher::Create(g, rng);
  Result<CommutativeCipher> c2 = CommutativeCipher::Create(g, rng);
  ASSERT_TRUE(c1.ok() && c2.ok());
  U256 x = g.HashToElement(ToBytes("production-sized group"));
  EXPECT_EQ(c1->Encrypt(c2->Encrypt(x)), c2->Encrypt(c1->Encrypt(x)));
  EXPECT_EQ(c1->Decrypt(c1->Encrypt(x)), x);
}

// Z_p^* has order 2q, so a word outside the subgroup, such as p - 1 or
// p - h for an element h, carries a sign that x -> x^e would flip with
// the parity of e. The cipher exponentiates by the even representative
// of e mod q: the reply to such a word is the same for e and e + q and
// tells a peer nothing about the key's parity.
TEST(CommutativeCipherTest, RepliesDoNotRevealKeyParity) {
  for (const PrimeGroup* g : {&PrimeGroup::SmallTestGroup(),
                              &PrimeGroup::Default()}) {
    Rng rng(8);
    const U256 minus_one = g->modulus() - U256(1);
    for (int k = 0; k < 200; ++k) {
      Result<CommutativeCipher> c = CommutativeCipher::Create(*g, rng);
      ASSERT_TRUE(c.ok());
      const U256 h = g->HashToElement(rng.RandomBytes(8));
      const U256 minus_h = g->modulus() - h;
      EXPECT_EQ(c->Encrypt(minus_one), U256(1)) << "key " << k;
      EXPECT_EQ(c->Encrypt(minus_h), c->Encrypt(h)) << "key " << k;
      EXPECT_EQ(c->Encrypt(h), g->Exp(h, c->key())) << "key " << k;

      const std::vector<U256> in = {minus_one, h, minus_h};
      std::vector<U256> out(in.size());
      c->EncryptBatch(in, out);
      EXPECT_EQ(out[0], U256(1)) << "key " << k;
      EXPECT_EQ(out[2], out[1]) << "key " << k;
      EXPECT_EQ(out[1], c->Encrypt(h)) << "key " << k;
    }
  }
}

}  // namespace
}  // namespace hsis::crypto
