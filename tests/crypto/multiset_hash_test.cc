#include "crypto/multiset_hash.h"

#include <gtest/gtest.h>

namespace hsis::crypto {
namespace {

class MultisetHashSchemeTest
    : public ::testing::TestWithParam<MultisetHashScheme> {
 protected:
  MultisetHashFamily MakeFamily() const {
    MultisetHashScheme scheme = GetParam();
    bool keyed = scheme == MultisetHashScheme::kXor ||
                 scheme == MultisetHashScheme::kAdd;
    Result<MultisetHashFamily> f =
        MultisetHashFamily::Create(scheme, keyed ? ToBytes("test-key") : Bytes{});
    EXPECT_TRUE(f.ok());
    return *f;
  }

  static std::vector<Bytes> Elements(std::initializer_list<const char*> names) {
    std::vector<Bytes> out;
    for (const char* n : names) out.push_back(ToBytes(n));
    return out;
  }
};

TEST_P(MultisetHashSchemeTest, EmptyHashesEquivalent) {
  MultisetHashFamily f = MakeFamily();
  auto a = f.NewHash();
  auto b = f.NewHash();
  EXPECT_TRUE(a->Equivalent(*b));
  EXPECT_EQ(a->count(), 0u);
}

TEST_P(MultisetHashSchemeTest, OrderIndependence) {
  MultisetHashFamily f = MakeFamily();
  auto a = f.HashMultiset(Elements({"x", "y", "z"}));
  auto b = f.HashMultiset(Elements({"z", "x", "y"}));
  auto c = f.HashMultiset(Elements({"y", "z", "x"}));
  EXPECT_TRUE(a->Equivalent(*b));
  EXPECT_TRUE(b->Equivalent(*c));
  EXPECT_EQ(a->count(), 3u);
}

TEST_P(MultisetHashSchemeTest, DifferentMultisetsDiffer) {
  MultisetHashFamily f = MakeFamily();
  auto a = f.HashMultiset(Elements({"x", "y"}));
  auto b = f.HashMultiset(Elements({"x", "z"}));
  EXPECT_FALSE(a->Equivalent(*b));
}

TEST_P(MultisetHashSchemeTest, InsertionDetected) {
  // The auditing-device scenario: the cheater adds a fabricated tuple.
  MultisetHashFamily f = MakeFamily();
  auto honest = f.HashMultiset(Elements({"alice", "bob", "carol"}));
  auto cheater = f.HashMultiset(Elements({"alice", "bob", "carol", "mallory"}));
  EXPECT_FALSE(honest->Equivalent(*cheater));
}

TEST_P(MultisetHashSchemeTest, DeletionDetected) {
  MultisetHashFamily f = MakeFamily();
  auto honest = f.HashMultiset(Elements({"alice", "bob", "carol"}));
  auto cheater = f.HashMultiset(Elements({"alice", "bob"}));
  EXPECT_FALSE(honest->Equivalent(*cheater));
}

TEST_P(MultisetHashSchemeTest, MultiplicitySensitive) {
  MultisetHashFamily f = MakeFamily();
  auto once = f.HashMultiset(Elements({"x", "y"}));
  auto twice = f.HashMultiset(Elements({"x", "x", "y"}));
  EXPECT_FALSE(once->Equivalent(*twice));
}

TEST_P(MultisetHashSchemeTest, SubstitutionDetectedAtSameCount) {
  // Same cardinality, one element swapped — count alone cannot catch this.
  MultisetHashFamily f = MakeFamily();
  auto a = f.HashMultiset(Elements({"a", "b", "c", "d"}));
  auto b = f.HashMultiset(Elements({"a", "b", "c", "e"}));
  EXPECT_EQ(a->count(), b->count());
  EXPECT_FALSE(a->Equivalent(*b));
}

TEST_P(MultisetHashSchemeTest, IncrementalityMatchesBatch) {
  MultisetHashFamily f = MakeFamily();
  auto batch = f.HashMultiset(Elements({"1", "2", "3", "4", "5"}));
  auto incremental = f.NewHash();
  for (const char* e : {"1", "2", "3", "4", "5"}) {
    incremental->Add(ToBytes(e));
  }
  EXPECT_TRUE(batch->Equivalent(*incremental));
}

TEST_P(MultisetHashSchemeTest, UnionOperatorMatchesConcatenation) {
  // H(M ∪ M') ==H H(M) +H H(M') — the defining incrementality property.
  MultisetHashFamily f = MakeFamily();
  auto m1 = f.HashMultiset(Elements({"a", "b"}));
  auto m2 = f.HashMultiset(Elements({"c", "d", "b"}));
  ASSERT_TRUE(m1->Union(*m2).ok());
  auto all = f.HashMultiset(Elements({"a", "b", "b", "c", "d"}));
  EXPECT_TRUE(m1->Equivalent(*all));
  EXPECT_EQ(m1->count(), 5u);
}

TEST_P(MultisetHashSchemeTest, RemoveUndoesAdd) {
  MultisetHashFamily f = MakeFamily();
  auto h = f.HashMultiset(Elements({"a", "b"}));
  auto reference = h->Clone();
  h->Add(ToBytes("temp"));
  EXPECT_FALSE(h->Equivalent(*reference));
  ASSERT_TRUE(h->Remove(ToBytes("temp")).ok());
  EXPECT_TRUE(h->Equivalent(*reference));
}

TEST_P(MultisetHashSchemeTest, CloneIsIndependent) {
  MultisetHashFamily f = MakeFamily();
  auto h = f.HashMultiset(Elements({"a"}));
  auto clone = h->Clone();
  clone->Add(ToBytes("b"));
  EXPECT_FALSE(h->Equivalent(*clone));
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(clone->count(), 2u);
}

TEST_P(MultisetHashSchemeTest, SerializeDeserializeRoundTrip) {
  MultisetHashFamily f = MakeFamily();
  auto h = f.HashMultiset(Elements({"alpha", "beta", "gamma"}));
  Bytes wire = h->Serialize();
  Result<std::unique_ptr<MultisetHash>> back = f.Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(h->Equivalent(**back));
  EXPECT_EQ((*back)->count(), 3u);
  // The deserialized accumulator must remain incremental.
  (*back)->Add(ToBytes("delta"));
  h->Add(ToBytes("delta"));
  EXPECT_TRUE(h->Equivalent(**back));
}

TEST_P(MultisetHashSchemeTest, DeserializeRejectsGarbage) {
  MultisetHashFamily f = MakeFamily();
  EXPECT_FALSE(f.Deserialize(Bytes{}).ok());
  EXPECT_FALSE(f.Deserialize(Bytes(4, 0xff)).ok());
  Bytes wire = f.NewHash()->Serialize();
  wire[0] = 0x63;  // unknown scheme byte
  EXPECT_FALSE(f.Deserialize(wire).ok());
}

TEST_P(MultisetHashSchemeTest, DeserializeRejectsTrailingBytes) {
  MultisetHashFamily f = MakeFamily();
  Bytes wire = f.HashMultiset(Elements({"alpha", "beta"}))->Serialize();
  wire.push_back(0x00);
  auto back = f.Deserialize(wire);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(MultisetHashSchemeTest, StateIsConstantSize) {
  // Compression property: accumulator size independent of multiset size.
  MultisetHashFamily f = MakeFamily();
  auto small = f.HashMultiset(Elements({"a"}));
  auto big = f.NewHash();
  for (int i = 0; i < 1000; ++i) big->Add(ToBytes("elem" + std::to_string(i)));
  EXPECT_EQ(small->Serialize().size(), big->Serialize().size());
  EXPECT_LE(big->Serialize().size(), 64u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MultisetHashSchemeTest,
    ::testing::Values(MultisetHashScheme::kXor, MultisetHashScheme::kAdd,
                      MultisetHashScheme::kMu, MultisetHashScheme::kVAdd),
    [](const ::testing::TestParamInfo<MultisetHashScheme>& info) {
      switch (info.param) {
        case MultisetHashScheme::kXor: return std::string("Xor");
        case MultisetHashScheme::kAdd: return std::string("Add");
        case MultisetHashScheme::kMu: return std::string("Mu");
        case MultisetHashScheme::kVAdd: return std::string("VAdd");
      }
      return std::string("Unknown");
    });

TEST(MultisetHashFamilyTest, KeyedSchemesRequireKey) {
  EXPECT_FALSE(MultisetHashFamily::Create(MultisetHashScheme::kXor).ok());
  EXPECT_FALSE(MultisetHashFamily::Create(MultisetHashScheme::kAdd).ok());
  EXPECT_TRUE(
      MultisetHashFamily::Create(MultisetHashScheme::kXor, ToBytes("k")).ok());
}

TEST(MultisetHashFamilyTest, UnkeyedSchemesRejectKey) {
  EXPECT_FALSE(
      MultisetHashFamily::Create(MultisetHashScheme::kMu, ToBytes("k")).ok());
  EXPECT_FALSE(
      MultisetHashFamily::Create(MultisetHashScheme::kVAdd, ToBytes("k")).ok());
}

TEST(MultisetHashFamilyTest, DifferentKeysProduceDifferentHashes) {
  Result<MultisetHashFamily> f1 =
      MultisetHashFamily::Create(MultisetHashScheme::kAdd, ToBytes("key1"));
  Result<MultisetHashFamily> f2 =
      MultisetHashFamily::Create(MultisetHashScheme::kAdd, ToBytes("key2"));
  ASSERT_TRUE(f1.ok() && f2.ok());
  auto h1 = f1->HashMultiset({ToBytes("x")});
  auto h2 = f2->HashMultiset({ToBytes("x")});
  EXPECT_NE(h1->Serialize(), h2->Serialize());
}

TEST(MultisetHashFamilyTest, RandomizedNoncesCompareEquivalent) {
  // Comparability (Definition 3): a multiset need not hash to the same
  // value, but ==H must still identify equal multisets.
  Result<MultisetHashFamily> f =
      MultisetHashFamily::Create(MultisetHashScheme::kAdd, ToBytes("key"));
  ASSERT_TRUE(f.ok());
  Rng rng(42);
  auto a = f->NewHashRandomized(rng);
  auto b = f->NewHashRandomized(rng);
  for (const char* e : {"p", "q", "r"}) {
    a->Add(ToBytes(e));
    b->Add(ToBytes(e));
  }
  EXPECT_NE(a->Serialize(), b->Serialize());  // different nonces
  EXPECT_TRUE(a->Equivalent(*b));             // same multiset
  b->Add(ToBytes("s"));
  EXPECT_FALSE(a->Equivalent(*b));
}

TEST(MultisetHashFamilyTest, RandomizedUnionStillCorrect) {
  Result<MultisetHashFamily> f =
      MultisetHashFamily::Create(MultisetHashScheme::kXor, ToBytes("key"));
  ASSERT_TRUE(f.ok());
  Rng rng(43);
  auto a = f->NewHashRandomized(rng);
  a->Add(ToBytes("1"));
  auto b = f->NewHashRandomized(rng);
  b->Add(ToBytes("2"));
  ASSERT_TRUE(a->Union(*b).ok());
  auto expected = f->HashMultiset({ToBytes("1"), ToBytes("2")});
  EXPECT_TRUE(a->Equivalent(*expected));
}

TEST(MultisetHashFamilyTest, CrossSchemeOperationsRejected) {
  Result<MultisetHashFamily> mu = MultisetHashFamily::Create(MultisetHashScheme::kMu);
  Result<MultisetHashFamily> vadd =
      MultisetHashFamily::Create(MultisetHashScheme::kVAdd);
  ASSERT_TRUE(mu.ok() && vadd.ok());
  auto a = mu->NewHash();
  auto b = vadd->NewHash();
  EXPECT_FALSE(a->Union(*b).ok());
  EXPECT_FALSE(a->Equivalent(*b));
  EXPECT_FALSE(mu->Deserialize(b->Serialize()).ok());
}

TEST(MultisetHashFamilyTest, MuHashOnCustomGroup) {
  Result<MultisetHashFamily> f =
      MultisetHashFamily::CreateMu(PrimeGroup::SmallTestGroup());
  ASSERT_TRUE(f.ok());
  auto a = f->HashMultiset({ToBytes("x"), ToBytes("y")});
  auto b = f->HashMultiset({ToBytes("y"), ToBytes("x")});
  EXPECT_TRUE(a->Equivalent(*b));
}

TEST(MultisetHashFamilyTest, UnkeyedSchemesRejectANonce) {
  // Mu and VAdd write an empty length-prefixed nonce; a non-empty one
  // is a forged state, not an ignorable suffix.
  for (MultisetHashScheme scheme :
       {MultisetHashScheme::kMu, MultisetHashScheme::kVAdd}) {
    MultisetHashFamily f = MultisetHashFamily::Create(scheme, Bytes{}).value();
    Bytes wire = f.NewHash()->Serialize();
    ASSERT_GE(wire.size(), 4u);
    wire[wire.size() - 1] = 1;  // nonce length 0 -> 1
    wire.push_back(0xaa);
    auto back = f.Deserialize(wire);
    ASSERT_FALSE(back.ok()) << MultisetHashSchemeName(scheme);
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(MultisetHashFamilyTest, SchemeNames) {
  EXPECT_STREQ(MultisetHashSchemeName(MultisetHashScheme::kXor), "MSet-XOR-Hash");
  EXPECT_STREQ(MultisetHashSchemeName(MultisetHashScheme::kAdd), "MSet-Add-Hash");
  EXPECT_STREQ(MultisetHashSchemeName(MultisetHashScheme::kMu), "MSet-Mu-Hash");
  EXPECT_STREQ(MultisetHashSchemeName(MultisetHashScheme::kVAdd), "MSet-VAdd-Hash");
}

}  // namespace
}  // namespace hsis::crypto
