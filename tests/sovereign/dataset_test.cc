#include "sovereign/dataset.h"

#include <gtest/gtest.h>

namespace hsis::sovereign {
namespace {

TEST(TupleTest, StringRoundTripAndOrdering) {
  Tuple t = Tuple::FromString("alice");
  EXPECT_EQ(t.ToString(), "alice");
  EXPECT_EQ(t, Tuple::FromString("alice"));
  EXPECT_LT(Tuple::FromString("alice"), Tuple::FromString("bob"));
}

TEST(DatasetTest, CanonicalOrderIndependentOfInsertion) {
  Dataset a = Dataset::FromStrings({"c", "a", "b"});
  Dataset b = Dataset::FromStrings({"a", "b", "c"});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.tuples()[0].ToString(), "a");
  EXPECT_EQ(a.tuples()[2].ToString(), "c");
}

TEST(DatasetTest, AddKeepsOrder) {
  Dataset d;
  d.Add(Tuple::FromString("m"));
  d.Add(Tuple::FromString("a"));
  d.Add(Tuple::FromString("z"));
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d.tuples()[0].ToString(), "a");
  EXPECT_EQ(d.tuples()[1].ToString(), "m");
  EXPECT_EQ(d.tuples()[2].ToString(), "z");
}

// One sort and merge of the batch equals adding its tuples one by one:
// duplicates within the batch and across it, values that interleave
// with the held ones, and either side empty.
TEST(DatasetTest, InsertAllEqualsRepeatedAdd) {
  const std::vector<std::vector<std::string>> held = {
      {}, {"b", "d", "d", "f"}, {"a", "c", "e", "g", "g"}};
  const std::vector<std::vector<std::string>> batches = {
      {}, {"d", "a", "d", "z", "c", "b"}, {"g", "g", "g"}, {"e", "0", "f"}};
  for (const std::vector<std::string>& base : held) {
    for (const std::vector<std::string>& batch : batches) {
      Dataset added = Dataset::FromStrings(base);
      Dataset merged = added;
      std::vector<Tuple> tuples;
      for (const std::string& v : batch) {
        added.Add(Tuple::FromString(v));
        tuples.push_back(Tuple::FromString(v));
      }
      merged.InsertAll(std::move(tuples));
      EXPECT_EQ(merged, added)
          << base.size() << " held, batch of " << batch.size();
    }
  }
  // A larger interleaving: every third value is already held.
  Dataset added = Dataset::FromStrings({"v0", "v3", "v6", "v9"});
  Dataset merged = added;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 300; ++i) {
    const Tuple t = Tuple::FromString(
        std::string("v").append(std::to_string((i * 37) % 101)));
    added.Add(t);
    tuples.push_back(t);
  }
  merged.InsertAll(std::move(tuples));
  EXPECT_EQ(merged, added);
  EXPECT_EQ(merged.size(), 304u);
}

TEST(DatasetTest, ContainsAndCount) {
  Dataset d = Dataset::FromStrings({"x", "y", "x"});
  EXPECT_TRUE(d.Contains(Tuple::FromString("x")));
  EXPECT_FALSE(d.Contains(Tuple::FromString("z")));
  EXPECT_EQ(d.Count(Tuple::FromString("x")), 2u);
  EXPECT_EQ(d.Count(Tuple::FromString("y")), 1u);
  EXPECT_EQ(d.Count(Tuple::FromString("z")), 0u);
}

TEST(DatasetTest, IntersectMatchesPaperExample) {
  // Section 1: V_R = {b, u, v, y}, V_S = {a, u, v, x} -> {u, v}.
  Dataset vr = Dataset::FromStrings({"b", "u", "v", "y"});
  Dataset vs = Dataset::FromStrings({"a", "u", "v", "x"});
  EXPECT_EQ(vr.Intersect(vs), Dataset::FromStrings({"u", "v"}));
}

TEST(DatasetTest, MultisetIntersection) {
  Dataset a = Dataset::FromStrings({"x", "x", "x", "y"});
  Dataset b = Dataset::FromStrings({"x", "x", "z"});
  EXPECT_EQ(a.Intersect(b), Dataset::FromStrings({"x", "x"}));
}

TEST(DatasetTest, UnionAndDifference) {
  Dataset a = Dataset::FromStrings({"p", "q"});
  Dataset b = Dataset::FromStrings({"q", "r"});
  EXPECT_EQ(a.Union(b), Dataset::FromStrings({"p", "q", "q", "r"}));
  EXPECT_EQ(a.Difference(b), Dataset::FromStrings({"p"}));
  EXPECT_EQ(b.Difference(a), Dataset::FromStrings({"r"}));
}

TEST(DatasetTest, EmptyDatasetBehaves) {
  Dataset empty;
  Dataset a = Dataset::FromStrings({"x"});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Intersect(a), Dataset());
  EXPECT_EQ(a.Intersect(empty), Dataset());
  EXPECT_EQ(a.Union(empty), a);
  EXPECT_EQ(a.Difference(empty), a);
}

TEST(DatasetTest, RemoveRandomShrinks) {
  Rng rng(1);
  Dataset d = Dataset::FromStrings({"a", "b", "c", "d", "e"});
  d.RemoveRandom(2, rng);
  EXPECT_EQ(d.size(), 3u);
  d.RemoveRandom(100, rng);
  EXPECT_TRUE(d.empty());
}

}  // namespace
}  // namespace hsis::sovereign
