#include "sovereign/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

// The sizes that matter to `Dataset`'s sort: its small-input cutoff
// (128 tuples, `kRadixCutoff` in dataset.cc) and either side of it.
constexpr size_t kSortCutoff = 128;

// `n` tuples drawn by `kind` < kKinds, each a trap for a packed-key
// sort: random lengths across the 16-byte key, zero bytes against zero
// padding ("ab" against "ab\0"), long tuples that tie on 16 bytes, one
// tuple whose first byte no other shares, and duplicates.
constexpr int kKinds = 5;

std::vector<Tuple> DrawTuples(int kind, size_t n, Rng& rng) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Bytes value;
    switch (kind) {
      case 0:  // random tuples of length 0-40
        value = rng.RandomBytes(rng.UniformUint64(41));
        break;
      case 1:  // empty and all-zero tuples of length 0-20
        value.assign(rng.UniformUint64(21), 0);
        break;
      case 2: {  // length 15-18, one 16-byte head, then diverging
        value.assign(16, 0x5a);
        value[rng.UniformUint64(4) * 5] ^= rng.Bernoulli(0.2) ? 0x80 : 0;
        value.resize(15 + rng.UniformUint64(4));
        for (size_t k = 15; k < value.size(); ++k) {
          value[k] = static_cast<uint8_t>(rng.UniformUint64(3));
        }
        break;
      }
      case 3:  // one first byte that differs from all the others
        value = ToBytes(std::string(i == n / 2 ? "a-" : "k-")
                            .append(std::to_string(rng.UniformUint64(1000))));
        break;
      default: {  // heavy duplicates, short ones and long ones that tie
        std::string v =
            rng.Bernoulli(0.5) ? "dup-" : "dup-long-enough-to-tie-";
        value = ToBytes(v.append(std::to_string(rng.UniformUint64(7))));
        break;
      }
    }
    out.emplace_back(std::move(value));
  }
  return out;
}

std::vector<Tuple> ComparisonSorted(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [](const Tuple& a, const Tuple& b) {
              return CompareBytes(a.value, b.value) < 0;
            });
  return tuples;
}

TEST(DatasetTest, CanonicalOrderMatchesComparisonSort) {
  Rng rng(46);
  const std::vector<size_t> sizes = {
      0, 1, 2, kSortCutoff - 1, kSortCutoff, kSortCutoff + 1, 4096, 100000};
  for (size_t n : sizes) {
    std::vector<std::vector<Tuple>> inputs;
    std::vector<Tuple> mixed;
    for (int kind = 0; kind < kKinds; ++kind) {
      inputs.push_back(DrawTuples(kind, n, rng));
      std::vector<Tuple> part = DrawTuples(kind, n / kKinds + 1, rng);
      mixed.insert(mixed.end(), part.begin(), part.end());
    }
    mixed.resize(n);
    rng.Shuffle(mixed);
    inputs.push_back(mixed);
    inputs.push_back(ComparisonSorted(mixed));
    inputs.push_back(ComparisonSorted(mixed));
    std::reverse(inputs.back().begin(), inputs.back().end());

    for (size_t k = 0; k < inputs.size(); ++k) {
      const std::vector<Tuple> want = ComparisonSorted(inputs[k]);
      EXPECT_EQ(Dataset(inputs[k]).tuples(), want)
          << "input " << k << " of " << n << " tuples";
    }
  }
}

// A batch above the cutoff takes the radix sort before its merge.
TEST(DatasetTest, InsertAllAboveCutoffEqualsRepeatedAdd) {
  Rng rng(47);
  for (int kind = 0; kind < kKinds; ++kind) {
    Dataset added(DrawTuples(kind, 300, rng));
    Dataset merged = added;
    std::vector<Tuple> batch = DrawTuples(kind, 2 * kSortCutoff + 5, rng);
    for (const Tuple& t : batch) added.Add(t);
    merged.InsertAll(std::move(batch));
    EXPECT_EQ(merged, added) << "kind " << kind;
  }
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
