#include "audit/audit_baseline.h"

#include <gtest/gtest.h>

namespace hsis::audit {
namespace {

using sovereign::Dataset;
using sovereign::Tuple;

MerkleAuditAccumulator AccumulateDataset(const Dataset& data) {
  MerkleAuditAccumulator acc;
  for (const Tuple& t : data.tuples()) acc.Record(MerkleTupleHash(t.value));
  return acc;
}

TEST(MerkleAuditBaselineTest, HonestReportMatches) {
  Dataset data = Dataset::FromStrings({"a", "b", "c"});
  MerkleAuditAccumulator acc = AccumulateDataset(data);
  EXPECT_TRUE(acc.Matches(MerkleDatasetCommitment(data)));
  EXPECT_EQ(acc.count(), 3u);
}

TEST(MerkleAuditBaselineTest, OrderIndependenceViaCanonicalization) {
  // Record order at the device differs from report order at the party;
  // the sorted-leaf canonicalization makes them agree anyway.
  MerkleAuditAccumulator acc;
  for (const char* v : {"c", "a", "b"}) {
    acc.Record(MerkleTupleHash(ToBytes(v)));
  }
  Dataset data = Dataset::FromStrings({"b", "c", "a"});
  EXPECT_TRUE(acc.Matches(MerkleDatasetCommitment(data)));
}

TEST(MerkleAuditBaselineTest, DetectsInsertion) {
  Dataset data = Dataset::FromStrings({"a", "b", "c"});
  MerkleAuditAccumulator acc = AccumulateDataset(data);
  Dataset cheated = data;
  cheated.Add(Tuple::FromString("fake"));
  EXPECT_FALSE(acc.Matches(MerkleDatasetCommitment(cheated)));
}

TEST(MerkleAuditBaselineTest, DetectsDeletionAndSubstitution) {
  Dataset data = Dataset::FromStrings({"a", "b", "c"});
  MerkleAuditAccumulator acc = AccumulateDataset(data);

  Dataset removed = data.Difference(Dataset::FromStrings({"b"}));
  EXPECT_FALSE(acc.Matches(MerkleDatasetCommitment(removed)));

  Dataset swapped = removed;
  swapped.Add(Tuple::FromString("z"));
  EXPECT_FALSE(acc.Matches(MerkleDatasetCommitment(swapped)));
}

TEST(MerkleAuditBaselineTest, MultiplicitySensitive) {
  Dataset once = Dataset::FromStrings({"x", "y"});
  Dataset twice = Dataset::FromStrings({"x", "x", "y"});
  MerkleAuditAccumulator acc = AccumulateDataset(once);
  EXPECT_FALSE(acc.Matches(MerkleDatasetCommitment(twice)));
}

TEST(MerkleAuditBaselineTest, EmptyDataset) {
  MerkleAuditAccumulator acc;
  EXPECT_TRUE(acc.Matches(MerkleDatasetCommitment(Dataset())));
}

TEST(MerkleAuditBaselineTest, StateGrowsLinearly) {
  // The ablation's point: unlike the multiset-hash device, the Merkle
  // baseline's state grows with the tuple stream.
  MerkleAuditAccumulator acc;
  acc.Record(MerkleTupleHash(ToBytes("one")));
  size_t small = acc.StateBytes();
  for (int i = 0; i < 999; ++i) {
    acc.Record(
        MerkleTupleHash(ToBytes(std::string("t").append(std::to_string(i)))));
  }
  EXPECT_GE(acc.StateBytes(), small * 500);
  EXPECT_EQ(acc.count(), 1000u);
}

}  // namespace
}  // namespace hsis::audit
