#include "audit/auditing_device.h"

#include <gtest/gtest.h>

#include "audit/tuple_generator.h"
#include "sovereign/dataset.h"

namespace hsis::audit {
namespace {

using sovereign::Dataset;
using sovereign::Tuple;

crypto::MultisetHashFamily MuFamily() {
  Result<crypto::MultisetHashFamily> f =
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup());
  EXPECT_TRUE(f.ok());
  return *f;
}

/// Issues string tuples through a generator, building the player's
/// database the legal way, and returns the resulting dataset.
Dataset IssueAll(TupleGenerator& tg,
                 std::initializer_list<std::string_view> values) {
  Dataset out;
  for (std::string_view v : values) {
    Result<Tuple> t = tg.IssueString(v);
    EXPECT_TRUE(t.ok());
    out.Add(*t);
  }
  return out;
}

/// The commitment H_i(D) a party reports for dataset D.
Bytes Commit(const crypto::MultisetHashFamily& family, const Dataset& data) {
  std::unique_ptr<crypto::MultisetHash> h = family.NewHash();
  for (const Tuple& t : data.tuples()) h->Add(t.value);
  return h->Serialize();
}

TEST(AuditingDeviceTest, CreateValidation) {
  EXPECT_FALSE(AuditingDevice::Create(-0.1, 10).ok());
  EXPECT_FALSE(AuditingDevice::Create(1.1, 10).ok());
  EXPECT_FALSE(AuditingDevice::Create(0.5, -1).ok());
  EXPECT_TRUE(AuditingDevice::Create(0.5, 10).ok());
}

TEST(AuditingDeviceTest, HonestPlayerPassesAudit) {
  Result<AuditingDevice> ad = AuditingDevice::Create(1.0, 50);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg = TupleGenerator::Create("rowi", family, &*ad);
  ASSERT_TRUE(tg.ok());

  Dataset data = IssueAll(*tg, {"alice", "bob", "carol"});
  Result<AuditOutcome> outcome = ad->Audit("rowi", Commit(family, data));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->audited);
  EXPECT_FALSE(outcome->cheating_detected);
  EXPECT_EQ(outcome->penalty_applied, 0.0);
  EXPECT_EQ(ad->TotalPenalties("rowi"), 0.0);
}

TEST(AuditingDeviceTest, FabricatedTupleDetected) {
  // Rowi maliciously adds "x" to probe Colie's database (Section 1).
  Result<AuditingDevice> ad = AuditingDevice::Create(1.0, 50);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg = TupleGenerator::Create("rowi", family, &*ad);
  ASSERT_TRUE(tg.ok());

  Dataset data = IssueAll(*tg, {"b", "u", "v", "y"});
  Dataset cheated = data;
  cheated.Add(Tuple::FromString("x"));  // never passed through TG

  Result<AuditOutcome> outcome = ad->Audit("rowi", Commit(family, cheated));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->cheating_detected);
  EXPECT_EQ(outcome->penalty_applied, 50.0);
  EXPECT_EQ(ad->TotalPenalties("rowi"), 50.0);
}

TEST(AuditingDeviceTest, WithheldTupleDetected) {
  // Colie excludes v to keep Rowi from learning it (Section 1).
  Result<AuditingDevice> ad = AuditingDevice::Create(1.0, 35);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg = TupleGenerator::Create("colie", family, &*ad);
  ASSERT_TRUE(tg.ok());

  Dataset data = IssueAll(*tg, {"a", "u", "v", "x"});
  Dataset cheated = data.Difference(Dataset::FromStrings({"v"}));

  Result<AuditOutcome> outcome = ad->Audit("colie", Commit(family, cheated));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->cheating_detected);
}

TEST(AuditingDeviceTest, SubstitutionAtSameCountDetected) {
  Result<AuditingDevice> ad = AuditingDevice::Create(1.0, 10);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg = TupleGenerator::Create("p", family, &*ad);
  ASSERT_TRUE(tg.ok());

  Dataset data = IssueAll(*tg, {"a", "b", "c"});
  Dataset swapped = data.Difference(Dataset::FromStrings({"c"}));
  swapped.Add(Tuple::FromString("z"));
  ASSERT_EQ(swapped.size(), data.size());

  Result<AuditOutcome> outcome = ad->Audit("p", Commit(family, swapped));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->cheating_detected);
}

TEST(AuditingDeviceTest, MalformedCommitmentCountsAsCheating) {
  Result<AuditingDevice> ad = AuditingDevice::Create(1.0, 10);
  ASSERT_TRUE(ad.ok());
  Result<TupleGenerator> tg = TupleGenerator::Create("p", MuFamily(), &*ad);
  ASSERT_TRUE(tg.ok());
  Result<AuditOutcome> outcome = ad->Audit("p", Bytes{0xde, 0xad});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->cheating_detected);
}

TEST(AuditingDeviceTest, UnknownPlayerRejected) {
  Result<AuditingDevice> ad = AuditingDevice::Create(0.5, 10);
  ASSERT_TRUE(ad.ok());
  EXPECT_FALSE(ad->Audit("ghost", Bytes{}).ok());
  EXPECT_FALSE(ad->RecordTupleHash("ghost", Bytes{}).ok());
  Rng rng(1);
  EXPECT_FALSE(ad->MaybeAudit("ghost", Bytes{}, rng).ok());
}

TEST(AuditingDeviceTest, DoubleRegistrationRejected) {
  Result<AuditingDevice> ad = AuditingDevice::Create(0.5, 10);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  ASSERT_TRUE(ad->RegisterPlayer("p", family).ok());
  EXPECT_FALSE(ad->RegisterPlayer("p", family).ok());
  EXPECT_TRUE(ad->IsRegistered("p"));
  EXPECT_FALSE(ad->IsRegistered("q"));
}

TEST(AuditingDeviceTest, MaybeAuditHonorsFrequency) {
  Result<AuditingDevice> ad = AuditingDevice::Create(0.3, 10);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg = TupleGenerator::Create("p", family, &*ad);
  ASSERT_TRUE(tg.ok());
  Dataset data = IssueAll(*tg, {"t1", "t2"});
  Bytes commitment = Commit(family, data);

  Rng rng(99);
  int audited = 0;
  const int kRounds = 5000;
  for (int i = 0; i < kRounds; ++i) {
    Result<AuditOutcome> o = ad->MaybeAudit("p", commitment, rng);
    ASSERT_TRUE(o.ok());
    audited += o->audited;
  }
  EXPECT_NEAR(static_cast<double>(audited) / kRounds, 0.3, 0.03);
}

TEST(AuditingDeviceTest, ZeroFrequencyNeverAudits) {
  Result<AuditingDevice> ad = AuditingDevice::Create(0.0, 10);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg = TupleGenerator::Create("p", family, &*ad);
  ASSERT_TRUE(tg.ok());
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    Result<AuditOutcome> o = ad->MaybeAudit("p", Bytes{0x00}, rng);
    ASSERT_TRUE(o.ok());
    EXPECT_FALSE(o->audited);
  }
}

TEST(AuditingDeviceTest, LogRecordsEveryAudit) {
  Result<AuditingDevice> ad = AuditingDevice::Create(1.0, 25);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg = TupleGenerator::Create("p", family, &*ad);
  ASSERT_TRUE(tg.ok());
  Dataset data = IssueAll(*tg, {"x"});

  ASSERT_TRUE(ad->Audit("p", Commit(family, data)).ok());
  Dataset cheated = data;
  cheated.Add(Tuple::FromString("fake"));
  ASSERT_TRUE(ad->Audit("p", Commit(family, cheated)).ok());

  ASSERT_EQ(ad->log().size(), 2u);
  EXPECT_EQ(ad->log()[0].sequence, 0u);
  EXPECT_FALSE(ad->log()[0].cheating_detected);
  EXPECT_EQ(ad->log()[1].sequence, 1u);
  EXPECT_TRUE(ad->log()[1].cheating_detected);
  EXPECT_EQ(ad->log()[1].penalty_applied, 25.0);
}

TEST(AuditingDeviceTest, StateIsConstantPerPlayer) {
  // Space efficiency: HV_i does not grow with the number of tuples.
  Result<AuditingDevice> ad = AuditingDevice::Create(1.0, 10);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg = TupleGenerator::Create("p", family, &*ad);
  ASSERT_TRUE(tg.ok());

  ASSERT_TRUE(tg->IssueString("one").ok());
  size_t small = ad->StateBytes();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tg->IssueString("tuple" + std::to_string(i)).ok());
  }
  EXPECT_EQ(ad->StateBytes(), small);
  EXPECT_EQ(ad->RecordedTupleCount("p"), 1001u);
}

TEST(AuditingDeviceTest, PenaltiesAccumulateAcrossAudits) {
  Result<AuditingDevice> ad = AuditingDevice::Create(1.0, 20);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg = TupleGenerator::Create("p", family, &*ad);
  ASSERT_TRUE(tg.ok());
  Dataset data = IssueAll(*tg, {"x"});
  Dataset cheated = data;
  cheated.Add(Tuple::FromString("fake"));
  Bytes bad = Commit(family, cheated);
  ASSERT_TRUE(ad->Audit("p", bad).ok());
  ASSERT_TRUE(ad->Audit("p", bad).ok());
  EXPECT_EQ(ad->TotalPenalties("p"), 40.0);
}

TEST(AuditingDeviceTest, MultiplePlayersIndependent) {
  Result<AuditingDevice> ad = AuditingDevice::Create(1.0, 10);
  ASSERT_TRUE(ad.ok());
  crypto::MultisetHashFamily family = MuFamily();
  Result<TupleGenerator> tg1 = TupleGenerator::Create("rowi", family, &*ad);
  Result<TupleGenerator> tg2 = TupleGenerator::Create("colie", family, &*ad);
  ASSERT_TRUE(tg1.ok() && tg2.ok());

  Dataset d1 = IssueAll(*tg1, {"a", "b"});
  Dataset d2 = IssueAll(*tg2, {"c"});

  // Each passes against its own state, fails against the other's.
  Result<AuditOutcome> ok1 = ad->Audit("rowi", Commit(family, d1));
  Result<AuditOutcome> cross = ad->Audit("rowi", Commit(family, d2));
  ASSERT_TRUE(ok1.ok() && cross.ok());
  EXPECT_FALSE(ok1->cheating_detected);
  EXPECT_TRUE(cross->cheating_detected);
}

// One TG -> AD message carrying H_i(batch) leaves the device exactly
// where the one-by-one messages leave it, for every scheme, at every
// tile edge of the batch commitment, with duplicates in the batch and
// on top of a tuple issued before it.
TEST(TupleGeneratorTest, BatchEqualsOneByOne) {
  const Bytes key = ToBytes("generator key");
  std::vector<crypto::MultisetHashFamily> families;
  families.push_back(
      crypto::MultisetHashFamily::Create(crypto::MultisetHashScheme::kXor, key)
          .value());
  families.push_back(
      crypto::MultisetHashFamily::Create(crypto::MultisetHashScheme::kAdd, key)
          .value());
  families.push_back(
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::Default())
          .value());
  families.push_back(
      crypto::MultisetHashFamily::Create(crypto::MultisetHashScheme::kVAdd)
          .value());
  for (const crypto::MultisetHashFamily& family : families) {
    for (size_t n : {0, 1, 15, 16, 17, 255, 256, 257, 1000}) {
      // About n / 3 distinct values, so the batch repeats most of them.
      std::vector<Tuple> batch;
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(Tuple::FromString(
            std::string("t").append(std::to_string(i % (n / 3 + 1)))));
      }
      AuditingDevice batched = AuditingDevice::Create(1.0, 10).value();
      AuditingDevice one_by_one = AuditingDevice::Create(1.0, 10).value();
      TupleGenerator tg_batch =
          TupleGenerator::Create("p", family, &batched).value();
      TupleGenerator tg_single =
          TupleGenerator::Create("p", family, &one_by_one).value();
      ASSERT_TRUE(tg_batch.IssueString("earlier").ok());
      ASSERT_TRUE(tg_single.IssueString("earlier").ok());

      ASSERT_TRUE(tg_batch.IssueAll(batch).ok());
      for (const Tuple& t : batch) ASSERT_TRUE(tg_single.Issue(t.value).ok());

      const std::string where =
          std::string(crypto::MultisetHashSchemeName(family.scheme()))
              .append(", batch of ")
              .append(std::to_string(n));
      EXPECT_EQ(batched.SerializeState(), one_by_one.SerializeState())
          << where;
      EXPECT_EQ(batched.RecordedTupleCount("p"), n + 1) << where;
      EXPECT_EQ(one_by_one.RecordedTupleCount("p"), n + 1) << where;
      EXPECT_EQ(tg_batch.issued(), n + 1) << where;
      EXPECT_EQ(tg_single.issued(), n + 1) << where;
    }
  }
}

}  // namespace
}  // namespace hsis::audit
