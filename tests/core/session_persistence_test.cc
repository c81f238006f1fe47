#include <gtest/gtest.h>

#include "core/honest_sharing_session.h"

namespace hsis::core {
namespace {

SessionConfig Config() {
  SessionConfig config;
  config.audit_frequency = 1.0;
  config.penalty = 30;
  config.group = &crypto::PrimeGroup::SmallTestGroup();
  config.seed = 77;
  return config;
}

HonestSharingSession Fresh() {
  return std::move(HonestSharingSession::Create(Config()).value());
}

TEST(SessionPersistenceTest, SaveLoadRoundTrip) {
  HonestSharingSession original = Fresh();
  ASSERT_TRUE(original.AddParty("rowi").ok());
  ASSERT_TRUE(original.AddParty("colie").ok());
  ASSERT_TRUE(original.IssueTuples("rowi", {"a", "b", "u"}).ok());
  ASSERT_TRUE(original.IssueTuples("colie", {"u", "c"}).ok());
  Bytes blob = original.SaveState();

  HonestSharingSession restored = Fresh();
  ASSERT_TRUE(restored.LoadState(blob).ok());

  // Datasets round-tripped.
  EXPECT_EQ(*restored.TrueData("rowi"),
            sovereign::Dataset::FromStrings({"a", "b", "u"}));
  EXPECT_EQ(*restored.TrueData("colie"),
            sovereign::Dataset::FromStrings({"u", "c"}));

  // The restored device still validates honest reports (HV_i intact).
  ExchangeResult r = std::move(restored.RunExchange("rowi", "colie").value());
  EXPECT_FALSE(r.a.detected);
  EXPECT_FALSE(r.b.detected);
  EXPECT_EQ(r.a.intersection, sovereign::Dataset::FromStrings({"u"}));
}

TEST(SessionPersistenceTest, RestoredSessionStillCatchesCheats) {
  HonestSharingSession original = Fresh();
  ASSERT_TRUE(original.AddParty("p1").ok());
  ASSERT_TRUE(original.AddParty("p2").ok());
  ASSERT_TRUE(original.IssueTuples("p1", {"x"}).ok());
  ASSERT_TRUE(original.IssueTuples("p2", {"x", "y"}).ok());
  Bytes blob = original.SaveState();

  HonestSharingSession restored = Fresh();
  ASSERT_TRUE(restored.LoadState(blob).ok());
  CheatPlan cheat;
  cheat.fabricate = {"y"};
  ExchangeResult r =
      std::move(restored.RunExchange("p1", "p2", cheat, {}).value());
  EXPECT_TRUE(r.a.detected);
  EXPECT_FALSE(r.b.detected);
}

TEST(SessionPersistenceTest, PenaltiesSurviveRestart) {
  HonestSharingSession original = Fresh();
  ASSERT_TRUE(original.AddParty("p1").ok());
  ASSERT_TRUE(original.AddParty("p2").ok());
  ASSERT_TRUE(original.IssueTuples("p1", {"x"}).ok());
  ASSERT_TRUE(original.IssueTuples("p2", {"x"}).ok());
  CheatPlan cheat;
  cheat.fabricate = {"fake"};
  ASSERT_TRUE(original.RunExchange("p1", "p2", cheat, {}).ok());
  ASSERT_EQ(original.TotalPenalties("p1"), 30.0);

  HonestSharingSession restored = Fresh();
  ASSERT_TRUE(restored.LoadState(original.SaveState()).ok());
  EXPECT_EQ(restored.TotalPenalties("p1"), 30.0);
}

TEST(SessionPersistenceTest, SessionCanGrowAfterRestore) {
  HonestSharingSession original = Fresh();
  ASSERT_TRUE(original.AddParty("p1").ok());
  ASSERT_TRUE(original.AddParty("p2").ok());
  ASSERT_TRUE(original.IssueTuples("p1", {"before"}).ok());
  ASSERT_TRUE(original.IssueTuples("p2", {"before"}).ok());

  HonestSharingSession restored = Fresh();
  ASSERT_TRUE(restored.LoadState(original.SaveState()).ok());
  ASSERT_TRUE(restored.IssueTuples("p1", {"after"}).ok());
  ASSERT_TRUE(restored.AddParty("p3").ok());
  ASSERT_TRUE(restored.IssueTuples("p3", {"before", "after"}).ok());

  ExchangeResult r = std::move(restored.RunExchange("p1", "p3").value());
  EXPECT_FALSE(r.a.detected);
  EXPECT_EQ(r.a.intersection,
            sovereign::Dataset::FromStrings({"before", "after"}));
}

TEST(SessionPersistenceTest, LoadRequiresFreshSession) {
  HonestSharingSession original = Fresh();
  ASSERT_TRUE(original.AddParty("p1").ok());
  Bytes blob = original.SaveState();

  HonestSharingSession busy = Fresh();
  ASSERT_TRUE(busy.AddParty("existing").ok());
  EXPECT_EQ(busy.LoadState(blob).code(), StatusCode::kFailedPrecondition);
}

TEST(SessionPersistenceTest, RejectsMalformedState) {
  HonestSharingSession session = Fresh();
  EXPECT_FALSE(session.LoadState(Bytes{}).ok());
  EXPECT_FALSE(session.LoadState(Bytes(6, 0x01)).ok());

  // Wrong version.
  HonestSharingSession original = Fresh();
  ASSERT_TRUE(original.AddParty("p").ok());
  Bytes blob = original.SaveState();
  Bytes wrong_version = blob;
  wrong_version[3] = 99;
  HonestSharingSession target = Fresh();
  EXPECT_FALSE(target.LoadState(wrong_version).ok());

  // Truncated.
  Bytes truncated(blob.begin(), blob.end() - 3);
  HonestSharingSession target2 = Fresh();
  EXPECT_FALSE(target2.LoadState(truncated).ok());
}

TEST(SessionPersistenceTest, RejectsTrailingBytes) {
  HonestSharingSession original = Fresh();
  ASSERT_TRUE(original.AddParty("p").ok());
  ASSERT_TRUE(original.IssueTuples("p", {"a", "b"}).ok());
  Bytes blob = original.SaveState();
  blob.push_back(0x4f);
  blob.push_back(0x4b);
  HonestSharingSession target = Fresh();
  EXPECT_EQ(target.LoadState(blob).code(), StatusCode::kInvalidArgument);
}

TEST(SessionPersistenceTest, EveryTruncationIsInvalidArgument) {
  HonestSharingSession original = Fresh();
  ASSERT_TRUE(original.AddParty("p").ok());
  ASSERT_TRUE(original.IssueTuples("p", {"a", "b"}).ok());
  const Bytes blob = original.SaveState();
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    HonestSharingSession target = Fresh();
    EXPECT_EQ(target.LoadState(Bytes(blob.begin(), blob.begin() + cut)).code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
}

TEST(SessionPersistenceTest, EmptySessionRoundTrips) {
  HonestSharingSession original = Fresh();
  Bytes blob = original.SaveState();
  HonestSharingSession restored = Fresh();
  EXPECT_TRUE(restored.LoadState(blob).ok());
}

}  // namespace
}  // namespace hsis::core
