#include <gtest/gtest.h>

#include "audit/auditing_device.h"
#include "audit/secure_coprocessor.h"
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

Bytes Commit(const crypto::MultisetHashFamily& family, const Dataset& data) {
  auto h = family.NewHash();
  for (const Tuple& t : data.tuples()) h->Add(t.value);
  return h->Serialize();
}

TEST(DevicePersistenceTest, SerializeRestoreRoundTrip) {
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 50).value());
  TupleGenerator tg =
      std::move(TupleGenerator::Create("rowi", family, &device).value());
  Dataset data;
  for (const char* v : {"a", "b", "c"}) data.Add(tg.IssueString(v).value());
  // Accrue a penalty so non-trivial totals round-trip too.
  Dataset cheated = data;
  cheated.Add(Tuple::FromString("fake"));
  ASSERT_TRUE(device.Audit("rowi", Commit(family, cheated)).ok());

  Bytes state = device.SerializeState();

  // "Restart" the device: fresh instance, same configuration.
  AuditingDevice restored = std::move(AuditingDevice::Create(1.0, 50).value());
  ASSERT_TRUE(restored.RegisterPlayer("rowi", family).ok());
  ASSERT_TRUE(restored.RestoreState(state).ok());

  EXPECT_EQ(restored.RecordedTupleCount("rowi"), 3u);
  EXPECT_DOUBLE_EQ(restored.TotalPenalties("rowi"), 50.0);

  // The restored HV_i still validates the honest commitment and still
  // catches the cheat.
  auto honest = restored.Audit("rowi", Commit(family, data));
  ASSERT_TRUE(honest.ok());
  EXPECT_FALSE(honest->cheating_detected);
  auto caught = restored.Audit("rowi", Commit(family, cheated));
  ASSERT_TRUE(caught.ok());
  EXPECT_TRUE(caught->cheating_detected);
}

TEST(DevicePersistenceTest, RestoredDeviceStaysIncremental) {
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 10).value());
  TupleGenerator tg =
      std::move(TupleGenerator::Create("p", family, &device).value());
  Dataset data;
  data.Add(tg.IssueString("before-restart").value());
  Bytes state = device.SerializeState();

  AuditingDevice restored = std::move(AuditingDevice::Create(1.0, 10).value());
  ASSERT_TRUE(restored.RegisterPlayer("p", family).ok());
  ASSERT_TRUE(restored.RestoreState(state).ok());

  // New tuples arrive after the restart (via a generator wired to the
  // restored device).
  auto singleton = family.NewHash();
  singleton->Add(ToBytes("after-restart"));
  ASSERT_TRUE(restored.RecordTupleHash("p", singleton->Serialize()).ok());
  data.Add(Tuple::FromString("after-restart"));

  auto outcome = restored.Audit("p", Commit(family, data));
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->cheating_detected);
  EXPECT_EQ(restored.RecordedTupleCount("p"), 2u);
}

TEST(DevicePersistenceTest, RestoreRejectsUnknownPlayer) {
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 10).value());
  ASSERT_TRUE(device.RegisterPlayer("alice", family).ok());
  Bytes state = device.SerializeState();

  AuditingDevice other = std::move(AuditingDevice::Create(1.0, 10).value());
  ASSERT_TRUE(other.RegisterPlayer("bob", family).ok());
  EXPECT_FALSE(other.RestoreState(state).ok());
}

TEST(DevicePersistenceTest, RestoreRejectsGarbage) {
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 10).value());
  ASSERT_TRUE(device.RegisterPlayer("p", family).ok());
  EXPECT_FALSE(device.RestoreState(Bytes{}).ok());
  EXPECT_FALSE(device.RestoreState(Bytes(10, 0xff)).ok());

  // Truncated valid state.
  Bytes state = device.SerializeState();
  state.pop_back();
  state[8 + 3] = 1;  // still claims one player
  EXPECT_FALSE(device.RestoreState(state).ok());
}

TEST(DevicePersistenceTest, RestoreRejectsTrailingBytes) {
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 10).value());
  ASSERT_TRUE(device.RegisterPlayer("p", family).ok());
  Bytes state = device.SerializeState();
  state.push_back(0x00);
  EXPECT_EQ(device.RestoreState(state).code(), StatusCode::kInvalidArgument);
  state.pop_back();
  EXPECT_TRUE(device.RestoreState(state).ok());
}

TEST(DevicePersistenceTest, EveryTruncationIsInvalidArgument) {
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 10).value());
  ASSERT_TRUE(device.RegisterPlayer("p", family).ok());
  const Bytes state = device.SerializeState();
  for (size_t cut = 0; cut < state.size(); ++cut) {
    EXPECT_EQ(device.RestoreState(Bytes(state.begin(), state.begin() + cut))
                  .code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
}

TEST(DevicePersistenceTest, SealedRestartThroughCoprocessor) {
  // The full Section 6 story: the device state survives a restart as a
  // sealed blob only the same coprocessor can open.
  Rng rng(7);
  SecureCoprocessor coprocessor = SecureCoprocessor::Manufacture(rng);
  crypto::MultisetHashFamily family = MuFamily();

  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 25).value());
  TupleGenerator tg =
      std::move(TupleGenerator::Create("p", family, &device).value());
  Dataset data;
  data.Add(tg.IssueString("tuple-1").value());
  data.Add(tg.IssueString("tuple-2").value());

  Bytes sealed = std::move(coprocessor.Seal(device.SerializeState(), rng).value());

  // Another coprocessor cannot recover the state.
  SecureCoprocessor impostor = SecureCoprocessor::Manufacture(rng);
  EXPECT_FALSE(impostor.Unseal(sealed).ok());

  // The genuine one restores it fully.
  Bytes unsealed = std::move(coprocessor.Unseal(sealed).value());
  AuditingDevice restored = std::move(AuditingDevice::Create(1.0, 25).value());
  ASSERT_TRUE(restored.RegisterPlayer("p", family).ok());
  ASSERT_TRUE(restored.RestoreState(unsealed).ok());
  auto outcome = restored.Audit("p", Commit(family, data));
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->cheating_detected);
}

TEST(DevicePersistenceTest, MultiplePlayersRoundTrip) {
  crypto::MultisetHashFamily family = MuFamily();
  AuditingDevice device = std::move(AuditingDevice::Create(1.0, 5).value());
  TupleGenerator tg1 =
      std::move(TupleGenerator::Create("p1", family, &device).value());
  TupleGenerator tg2 =
      std::move(TupleGenerator::Create("p2", family, &device).value());
  Dataset d1, d2;
  d1.Add(tg1.IssueString("x").value());
  d2.Add(tg2.IssueString("y").value());
  d2.Add(tg2.IssueString("z").value());

  AuditingDevice restored = std::move(AuditingDevice::Create(1.0, 5).value());
  ASSERT_TRUE(restored.RegisterPlayer("p1", family).ok());
  ASSERT_TRUE(restored.RegisterPlayer("p2", family).ok());
  ASSERT_TRUE(restored.RestoreState(device.SerializeState()).ok());
  EXPECT_EQ(restored.RecordedTupleCount("p1"), 1u);
  EXPECT_EQ(restored.RecordedTupleCount("p2"), 2u);
  EXPECT_FALSE(
      restored.Audit("p1", Commit(family, d1))->cheating_detected);
  EXPECT_FALSE(
      restored.Audit("p2", Commit(family, d2))->cheating_detected);
  // Cross-wiring would be cheating.
  EXPECT_TRUE(restored.Audit("p1", Commit(family, d2))->cheating_detected);
}

}  // namespace
}  // namespace hsis::audit
