#include "core/honest_sharing_session.h"

#include <gtest/gtest.h>

#include <limits>

namespace hsis::core {
namespace {

SessionConfig FastConfig(double frequency = 1.0, double penalty = 50.0) {
  SessionConfig config;
  config.audit_frequency = frequency;
  config.penalty = penalty;
  config.group = &crypto::PrimeGroup::SmallTestGroup();
  config.seed = 42;
  return config;
}

HonestSharingSession MakeTwoPartySession(double frequency = 1.0,
                                         double penalty = 50.0) {
  Result<HonestSharingSession> session =
      HonestSharingSession::Create(FastConfig(frequency, penalty));
  EXPECT_TRUE(session.ok());
  HonestSharingSession s = std::move(*session);
  EXPECT_TRUE(s.AddParty("rowi").ok());
  EXPECT_TRUE(s.AddParty("colie").ok());
  EXPECT_TRUE(s.IssueTuples("rowi", {"b", "u", "v", "y"}).ok());
  EXPECT_TRUE(s.IssueTuples("colie", {"a", "u", "v", "x"}).ok());
  return s;
}

TEST(HonestSharingSessionTest, HonestExchangeComputesIntersection) {
  HonestSharingSession s = MakeTwoPartySession();
  Result<ExchangeResult> r = s.RunExchange("rowi", "colie");
  ASSERT_TRUE(r.ok());
  sovereign::Dataset expected = sovereign::Dataset::FromStrings({"u", "v"});
  EXPECT_EQ(r->a.intersection, expected);
  EXPECT_EQ(r->b.intersection, expected);
  EXPECT_TRUE(r->a.audited);
  EXPECT_FALSE(r->a.detected);
  EXPECT_FALSE(r->b.detected);
  EXPECT_EQ(s.TotalPenalties("rowi"), 0.0);
}

TEST(HonestSharingSessionTest, FabricationDetectedAndFined) {
  HonestSharingSession s = MakeTwoPartySession();
  CheatPlan cheat;
  cheat.fabricate = {"x"};  // probe for Colie's private customer
  Result<ExchangeResult> r = s.RunExchange("rowi", "colie", cheat, {});
  ASSERT_TRUE(r.ok());
  // The cheat worked at the protocol level...
  EXPECT_EQ(r->a.probe_hits, 1u);
  EXPECT_TRUE(r->a.intersection.Contains(sovereign::Tuple::FromString("x")));
  EXPECT_EQ(r->b.leaked_tuples, 1u);
  // ...but the always-on audit caught it.
  EXPECT_TRUE(r->a.detected);
  EXPECT_EQ(r->a.penalty_paid, 50.0);
  EXPECT_FALSE(r->b.detected);
  EXPECT_EQ(s.TotalPenalties("rowi"), 50.0);
  EXPECT_EQ(s.TotalPenalties("colie"), 0.0);
}

TEST(HonestSharingSessionTest, WithholdingDetected) {
  HonestSharingSession s = MakeTwoPartySession();
  CheatPlan cheat;
  cheat.withhold = 1;
  Result<ExchangeResult> r = s.RunExchange("rowi", "colie", {}, cheat);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->b.detected);
  EXPECT_FALSE(r->a.detected);
  EXPECT_EQ(r->b.reported_size, 3u);
}

TEST(HonestSharingSessionTest, ZeroFrequencyNeverCatches) {
  HonestSharingSession s = MakeTwoPartySession(/*frequency=*/0.0);
  CheatPlan cheat;
  cheat.fabricate = {"x"};
  Result<ExchangeResult> r = s.RunExchange("rowi", "colie", cheat, {});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->a.audited);
  EXPECT_FALSE(r->a.detected);
  EXPECT_EQ(r->a.penalty_paid, 0.0);
  EXPECT_EQ(r->a.probe_hits, 1u);  // the cheat succeeds unpunished
}

TEST(HonestSharingSessionTest, PartialFrequencyCatchesProportionally) {
  HonestSharingSession s = MakeTwoPartySession(/*frequency=*/0.3);
  CheatPlan cheat;
  cheat.fabricate = {"probe"};
  int detections = 0;
  const int kRounds = 300;
  for (int i = 0; i < kRounds; ++i) {
    Result<ExchangeResult> r = s.RunExchange("rowi", "colie", cheat, {});
    ASSERT_TRUE(r.ok());
    detections += r->a.detected;
  }
  EXPECT_NEAR(static_cast<double>(detections) / kRounds, 0.3, 0.07);
  EXPECT_NEAR(s.TotalPenalties("rowi"), detections * 50.0, 1e-9);
}

TEST(HonestSharingSessionTest, AttestationVerifies) {
  HonestSharingSession s = MakeTwoPartySession();
  Rng rng(9);
  Bytes challenge = rng.RandomBytes(16);
  Result<audit::SecureCoprocessor::AttestationReport> report =
      s.Attest(challenge);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(audit::SecureCoprocessor::VerifyAttestation(
      *report, s.expected_code_hash(), s.device_endorsement_key()));
  EXPECT_EQ(report->nonce, challenge);
}

TEST(HonestSharingSessionTest, RejectsBadConfigNamingTheField) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    double frequency;
    double penalty;
    const char* message;
  };
  const Case kCases[] = {
      {kNaN, 50, "SessionConfig.audit_frequency must be in [0, 1]"},
      {-0.1, 50, "SessionConfig.audit_frequency must be in [0, 1]"},
      {1.5, 50, "SessionConfig.audit_frequency must be in [0, 1]"},
      {0.5, kNaN, "SessionConfig.penalty must be finite and >= 0"},
      {0.5, kInf, "SessionConfig.penalty must be finite and >= 0"},
      {0.5, -1, "SessionConfig.penalty must be finite and >= 0"},
  };
  for (const Case& c : kCases) {
    Result<HonestSharingSession> s =
        HonestSharingSession::Create(FastConfig(c.frequency, c.penalty));
    ASSERT_FALSE(s.ok()) << c.message;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument) << c.message;
    EXPECT_EQ(s.status().message(), c.message);
  }
  // The device itself refuses NaN terms too.
  EXPECT_FALSE(audit::AuditingDevice::Create(kNaN, 1).ok());
  EXPECT_FALSE(audit::AuditingDevice::Create(0.5, kNaN).ok());
}

TEST(HonestSharingSessionTest, ValidatesParticipants) {
  HonestSharingSession s = MakeTwoPartySession();
  EXPECT_FALSE(s.RunExchange("rowi", "ghost").ok());
  EXPECT_FALSE(s.RunExchange("rowi", "rowi").ok());
  EXPECT_FALSE(s.AddParty("rowi").ok());
  EXPECT_FALSE(s.IssueTuples("ghost", {"x"}).ok());
  EXPECT_FALSE(s.TrueData("ghost").ok());
}

TEST(HonestSharingSessionTest, TrueDataReflectsIssuedTuples) {
  HonestSharingSession s = MakeTwoPartySession();
  Result<sovereign::Dataset> data = s.TrueData("rowi");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, sovereign::Dataset::FromStrings({"b", "u", "v", "y"}));
}

// One IssueTuples call (one TG -> AD message and one merge) saves the
// bytes of one call per value, for every hash scheme; a call naming an
// unknown party changes nothing.
TEST(HonestSharingSessionTest, BatchIssuanceSavesTheBytesOfOneCallPerValue) {
  std::vector<std::string> values;
  for (int i = 0; i < 300; ++i) {
    values.push_back(
        std::string("cust-").append(std::to_string((i * 37) % 200)));
  }
  for (crypto::MultisetHashScheme scheme :
       {crypto::MultisetHashScheme::kXor, crypto::MultisetHashScheme::kAdd,
        crypto::MultisetHashScheme::kMu, crypto::MultisetHashScheme::kVAdd}) {
    SessionConfig config = FastConfig();
    config.hash_scheme = scheme;
    if (scheme == crypto::MultisetHashScheme::kXor ||
        scheme == crypto::MultisetHashScheme::kAdd) {
      config.scheme_key = ToBytes("session key");
    }
    HonestSharingSession batched = HonestSharingSession::Create(config).value();
    HonestSharingSession one_by_one =
        HonestSharingSession::Create(config).value();
    for (HonestSharingSession* s : {&batched, &one_by_one}) {
      ASSERT_TRUE(s->AddParty("rowi").ok());
      ASSERT_TRUE(s->AddParty("colie").ok());
      ASSERT_TRUE(s->IssueTuples("rowi", {"cust-7", "earlier"}).ok());
    }
    ASSERT_TRUE(batched.IssueTuples("rowi", values).ok());
    for (const std::string& v : values) {
      ASSERT_TRUE(one_by_one.IssueTuples("rowi", {v}).ok());
    }
    EXPECT_EQ(batched.SaveState(), one_by_one.SaveState())
        << crypto::MultisetHashSchemeName(scheme);
    EXPECT_EQ(batched.device().RecordedTupleCount("rowi"), 302u);

    const Bytes before = batched.SaveState();
    EXPECT_EQ(batched.IssueTuples("nobody", values).code(),
              StatusCode::kNotFound);
    EXPECT_EQ(batched.SaveState(), before);
  }
}

TEST(HonestSharingSessionTest, MultipleExchangesAccumulateState) {
  HonestSharingSession s = MakeTwoPartySession();
  ASSERT_TRUE(s.RunExchange("rowi", "colie").ok());
  // New legal tuple arrives between exchanges; audits must track it.
  ASSERT_TRUE(s.IssueTuples("rowi", {"new-customer"}).ok());
  Result<ExchangeResult> r = s.RunExchange("rowi", "colie");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->a.detected);  // honest report incl. the new tuple
  EXPECT_EQ(r->a.reported_size, 5u);
}

TEST(HonestSharingSessionTest, BothPartiesCheatBothCaught) {
  HonestSharingSession s = MakeTwoPartySession();
  CheatPlan cheat_a, cheat_b;
  cheat_a.fabricate = {"x"};
  cheat_b.withhold = 2;
  Result<ExchangeResult> r = s.RunExchange("rowi", "colie", cheat_a, cheat_b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->a.detected);
  EXPECT_TRUE(r->b.detected);
}

TEST(HonestSharingSessionTest, KeyedSchemeSupported) {
  SessionConfig config = FastConfig();
  config.hash_scheme = crypto::MultisetHashScheme::kAdd;
  config.scheme_key = ToBytes("tg-shared-key");
  Result<HonestSharingSession> session = HonestSharingSession::Create(config);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->AddParty("p1").ok());
  ASSERT_TRUE(session->AddParty("p2").ok());
  ASSERT_TRUE(session->IssueTuples("p1", {"a", "b"}).ok());
  ASSERT_TRUE(session->IssueTuples("p2", {"b", "c"}).ok());
  Result<ExchangeResult> r = session->RunExchange("p1", "p2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->a.intersection, sovereign::Dataset::FromStrings({"b"}));
  EXPECT_FALSE(r->a.detected);
}

TEST(HonestSharingSessionTest, KeyedSchemeRequiresKey) {
  SessionConfig config = FastConfig();
  config.hash_scheme = crypto::MultisetHashScheme::kXor;
  EXPECT_FALSE(HonestSharingSession::Create(config).ok());
}

}  // namespace
}  // namespace hsis::core
