// End-to-end integration: the whole paper in one scenario.
//
// A mechanism designer picks audit terms from estimated economics; a
// session is stood up with attested hardware; tuples flow through the
// generators; honest and adversarial campaigns run over the real
// protocol; the realized economics match the game-theoretic prediction;
// the deployment survives a restart.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/campaign.h"
#include "core/honest_sharing_session.h"
#include "core/mechanism_designer.h"
#include "game/equilibrium.h"
#include "game/honesty_games.h"
#include "sim/workload.h"

namespace hsis::core {
namespace {

TEST(IntegrationTest, FullLifecycle) {
  // --- 1. Economics & mechanism design -------------------------------
  const double kB = 10, kF = 25, kL = 8;
  MechanismDesigner designer =
      std::move(MechanismDesigner::Create(kB, kF).value());
  const double frequency = 0.4;
  // The campaign's cheater keeps its stolen gains even when caught (it
  // already saw the intersection), so the operator sizes the fine to
  // cover the realized per-round gain G = 5 probes * 3/hit = 15:
  // P > G/f — which also clears the game-theoretic threshold.
  const double penalty =
      std::max(designer.MinPenalty(frequency).value(), 15.0 / frequency) + 5;
  ASSERT_EQ(designer.Classify(frequency, penalty),
            game::DeviceEffectiveness::kTransformative);

  // The designed game really has (H,H) as its unique equilibrium.
  game::NormalFormGame designed_game = std::move(
      game::MakeSymmetricAuditedGame(kB, kF, kL, frequency, penalty).value());
  auto ne = game::PureNashEquilibria(designed_game);
  ASSERT_EQ(ne.size(), 1u);
  ASSERT_EQ(game::ProfileLabel(ne[0]), "HH");

  // --- 2. Deployment --------------------------------------------------
  SessionConfig config;
  config.audit_frequency = frequency;
  config.penalty = penalty;
  config.group = &crypto::PrimeGroup::SmallTestGroup();
  config.seed = 20060101;
  HonestSharingSession session =
      std::move(HonestSharingSession::Create(config).value());

  // Parties verify the device before trusting it.
  Rng attest_rng(1);
  Bytes challenge = attest_rng.RandomBytes(16);
  auto report = std::move(session.Attest(challenge).value());
  ASSERT_TRUE(audit::SecureCoprocessor::VerifyAttestation(
      report, session.expected_code_hash(), session.device_endorsement_key()));

  // --- 3. Data onboarding through the tuple generators ----------------
  Rng rng(7);
  sim::TwoFirmWorkload workload = sim::MakeTwoFirmWorkload(25, 25, 12, rng);
  ASSERT_TRUE(session.AddParty("rowi").ok());
  ASSERT_TRUE(session.AddParty("colie").ok());
  ASSERT_TRUE(session.IssueTuples("rowi", workload.firm_a).ok());
  ASSERT_TRUE(session.IssueTuples("colie", workload.firm_b).ok());

  // --- 4. Honest collaboration ----------------------------------------
  CampaignEconomics econ;
  econ.honest_benefit = kB;
  econ.gain_per_probe_hit = 3;
  econ.loss_per_leaked_tuple = 2;
  Rng campaign_rng(11);
  CampaignResult honest = std::move(
      RunCampaign(session, "rowi", "colie", 50, HonestPolicy(),
                  HonestPolicy(), econ, campaign_rng)
          .value());
  EXPECT_EQ(honest.a.times_detected, 0);
  EXPECT_DOUBLE_EQ(honest.a.average_payoff(), kB);

  // --- 5. An adversarial campaign is irrational -----------------------
  CheatPolicy prober =
      PersistentProberPolicy(sim::MakeProbeList(workload.b_private, 25, 1.0,
                                                campaign_rng),
                             5);
  CampaignResult attacked = std::move(
      RunCampaign(session, "rowi", "colie", 300, prober, HonestPolicy(), econ,
                  campaign_rng)
          .value());
  // The probes landed (stolen tuples) but detection at frequency f...
  EXPECT_GT(attacked.a.tuples_stolen, 0u);
  EXPECT_NEAR(static_cast<double>(attacked.a.times_detected) / 300, frequency,
              0.08);
  // ...makes cheating pay less than honesty, as designed.
  EXPECT_LT(attacked.a.average_payoff(), kB);
  EXPECT_GT(session.TotalPenalties("rowi"), 0.0);

  // --- 6. Restart durability ------------------------------------------
  Bytes blob = session.SaveState();
  HonestSharingSession restarted =
      std::move(HonestSharingSession::Create(config).value());
  ASSERT_TRUE(restarted.LoadState(blob).ok());
  ExchangeResult post = std::move(
      restarted.RunExchange("rowi", "colie").value());
  EXPECT_FALSE(post.a.detected);
  EXPECT_FALSE(post.b.detected);
  sovereign::Dataset expected =
      sovereign::Dataset::FromStrings(workload.common);
  EXPECT_EQ(post.a.intersection, expected);
}

}  // namespace
}  // namespace hsis::core
