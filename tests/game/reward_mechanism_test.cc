#include "game/reward_mechanism.h"

#include <gtest/gtest.h>

#include "game/equilibrium.h"
#include "game/honesty_games.h"

namespace hsis::game {
namespace {

constexpr double kB = 10, kF = 25, kL = 8;

TEST(RewardGameTest, PayoffCells) {
  RewardTerms terms{0.4, 12, 0};
  NormalFormGame g =
      std::move(MakeRewardAuditedGame(kB, kF, kL, terms).value());
  double honest = kB + 0.4 * 12;
  double cheat = 0.6 * kF;
  double spill = 0.6 * kL;
  EXPECT_DOUBLE_EQ(g.Payoff({kHonest, kHonest}, 0), honest);
  EXPECT_DOUBLE_EQ(g.Payoff({kHonest, kCheat}, 0), honest - spill);
  EXPECT_DOUBLE_EQ(g.Payoff({kHonest, kCheat}, 1), cheat);
  EXPECT_DOUBLE_EQ(g.Payoff({kCheat, kCheat}, 1), cheat - spill);
}

TEST(RewardGameTest, Validation) {
  EXPECT_FALSE(MakeRewardAuditedGame(10, 10, kL, {0.5, 1, 0}).ok());
  EXPECT_FALSE(MakeRewardAuditedGame(kB, kF, -1, {0.5, 1, 0}).ok());
  EXPECT_FALSE(MakeRewardAuditedGame(kB, kF, kL, {1.5, 1, 0}).ok());
  EXPECT_FALSE(MakeRewardAuditedGame(kB, kF, kL, {0.5, -1, 0}).ok());
  EXPECT_FALSE(MakeRewardAuditedGame(kB, kF, kL, {0.5, 1, -1}).ok());
  EXPECT_TRUE(MakeRewardAuditedGame(kB, kF, kL, {0.5, 1, 1}).ok());
}

TEST(RewardGameTest, CriticalRewardClosedForm) {
  // R* = ((1-f)F - B)/f - P.
  EXPECT_DOUBLE_EQ(CriticalReward(kB, kF, 0.2, 0), (0.8 * kF - kB) / 0.2);
  EXPECT_DOUBLE_EQ(CriticalReward(kB, kF, 0.2, 20),
                   (0.8 * kF - kB) / 0.2 - 20);
  // Floored at zero once the penalty (or frequency) already deters.
  EXPECT_DOUBLE_EQ(CriticalReward(kB, kF, 0.2, 1000), 0.0);
  EXPECT_DOUBLE_EQ(CriticalReward(kB, kF, 0.9, 0), 0.0);
}

TEST(RewardGameTest, RewardAndPenaltyArePerfectSubstitutes) {
  // Only R + P matters for the incentive: same classification along an
  // iso-(R+P) line.
  const double f = 0.25;
  double total = CriticalReward(kB, kF, f, 0) + 2;  // above threshold
  for (double reward : {0.0, total / 3, total / 2, total}) {
    RewardTerms terms{f, reward, total - reward};
    EXPECT_EQ(ClassifyRewardDevice(kB, kF, terms),
              DeviceEffectiveness::kTransformative)
        << "R = " << reward;
  }
  RewardTerms weak{f, total / 3, total / 3};
  EXPECT_EQ(ClassifyRewardDevice(kB, kF, weak),
            DeviceEffectiveness::kIneffective);
}

TEST(RewardGameTest, PureRewardDeviceClassificationMatchesEnumeration) {
  const double f = 0.3;
  double r_star = CriticalReward(kB, kF, f, 0);
  struct Case {
    double reward;
    DeviceEffectiveness expected;
    const char* unique_ne;  // nullptr = boundary
  };
  Case cases[] = {
      {r_star * 0.8, DeviceEffectiveness::kIneffective, "CC"},
      {r_star, DeviceEffectiveness::kEffective, nullptr},
      {r_star * 1.2, DeviceEffectiveness::kTransformative, "HH"},
  };
  for (const Case& c : cases) {
    RewardTerms terms{f, c.reward, 0};
    EXPECT_EQ(ClassifyRewardDevice(kB, kF, terms), c.expected);
    NormalFormGame g =
        std::move(MakeRewardAuditedGame(kB, kF, kL, terms).value());
    auto ne = PureNashEquilibria(g);
    if (c.unique_ne != nullptr) {
      ASSERT_EQ(ne.size(), 1u) << c.reward;
      EXPECT_EQ(ProfileLabel(ne[0]), c.unique_ne);
    } else {
      EXPECT_TRUE(IsNashEquilibrium(g, {kHonest, kHonest}));
    }
  }
}

TEST(RewardGameTest, ZeroRewardZeroPenaltyReducesToTable2AtP0) {
  RewardTerms terms{0.3, 0, 40};
  NormalFormGame reward_game =
      std::move(MakeRewardAuditedGame(kB, kF, kL, terms).value());
  NormalFormGame penalty_game =
      std::move(MakeSymmetricAuditedGame(kB, kF, kL, 0.3, 40).value());
  for (size_t i = 0; i < reward_game.num_profiles(); ++i) {
    StrategyProfile p = reward_game.ProfileFromIndex(i);
    for (int player = 0; player < 2; ++player) {
      EXPECT_DOUBLE_EQ(reward_game.Payoff(p, player),
                       penalty_game.Payoff(p, player));
    }
  }
}

TEST(RewardGameTest, OperatorEconomicsDifferSharply) {
  // Same deterrence, very different operator cost at equilibrium.
  const double f = 0.25;
  double total = CriticalReward(kB, kF, f, 0) + 1;
  RewardTerms pure_reward{f, total, 0};
  RewardTerms pure_penalty{f, 0, total};
  const int n = 10;

  // All honest (the equilibrium both devices induce):
  EXPECT_GT(OperatorCostAtHonestEquilibrium(n, pure_reward), 0.0);
  EXPECT_DOUBLE_EQ(OperatorCostAtHonestEquilibrium(n, pure_penalty), 0.0);
  EXPECT_DOUBLE_EQ(OperatorCostAtHonestEquilibrium(n, pure_reward),
                   n * f * total);

  // Off equilibrium, penalties make the operator money.
  EXPECT_LT(OperatorCostAtHonestCount(n, 0, pure_penalty), 0.0);
  EXPECT_DOUBLE_EQ(OperatorCostAtHonestCount(n, 0, pure_reward), 0.0);
  // Hybrid at half honest: pays some, collects some.
  RewardTerms hybrid{f, total / 2, total / 2};
  EXPECT_DOUBLE_EQ(OperatorCostAtHonestCount(n, 5, hybrid), 0.0);
}

}  // namespace
}  // namespace hsis::game
