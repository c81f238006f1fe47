#include "game/welfare.h"

#include <gtest/gtest.h>

#include <cmath>

#include "game/honesty_games.h"
#include "game/thresholds.h"

namespace hsis::game {
namespace {

constexpr double kB = 10, kF = 25, kL = 8;

TEST(WelfareTest, SocialWelfareSumsPayoffs) {
  NormalFormGame g = std::move(MakeNoAuditGame(kB, kF, kL).value());
  EXPECT_DOUBLE_EQ(SocialWelfare(g, {kHonest, kHonest}), 2 * kB);
  EXPECT_DOUBLE_EQ(SocialWelfare(g, {kCheat, kCheat}), 2 * (kF - kL));
  EXPECT_DOUBLE_EQ(SocialWelfare(g, {kHonest, kCheat}),
                   (kB - kL) + kF);
}

TEST(WelfareTest, NoAuditGameWelfareAnalysis) {
  // With L = 8, (C,C) welfare 34 actually exceeds 2B = 20 (cheating is
  // productive in aggregate when L is small); with large L it destroys
  // value.
  NormalFormGame mild = std::move(MakeNoAuditGame(kB, kF, 8).value());
  WelfareAnalysis mild_welfare = std::move(AnalyzeWelfare(mild).value());
  EXPECT_EQ(ProfileLabel(mild_welfare.worst_equilibrium), "CC");

  NormalFormGame harsh = std::move(MakeNoAuditGame(kB, kF, 24).value());
  WelfareAnalysis w = std::move(AnalyzeWelfare(harsh).value());
  // Optimal profile is (H,H) with welfare 20; equilibrium (C,C) gives
  // 2(25-24) = 2.
  EXPECT_EQ(ProfileLabel(w.optimal_profile), "HH");
  EXPECT_DOUBLE_EQ(w.optimal_welfare, 20);
  EXPECT_DOUBLE_EQ(w.equilibrium_welfare, 2);
  EXPECT_DOUBLE_EQ(w.price_of_dishonesty, 10.0);
}

TEST(WelfareTest, TransformativeDeviceRestoresOptimum) {
  double p_star = CriticalPenalty(kB, kF, 0.4);
  NormalFormGame g = std::move(
      MakeSymmetricAuditedGame(kB, kF, 24, 0.4, p_star + 1).value());
  WelfareAnalysis w = std::move(AnalyzeWelfare(g).value());
  EXPECT_EQ(ProfileLabel(w.worst_equilibrium), "HH");
  EXPECT_DOUBLE_EQ(w.equilibrium_welfare, 2 * kB);
  EXPECT_DOUBLE_EQ(w.price_of_dishonesty, 1.0);
}

TEST(WelfareTest, NoPureEquilibriumFlagged) {
  // Matching pennies: no pure NE.
  Result<NormalFormGame> g = NormalFormGame::Create({2, 2});
  ASSERT_TRUE(g.ok());
  g->SetPayoffs({0, 0}, {1, -1});
  g->SetPayoffs({0, 1}, {-1, 1});
  g->SetPayoffs({1, 0}, {-1, 1});
  g->SetPayoffs({1, 1}, {1, -1});
  WelfareAnalysis w = std::move(AnalyzeWelfare(*g).value());
  EXPECT_FALSE(w.has_pure_equilibrium);
  EXPECT_TRUE(std::isnan(w.price_of_dishonesty));
}

TEST(WelfareTest, NegativeEquilibriumWelfareGivesInfinitePrice) {
  Result<NormalFormGame> g = NormalFormGame::Create({2, 2});
  ASSERT_TRUE(g.ok());
  g->SetPayoffs({0, 0}, {5, 5});
  g->SetPayoffs({0, 1}, {-10, 6});
  g->SetPayoffs({1, 0}, {6, -10});
  g->SetPayoffs({1, 1}, {-4, -4});  // unique NE, negative welfare
  WelfareAnalysis w = std::move(AnalyzeWelfare(*g).value());
  EXPECT_EQ(ProfileLabel(w.worst_equilibrium), "CC");
  EXPECT_TRUE(std::isinf(w.price_of_dishonesty));
}

TEST(WelfareTest, NPlayerWelfareByHonestCount) {
  NPlayerHonestyGame::Params p;
  p.n = 6;
  p.benefit = kB;
  p.gain = LinearGain(kF, 0);
  p.frequency = 0;
  p.penalty = 0;
  p.uniform_loss = 24;  // cheating destroys aggregate value
  NPlayerHonestyGame game =
      std::move(NPlayerHonestyGame::Create(p).value());
  // All honest: welfare = 6B.
  EXPECT_DOUBLE_EQ(NPlayerWelfareAtHonestCount(game, 6), 6 * kB);
  // Welfare decreases as more players cheat (L > F - B per victim pair).
  double prev = NPlayerWelfareAtHonestCount(game, 6);
  for (int x = 5; x >= 0; --x) {
    double w = NPlayerWelfareAtHonestCount(game, x);
    EXPECT_LT(w, prev) << x;
    prev = w;
  }
}

TEST(WelfareTest, NetWelfareAccountsAuditCost) {
  // Running the device costs n*f*c per round; net welfare at all-honest.
  EXPECT_DOUBLE_EQ(NetWelfareAllHonest(10, kB, 0.3, 5), 100 - 15);
  // Cheaper to audit less when a bigger penalty allows it: net welfare
  // increases as f decreases.
  EXPECT_GT(NetWelfareAllHonest(10, kB, 0.1, 5),
            NetWelfareAllHonest(10, kB, 0.3, 5));
}

TEST(WelfareTest, DeviceWorthItExactlyWhenItRecoversMoreThanItCosts) {
  // Without the device: equilibrium welfare 2(F - L). With it: 2B minus
  // audit cost. The device is socially worthwhile iff
  // 2B - 2 f c > 2(F - L).
  const double loss = 24, f = 0.3, audit_cost = 5;
  double without = 2 * (kF - loss);                 // = 2
  double with_device = NetWelfareAllHonest(2, kB, f, audit_cost);  // 20 - 3
  EXPECT_GT(with_device, without);

  // A pathological device that audits everything at huge cost is not.
  EXPECT_LT(NetWelfareAllHonest(2, kB, 1.0, 15), without + 2 * loss);
}

}  // namespace
}  // namespace hsis::game
