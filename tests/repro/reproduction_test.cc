// Golden reproduction claims: the headline numbers recorded in
// EXPERIMENTS.md, pinned as tests so the documented results cannot
// silently drift from the code.

#include <gtest/gtest.h>

#include <algorithm>

#include "game/equilibrium.h"
#include "game/kernel.h"
#include "game/repeated_analysis.h"
#include "game/reward_mechanism.h"
#include "game/thresholds.h"
#include "sim/repeated_game.h"

namespace hsis {
namespace {

using namespace hsis::game;

// The canonical bench instance: B = 10, F = 25, L = 8.
constexpr double kB = 10, kF = 25, kL = 8;

TEST(ReproductionClaims, Table1Cells) {
  NormalFormGame g = std::move(MakeNoAuditGame(kB, kF, kL).value());
  EXPECT_DOUBLE_EQ(g.Payoff({0, 0}, 0), 10);
  EXPECT_DOUBLE_EQ(g.Payoff({0, 1}, 0), 2);
  EXPECT_DOUBLE_EQ(g.Payoff({0, 1}, 1), 25);
  EXPECT_DOUBLE_EQ(g.Payoff({1, 1}, 0), 17);
}

TEST(ReproductionClaims, Figure1CrossoverAt02308) {
  EXPECT_NEAR(CriticalFrequency(kB, kF, /*penalty=*/40), 0.2308, 5e-5);
}

TEST(ReproductionClaims, Figure2CrossoverAt50) {
  EXPECT_DOUBLE_EQ(CriticalPenalty(kB, kF, /*frequency=*/0.2), 50.0);
}

TEST(ReproductionClaims, ZeroPenaltyFrequencyAt06) {
  EXPECT_DOUBLE_EQ(ZeroPenaltyFrequency(kB, kF), 0.6);
}

TEST(ReproductionClaims, Figure3BoundariesAt04) {
  // The bench instance: (B1=10, F1=30, P1=20) and (B2=6, F2=20, P2=15).
  EXPECT_DOUBLE_EQ(CriticalFrequency(10, 30, 20), 0.4);
  EXPECT_DOUBLE_EQ(CriticalFrequency(6, 20, 15), 0.4);
}

TEST(ReproductionClaims, Figure4BandEdges) {
  // n = 8, F(x) = 20 + 2x, f = 0.3: Proposition 2 edge at x = 0 and
  // Proposition 1 edge at x = 7.
  GainFunction gain = LinearGain(20, 2);
  EXPECT_NEAR(NPlayerPenaltyBound(kB, gain, 0.3, 0), (0.7 * 20 - 10) / 0.3,
              1e-9);
  EXPECT_NEAR(NPlayerPenaltyBound(kB, gain, 0.3, 7), (0.7 * 34 - 10) / 0.3,
              1e-9);
}

TEST(ReproductionClaims, EveryFigureSweepIsMismatchFree) {
  // Every row of a `count`-row sweep agrees with its analytic region.
  const auto all_match = [](size_t count, const auto& row_at) {
    for (size_t i = 0; i < count; ++i) {
      if (!row_at(i).matches) return false;
    }
    return count > 0;
  };
  EXPECT_TRUE(all_match(51, [](size_t i) {
    return kernel::FrequencyRowAt(kB, kF, kL, 40, 51, i);
  }));
  EXPECT_TRUE(all_match(51, [](size_t i) {
    return kernel::PenaltyRowAt(kB, kF, kL, 0.2, 100, 51, i);
  }));
  TwoPlayerGameParams params;
  params.player1 = {10, 30};
  params.player2 = {6, 20};
  params.loss_to_1 = 4;
  params.loss_to_2 = 9;
  params.audit1 = {0, 20};
  params.audit2 = {0, 15};
  EXPECT_TRUE(all_match(13 * 13, [&](size_t i) {
    return kernel::AsymmetricCellAt(params, 13, i);
  }));
  NPlayerHonestyGame::Params np;
  np.n = 8;
  np.benefit = kB;
  np.gain = LinearGain(20, 2);
  np.frequency = 0.3;
  np.uniform_loss = 4;
  double top = NPlayerPenaltyBound(kB, np.gain, 0.3, 7);
  Result<kernel::NPlayerKernelParams> band = kernel::MakeNPlayerKernelParams(np);
  ASSERT_TRUE(band.ok()) << band.status();
  EXPECT_TRUE(all_match(51, [&](size_t i) {
    return kernel::NPlayerBandRowAt(*band, top * 1.2, 51, i);
  }));
}

TEST(ReproductionClaims, BehavioralFlipAtFStar) {
  // Learning agents flip all-cheat -> all-honest across f* (the E3/E9
  // behavioral claim), checked at one point per side.
  double f_star = CriticalFrequency(kB, kF, 40);
  auto honesty_at = [&](double f) {
    NPlayerHonestyGame::Params p;
    p.n = 2;
    p.benefit = kB;
    p.gain = LinearGain(kF, 0);
    p.frequency = f;
    p.penalty = 40;
    p.uniform_loss = kL;
    NPlayerHonestyGame game =
        std::move(NPlayerHonestyGame::Create(p).value());
    std::vector<std::unique_ptr<sim::Agent>> agents;
    agents.push_back(sim::MakeFictitiousPlay(&game, 1));
    agents.push_back(sim::MakeFictitiousPlay(&game, 2));
    sim::RepeatedGameConfig config;
    config.rounds = 120;
    return sim::RunRepeatedGame(game, agents, config)->honesty_rate_final;
  };
  EXPECT_DOUBLE_EQ(honesty_at(f_star - 0.05), 0.0);
  EXPECT_DOUBLE_EQ(honesty_at(f_star + 0.05), 1.0);
}

TEST(ReproductionClaims, ExtensionHeadlines) {
  // Reward mechanism: R* at f = 0.3 equals P* (perfect substitution).
  EXPECT_DOUBLE_EQ(CriticalReward(kB, kF, 0.3, 0),
                   CriticalPenalty(kB, kF, 0.3));
  // Folk theorem: delta* = (F-B)/L = 0.75 at L = 20.
  EXPECT_DOUBLE_EQ(CriticalDiscount(kB, kF, 20), 0.75);
  // Generalized Observation 2 reduces to the original at delta = 0.
  EXPECT_DOUBLE_EQ(CriticalFrequencyWithPatience(kB, kF, 12, 40, 0.0),
                   CriticalFrequency(kB, kF, 40));
}

}  // namespace
}  // namespace hsis
