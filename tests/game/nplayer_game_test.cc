#include "game/nplayer_game.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "game/equilibrium.h"
#include "game/honesty_games.h"
#include "game/kernel.h"

namespace hsis::game {
namespace {

NPlayerHonestyGame::Params BaseParams(int n) {
  NPlayerHonestyGame::Params p;
  p.n = n;
  p.benefit = 10;
  p.gain = LinearGain(20, 2);
  p.frequency = 0.3;
  p.penalty = 30;
  p.uniform_loss = 4;
  return p;
}

TEST(NPlayerGameTest, CreateValidation) {
  NPlayerHonestyGame::Params p = BaseParams(5);
  EXPECT_TRUE(NPlayerHonestyGame::Create(p).ok());

  p.n = 1;
  EXPECT_FALSE(NPlayerHonestyGame::Create(p).ok());

  p = BaseParams(5);
  p.gain = nullptr;
  EXPECT_FALSE(NPlayerHonestyGame::Create(p).ok());

  p = BaseParams(5);
  p.frequency = 1.5;
  EXPECT_FALSE(NPlayerHonestyGame::Create(p).ok());

  p = BaseParams(5);
  p.gain = [](int x) { return 20.0 - x; };  // decreasing: violates paper
  EXPECT_FALSE(NPlayerHonestyGame::Create(p).ok());

  p = BaseParams(5);
  p.loss_matrix = {{0, 1}, {1, 0}};  // wrong dimension
  EXPECT_FALSE(NPlayerHonestyGame::Create(p).ok());
}

TEST(NPlayerGameTest, BothEntryPointsRejectBadParamsNamingTheField) {
  // One table over NPlayerHonestyGame::Create and the band kernel's
  // MakeNPlayerKernelParams: each spoiled field, NaN included, is an
  // InvalidArgument naming it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* field;
    void (*spoil)(NPlayerHonestyGame::Params&, double nan);
  };
  const Case cases[] = {
      {"n", [](NPlayerHonestyGame::Params& p, double) { p.n = 1; }},
      {"gain", [](NPlayerHonestyGame::Params& p, double) { p.gain = nullptr; }},
      {"gain",
       [](NPlayerHonestyGame::Params& p, double) {
         p.gain = [](int x) { return 20.0 - x; };  // decreasing
       }},
      {"gain",
       [](NPlayerHonestyGame::Params& p, double nan) {
         p.gain = [nan](int x) { return x == 2 ? nan : 20.0 + x; };
       }},
      {"frequency",
       [](NPlayerHonestyGame::Params& p, double nan) { p.frequency = nan; }},
      {"frequency",
       [](NPlayerHonestyGame::Params& p, double) { p.frequency = -0.1; }},
      {"frequency",
       [](NPlayerHonestyGame::Params& p, double) { p.frequency = 1.5; }},
      {"benefit",
       [](NPlayerHonestyGame::Params& p, double nan) { p.benefit = nan; }},
      {"benefit", [](NPlayerHonestyGame::Params& p, double) { p.benefit = -1; }},
      {"penalty",
       [](NPlayerHonestyGame::Params& p, double nan) { p.penalty = nan; }},
      {"penalty", [](NPlayerHonestyGame::Params& p, double) { p.penalty = -1; }},
      {"uniform_loss",
       [](NPlayerHonestyGame::Params& p, double nan) { p.uniform_loss = nan; }},
      {"uniform_loss",
       [](NPlayerHonestyGame::Params& p, double) { p.uniform_loss = -1; }},
      {"loss_matrix",
       [](NPlayerHonestyGame::Params& p, double) {
         p.loss_matrix = {{0, 1}, {1, 0}};  // 2 x 2 for n = 5
       }},
      {"loss_matrix",
       [](NPlayerHonestyGame::Params& p, double) {
         p.loss_matrix.assign(5, std::vector<double>(5, 1));
         p.loss_matrix[3].pop_back();  // one ragged row
       }},
      {"loss_matrix",
       [](NPlayerHonestyGame::Params& p, double nan) {
         p.loss_matrix.assign(5, std::vector<double>(5, 1));
         p.loss_matrix[1][4] = nan;
       }},
      {"loss_matrix",
       [](NPlayerHonestyGame::Params& p, double) {
         p.loss_matrix.assign(5, std::vector<double>(5, 1));
         p.loss_matrix[4][0] = -1;
       }},
  };
  ASSERT_TRUE(NPlayerHonestyGame::Create(BaseParams(5)).ok());
  ASSERT_TRUE(kernel::MakeNPlayerKernelParams(BaseParams(5)).ok());
  for (const Case& c : cases) {
    NPlayerHonestyGame::Params p = BaseParams(5);
    c.spoil(p, nan);
    const std::string name =
        std::string("NPlayerHonestyGame::Params.") + c.field;
    Status created = NPlayerHonestyGame::Create(p).status();
    EXPECT_EQ(created.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(created.message().find(name), std::string::npos) << created;
    Status sampled = kernel::MakeNPlayerKernelParams(p).status();
    EXPECT_EQ(sampled.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(sampled.message().find(name), std::string::npos) << sampled;
  }

  // The kernel adds the sweep's f > 0 (Theorem 1), still naming the field.
  NPlayerHonestyGame::Params p = BaseParams(5);
  p.frequency = 0;
  EXPECT_TRUE(NPlayerHonestyGame::Create(p).ok());
  Status sampled = kernel::MakeNPlayerKernelParams(p).status();
  EXPECT_EQ(sampled.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sampled.message().find("NPlayerHonestyGame::Params.frequency"),
            std::string::npos)
      << sampled;
}

TEST(NPlayerGameTest, PayoffMatchesEquationOne) {
  // Worked example, n = 3, player 0's payoff in each case.
  NPlayerHonestyGame::Params p = BaseParams(3);
  Result<NPlayerHonestyGame> game = NPlayerHonestyGame::Create(p);
  ASSERT_TRUE(game.ok());

  const double f = p.frequency, B = p.benefit, P = p.penalty, L = p.uniform_loss;

  // All honest: u_0 = B.
  EXPECT_DOUBLE_EQ(game->Payoff({true, true, true}, 0), B);

  // Player 0 honest, others cheat: u_0 = B - 2 (1-f) L  (special case in
  // Section 5).
  EXPECT_DOUBLE_EQ(game->Payoff({true, false, false}, 0),
                   B - 2 * (1 - f) * L);

  // Everyone cheats: u_0 = (1-f) F(0) - f P - 2 (1-f) L.
  EXPECT_DOUBLE_EQ(game->Payoff({false, false, false}, 0),
                   (1 - f) * p.gain(0) - f * P - 2 * (1 - f) * L);

  // Player 0 cheats alone: u_0 = (1-f) F(2) - f P.
  EXPECT_DOUBLE_EQ(game->Payoff({false, true, true}, 0),
                   (1 - f) * p.gain(2) - f * P);
}

TEST(NPlayerGameTest, LossMatrixIsDirectional) {
  NPlayerHonestyGame::Params p = BaseParams(3);
  p.uniform_loss = 0;
  p.loss_matrix = {
      {0, 5, 0},  // player 0's cheating hurts player 1 by 5
      {0, 0, 0},
      {0, 0, 0},
  };
  Result<NPlayerHonestyGame> game = NPlayerHonestyGame::Create(p);
  ASSERT_TRUE(game.ok());
  // Player 0 cheats: player 1 loses (1-f) * 5, player 2 loses nothing.
  double u1 = game->Payoff({false, true, true}, 1);
  double u2 = game->Payoff({false, true, true}, 2);
  EXPECT_DOUBLE_EQ(u1, p.benefit - (1 - p.frequency) * 5);
  EXPECT_DOUBLE_EQ(u2, p.benefit);
}

std::string ProfileLabelForTest(const StrategyProfile& p) {
  std::string out;
  for (int s : p) out += (s == kHonest ? 'H' : 'C');
  return out;
}

TEST(NPlayerGameTest, NashCheckAgreesWithDenseEnumeration) {
  // Cross-validate the O(n) implicit Nash check against brute force on
  // the dense expansion for several operating points.
  for (double penalty : {0.0, 20.0, 45.0, 80.0}) {
    NPlayerHonestyGame::Params p = BaseParams(4);
    p.penalty = penalty;
    Result<NPlayerHonestyGame> game = NPlayerHonestyGame::Create(p);
    ASSERT_TRUE(game.ok());
    Result<NormalFormGame> dense = game->ToNormalForm();
    ASSERT_TRUE(dense.ok());

    for (size_t idx = 0; idx < dense->num_profiles(); ++idx) {
      StrategyProfile profile = dense->ProfileFromIndex(idx);
      std::vector<bool> honest;
      for (int s : profile) honest.push_back(s == kHonest);
      EXPECT_EQ(game->IsNashEquilibrium(honest),
                IsNashEquilibrium(*dense, profile))
          << "penalty " << penalty << " profile " << ProfileLabelForTest(profile);
    }
  }
}

TEST(NPlayerGameTest, EquilibriumHonestCountsMatchTheorem1) {
  NPlayerHonestyGame::Params p = BaseParams(8);
  const int n = p.n;
  // Pick a penalty strictly inside the x = 5 band.
  double lo = NPlayerPenaltyBound(p.benefit, p.gain, p.frequency, 4);
  double hi = NPlayerPenaltyBound(p.benefit, p.gain, p.frequency, 5);
  p.penalty = (lo + hi) / 2;
  Result<NPlayerHonestyGame> game = NPlayerHonestyGame::Create(p);
  ASSERT_TRUE(game.ok());
  std::vector<int> counts = game->EquilibriumHonestCounts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 5);
  EXPECT_EQ(NPlayerEquilibriumHonestCount(n, p.benefit, p.gain, p.frequency,
                                          p.penalty),
            5);
}

TEST(NPlayerGameTest, Proposition1TransformativeRegime) {
  NPlayerHonestyGame::Params p = BaseParams(10);
  double bound = NPlayerPenaltyBound(p.benefit, p.gain, p.frequency, p.n - 1);
  p.penalty = bound + 1;
  Result<NPlayerHonestyGame> game = NPlayerHonestyGame::Create(p);
  ASSERT_TRUE(game.ok());
  EXPECT_TRUE(game->IsHonestDominant());
  EXPECT_FALSE(game->IsCheatDominant());
  std::vector<int> counts = game->EquilibriumHonestCounts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], p.n);
  EXPECT_TRUE(game->IsNashEquilibrium(std::vector<bool>(10, true)));
  EXPECT_FALSE(game->IsNashEquilibrium(std::vector<bool>(10, false)));
}

TEST(NPlayerGameTest, Proposition2IneffectiveRegime) {
  NPlayerHonestyGame::Params p = BaseParams(10);
  double bound = NPlayerPenaltyBound(p.benefit, p.gain, p.frequency, 0);
  ASSERT_GT(bound, 0);
  p.penalty = bound / 2;
  Result<NPlayerHonestyGame> game = NPlayerHonestyGame::Create(p);
  ASSERT_TRUE(game.ok());
  EXPECT_TRUE(game->IsCheatDominant());
  EXPECT_FALSE(game->IsHonestDominant());
  std::vector<int> counts = game->EquilibriumHonestCounts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 0);
}

TEST(NPlayerGameTest, TwoPlayerSpecialCaseMatchesTable2) {
  // With n = 2, constant gain F and uniform loss, equation (1) reduces
  // exactly to the Table 2 matrix.
  NPlayerHonestyGame::Params p;
  p.n = 2;
  p.benefit = 10;
  p.gain = LinearGain(25, 0);  // constant F = 25
  p.frequency = 0.3;
  p.penalty = 40;
  p.uniform_loss = 8;
  Result<NPlayerHonestyGame> game = NPlayerHonestyGame::Create(p);
  ASSERT_TRUE(game.ok());
  Result<NormalFormGame> dense = game->ToNormalForm();
  ASSERT_TRUE(dense.ok());

  Result<NormalFormGame> table2 =
      MakeSymmetricAuditedGame(10, 25, 8, 0.3, 40);
  ASSERT_TRUE(table2.ok());
  for (size_t i = 0; i < dense->num_profiles(); ++i) {
    StrategyProfile profile = dense->ProfileFromIndex(i);
    for (int player = 0; player < 2; ++player) {
      EXPECT_NEAR(dense->Payoff(profile, player),
                  table2->Payoff(profile, player), 1e-9);
    }
  }
}

TEST(NPlayerGameTest, ScalesToThousandPlayers) {
  NPlayerHonestyGame::Params p = BaseParams(1000);
  double bound = NPlayerPenaltyBound(p.benefit, p.gain, p.frequency, p.n - 1);
  p.penalty = bound + 1;
  Result<NPlayerHonestyGame> game = NPlayerHonestyGame::Create(p);
  ASSERT_TRUE(game.ok());
  EXPECT_TRUE(game->IsHonestDominant());
  EXPECT_TRUE(game->IsNashEquilibrium(std::vector<bool>(1000, true)));
  std::vector<int> counts = game->EquilibriumHonestCounts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 1000);
}

TEST(NPlayerGameTest, DenseExpansionLimit) {
  NPlayerHonestyGame::Params p = BaseParams(25);
  Result<NPlayerHonestyGame> game = NPlayerHonestyGame::Create(p);
  ASSERT_TRUE(game.ok());
  EXPECT_FALSE(game->ToNormalForm().ok());
}

}  // namespace
}  // namespace hsis::game
