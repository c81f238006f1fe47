#include "game/honesty_games.h"

#include <gtest/gtest.h>

#include "game/equilibrium.h"

namespace hsis::game {
namespace {

// Baseline economics used throughout: B = 10, F = 25 (> B), L = 8.
constexpr double kB = 10, kF = 25, kL = 8;

TEST(TwoPlayerParamsTest, ValidationRules) {
  EXPECT_TRUE(TwoPlayerGameParams::Symmetric(kB, kF, kL).Validate().ok());
  // F <= B violates the paper's standing assumption.
  EXPECT_FALSE(TwoPlayerGameParams::Symmetric(10, 10, kL).Validate().ok());
  EXPECT_FALSE(TwoPlayerGameParams::Symmetric(10, 5, kL).Validate().ok());
  EXPECT_FALSE(TwoPlayerGameParams::Symmetric(-1, 5, kL).Validate().ok());
  EXPECT_FALSE(TwoPlayerGameParams::Symmetric(kB, kF, -1).Validate().ok());
  EXPECT_FALSE(
      TwoPlayerGameParams::Symmetric(kB, kF, kL, 1.5, 0).Validate().ok());
  EXPECT_FALSE(
      TwoPlayerGameParams::Symmetric(kB, kF, kL, 0.5, -1).Validate().ok());
}

// --- Table 1: the no-audit game of Section 3 -----------------------------

TEST(Table1Test, PayoffMatrixMatchesPaper) {
  Result<NormalFormGame> g = MakeNoAuditGame(kB, kF, kL);
  ASSERT_TRUE(g.ok());
  // (H,H): both get B.
  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kHonest}, 0), kB);
  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kHonest}, 1), kB);
  // (H,C): honest player suffers B - L, cheater gets F.
  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kCheat}, 0), kB - kL);
  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kCheat}, 1), kF);
  // (C,H) mirrors.
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kHonest}, 0), kF);
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kHonest}, 1), kB - kL);
  // (C,C): F - L each.
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kCheat}, 0), kF - kL);
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kCheat}, 1), kF - kL);
}

// Observation 1: with F > B and no auditing, (C,C) is the only NE and DSE,
// irrespective of the value of L.
class Observation1Test : public ::testing::TestWithParam<double> {};

TEST_P(Observation1Test, CheatCheatIsUniqueEquilibrium) {
  double loss = GetParam();
  Result<NormalFormGame> g = MakeNoAuditGame(kB, kF, loss);
  ASSERT_TRUE(g.ok());

  std::vector<StrategyProfile> ne = PureNashEquilibria(*g);
  ASSERT_EQ(ne.size(), 1u);
  EXPECT_EQ(ne[0], (StrategyProfile{kCheat, kCheat}));

  std::optional<StrategyProfile> dse = DominantStrategyEquilibrium(*g);
  ASSERT_TRUE(dse.has_value());
  EXPECT_EQ(*dse, (StrategyProfile{kCheat, kCheat}));

  // (H,H) is not an equilibrium even when cheating destroys value
  // overall (F - L < B).
  EXPECT_FALSE(IsNashEquilibrium(*g, {kHonest, kHonest}));
}

INSTANTIATE_TEST_SUITE_P(LossSweep, Observation1Test,
                         ::testing::Values(0.0, 1.0, 8.0, 20.0, 100.0));

// --- Table 2: the symmetric audited game ---------------------------------

TEST(Table2Test, PayoffMatrixMatchesPaper) {
  const double f = 0.3, P = 40;
  Result<NormalFormGame> g = MakeSymmetricAuditedGame(kB, kF, kL, f, P);
  ASSERT_TRUE(g.ok());

  const double cheat = (1 - f) * kF - f * P;
  const double spill = (1 - f) * kL;

  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kHonest}, 0), kB);
  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kCheat}, 0), kB - spill);
  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kCheat}, 1), cheat);
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kHonest}, 0), cheat);
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kCheat}, 0), cheat - spill);
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kCheat}, 1), cheat - spill);
}

TEST(Table2Test, ZeroAuditTermsReduceToTable1) {
  Result<NormalFormGame> audited = MakeSymmetricAuditedGame(kB, kF, kL, 0, 0);
  Result<NormalFormGame> plain = MakeNoAuditGame(kB, kF, kL);
  ASSERT_TRUE(audited.ok() && plain.ok());
  for (size_t i = 0; i < audited->num_profiles(); ++i) {
    StrategyProfile p = audited->ProfileFromIndex(i);
    for (int player = 0; player < 2; ++player) {
      EXPECT_DOUBLE_EQ(audited->Payoff(p, player), plain->Payoff(p, player));
    }
  }
}

// --- Table 3: the asymmetric audited game --------------------------------

TEST(Table3Test, PayoffMatrixMatchesPaper) {
  TwoPlayerGameParams params;
  params.player1 = {10, 30};   // B1, F1
  params.player2 = {6, 20};    // B2, F2
  params.loss_to_1 = 4;        // L21
  params.loss_to_2 = 9;        // L12
  params.audit1 = {0.2, 50};   // f1, P1
  params.audit2 = {0.4, 35};   // f2, P2

  Result<NormalFormGame> g = MakeTwoPlayerHonestyGame(params);
  ASSERT_TRUE(g.ok());

  const double cheat1 = 0.8 * 30 - 0.2 * 50;   // (1-f1)F1 - f1 P1
  const double cheat2 = 0.6 * 20 - 0.4 * 35;   // (1-f2)F2 - f2 P2
  const double spill1 = 0.6 * 4;               // (1-f2) L21
  const double spill2 = 0.8 * 9;               // (1-f1) L12

  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kHonest}, 0), 10);
  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kHonest}, 1), 6);
  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kCheat}, 0), 10 - spill1);
  EXPECT_DOUBLE_EQ(g->Payoff({kHonest, kCheat}, 1), cheat2);
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kHonest}, 0), cheat1);
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kHonest}, 1), 6 - spill2);
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kCheat}, 0), cheat1 - spill1);
  EXPECT_DOUBLE_EQ(g->Payoff({kCheat, kCheat}, 1), cheat2 - spill2);
}

TEST(Table3Test, MixedRegionsExist) {
  // Audit Colie heavily, Rowi rarely: the paper's Figure 3 upper-left
  // corner — (C,H) is the unique equilibrium ("poor Colie").
  TwoPlayerGameParams params = TwoPlayerGameParams::Symmetric(kB, kF, kL);
  params.audit1 = {0.05, 20};  // rarely audited
  params.audit2 = {0.9, 20};   // heavily audited
  Result<NormalFormGame> g = MakeTwoPlayerHonestyGame(params);
  ASSERT_TRUE(g.ok());
  std::vector<StrategyProfile> ne = PureNashEquilibria(*g);
  ASSERT_EQ(ne.size(), 1u);
  EXPECT_EQ(ne[0], (StrategyProfile{kCheat, kHonest}));
}

TEST(FormatPayoffMatrixTest, ContainsStrategiesAndValues) {
  Result<NormalFormGame> g = MakeNoAuditGame(kB, kF, kL);
  ASSERT_TRUE(g.ok());
  std::string table = FormatPayoffMatrix(*g, "Rowi", "Colie");
  EXPECT_NE(table.find("Rowi"), std::string::npos);
  EXPECT_NE(table.find("Colie"), std::string::npos);
  EXPECT_NE(table.find("25"), std::string::npos);  // F appears
  EXPECT_NE(table.find("10"), std::string::npos);  // B appears
}

TEST(ActionNameTest, Labels) {
  EXPECT_STREQ(ActionName(kHonest), "H");
  EXPECT_STREQ(ActionName(kCheat), "C");
}

TEST(ProfileLabelTest, Labels) {
  EXPECT_EQ(ProfileLabel({kHonest, kCheat}), "HC");
  EXPECT_EQ(ProfileLabel({kCheat, kCheat, kHonest}), "CCH");
}

}  // namespace
}  // namespace hsis::game
