#include "sim/repeated_game.h"

#include <gtest/gtest.h>

#include <limits>

#include "game/thresholds.h"

namespace hsis::sim {
namespace {

game::NPlayerHonestyGame MakeGame(int n, double penalty,
                                  double frequency = 0.3) {
  game::NPlayerHonestyGame::Params p;
  p.n = n;
  p.benefit = 10;
  p.gain = game::LinearGain(25, 1);
  p.frequency = frequency;
  p.penalty = penalty;
  p.uniform_loss = 4;
  Result<game::NPlayerHonestyGame> g = game::NPlayerHonestyGame::Create(p);
  EXPECT_TRUE(g.ok());
  return *g;
}

std::vector<std::unique_ptr<Agent>> BestResponders(
    const game::NPlayerHonestyGame& g) {
  std::vector<std::unique_ptr<Agent>> agents;
  for (int i = 0; i < g.n(); ++i) agents.push_back(MakeBestResponse(&g));
  return agents;
}

TEST(RepeatedGameTest, ValidatesInput) {
  game::NPlayerHonestyGame g = MakeGame(2, 0);
  std::vector<std::unique_ptr<Agent>> agents;
  agents.push_back(MakeAlwaysHonest());  // one agent for 2 players
  RepeatedGameConfig config;
  EXPECT_FALSE(RunRepeatedGame(g, agents, config).ok());

  agents.push_back(MakeAlwaysHonest());
  config.rounds = 0;
  EXPECT_FALSE(RunRepeatedGame(g, agents, config).ok());
}

TEST(RepeatedGameTest, RejectsBadConfigNamingTheField) {
  game::NPlayerHonestyGame g = MakeGame(2, 0);
  struct Case {
    void (*mutate)(RepeatedGameConfig&);
    const char* message;
  };
  const Case kCases[] = {
      {[](RepeatedGameConfig& c) { c.rounds = 0; },
       "RepeatedGameConfig.rounds must be >= 1"},
      {[](RepeatedGameConfig& c) { c.convergence_window = 0; },
       "RepeatedGameConfig.convergence_window must be >= 1"},
      {[](RepeatedGameConfig& c) { c.convergence_window = -5; },
       "RepeatedGameConfig.convergence_window must be >= 1"},
      {[](RepeatedGameConfig& c) {
         c.discount = std::numeric_limits<double>::quiet_NaN();
       },
       "RepeatedGameConfig.discount must be in [0, 1]"},
      {[](RepeatedGameConfig& c) { c.discount = 1.5; },
       "RepeatedGameConfig.discount must be in [0, 1]"},
  };
  for (const Case& c : kCases) {
    RepeatedGameConfig config;
    c.mutate(config);
    Result<RepeatedGameResult> r =
        RunRepeatedGame(g, BestResponders(g), config);
    ASSERT_FALSE(r.ok()) << c.message;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.message;
    EXPECT_EQ(r.status().message(), c.message);
  }
  // A window of one round is the smallest legal one.
  RepeatedGameConfig config;
  config.convergence_window = 1;
  EXPECT_TRUE(RunRepeatedGame(g, BestResponders(g), config).ok());
}

TEST(RepeatedGameTest, BestRespondersConvergeToCheatWithoutDeterrence) {
  // Observation 1 via dynamics: with an ineffective device the rational
  // population ends up at all-cheat.
  game::NPlayerHonestyGame g = MakeGame(2, /*penalty=*/0);
  auto agents = BestResponders(g);
  RepeatedGameConfig config;
  config.rounds = 100;
  Result<RepeatedGameResult> r = RunRepeatedGame(g, agents, config);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_EQ(r->final_profile, std::vector<bool>({false, false}));
  EXPECT_DOUBLE_EQ(r->honesty_rate_final, 0.0);
}

TEST(RepeatedGameTest, BestRespondersStayHonestWhenTransformative) {
  double p_needed = game::NPlayerPenaltyBound(10, game::LinearGain(25, 1),
                                              0.3, /*honest_others=*/1);
  game::NPlayerHonestyGame g = MakeGame(2, p_needed + 1);
  auto agents = BestResponders(g);
  RepeatedGameConfig config;
  config.rounds = 100;
  Result<RepeatedGameResult> r = RunRepeatedGame(g, agents, config);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_EQ(r->final_profile, std::vector<bool>({true, true}));
  EXPECT_DOUBLE_EQ(r->honesty_rate_final, 1.0);
  EXPECT_EQ(r->convergence_round, 0);  // honest from the start
}

TEST(RepeatedGameTest, TenPlayerPopulationConverges) {
  const int n = 10;
  double p_needed =
      game::NPlayerPenaltyBound(10, game::LinearGain(25, 1), 0.3, n - 1);
  game::NPlayerHonestyGame deterred = MakeGame(n, p_needed + 1);
  auto agents = BestResponders(deterred);
  RepeatedGameConfig config;
  config.rounds = 200;
  Result<RepeatedGameResult> r = RunRepeatedGame(deterred, agents, config);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->honesty_rate_final, 1.0);

  game::NPlayerHonestyGame lax = MakeGame(n, 0);
  auto lax_agents = BestResponders(lax);
  Result<RepeatedGameResult> r2 = RunRepeatedGame(lax, lax_agents, config);
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->honesty_rate_final, 0.0);
}

TEST(RepeatedGameTest, SampledModeMatchesExpectedOnAverage) {
  game::NPlayerHonestyGame g = MakeGame(2, 30, 0.4);
  // Fixed all-cheat agents: compare empirical mean payoff with eq. (1).
  std::vector<std::unique_ptr<Agent>> agents;
  agents.push_back(MakeAlwaysCheat());
  agents.push_back(MakeAlwaysCheat());
  RepeatedGameConfig config;
  config.rounds = 20000;
  config.mode = PayoffMode::kSampled;
  config.seed = 7;
  Result<RepeatedGameResult> r = RunRepeatedGame(g, agents, config);
  ASSERT_TRUE(r.ok());

  double expected = g.Payoff({false, false}, 0);
  double empirical = r->cumulative_payoffs[0] / config.rounds;
  EXPECT_NEAR(empirical, expected, 0.5);

  // Caught fraction tracks the audit frequency.
  EXPECT_EQ(r->total_cheats, 2 * config.rounds);
  EXPECT_NEAR(static_cast<double>(r->caught_cheats) / r->total_cheats, 0.4,
              0.02);
}

TEST(RepeatedGameTest, SampledModeDetectsNoCheatsWhenHonest) {
  game::NPlayerHonestyGame g = MakeGame(2, 30);
  std::vector<std::unique_ptr<Agent>> agents;
  agents.push_back(MakeAlwaysHonest());
  agents.push_back(MakeAlwaysHonest());
  RepeatedGameConfig config;
  config.rounds = 100;
  config.mode = PayoffMode::kSampled;
  Result<RepeatedGameResult> r = RunRepeatedGame(g, agents, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->total_cheats, 0);
  EXPECT_EQ(r->caught_cheats, 0);
  EXPECT_DOUBLE_EQ(r->cumulative_payoffs[0], 100 * 10.0);
}

TEST(RepeatedGameTest, GrimTriggerPunishesDefector) {
  game::NPlayerHonestyGame g = MakeGame(2, 0);
  std::vector<std::unique_ptr<Agent>> agents;
  agents.push_back(MakeGrimTrigger());
  agents.push_back(MakeAlwaysCheat());
  RepeatedGameConfig config;
  config.rounds = 50;
  Result<RepeatedGameResult> r = RunRepeatedGame(g, agents, config);
  ASSERT_TRUE(r.ok());
  // Grim trigger was honest round 0, then cheats forever.
  EXPECT_EQ(r->honest_counts[0], 1);
  EXPECT_EQ(r->honest_counts[1], 0);
  EXPECT_EQ(r->final_profile, std::vector<bool>({false, false}));
}

TEST(RepeatedGameTest, FictitiousPlayConvergesUnderDeterrence) {
  double p_needed = game::NPlayerPenaltyBound(10, game::LinearGain(25, 1),
                                              0.3, /*honest_others=*/2);
  game::NPlayerHonestyGame g = MakeGame(3, p_needed + 1);
  std::vector<std::unique_ptr<Agent>> agents;
  for (int i = 0; i < 3; ++i) agents.push_back(MakeFictitiousPlay(&g, 100 + static_cast<uint64_t>(i)));
  RepeatedGameConfig config;
  config.rounds = 150;
  Result<RepeatedGameResult> r = RunRepeatedGame(g, agents, config);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->honesty_rate_final, 1.0);
}

TEST(RepeatedGameTest, QLearnersFindHonestyWhenCheatingPunished) {
  // High frequency + heavy penalty: Q-learners should mostly settle on
  // honesty from pure payoff feedback.
  game::NPlayerHonestyGame g = MakeGame(2, 200, 0.8);
  std::vector<std::unique_ptr<Agent>> agents;
  agents.push_back(MakeEpsilonGreedy(31, 0.3, 0.99, 0.15));
  agents.push_back(MakeEpsilonGreedy(32, 0.3, 0.99, 0.15));
  RepeatedGameConfig config;
  config.rounds = 800;
  config.mode = PayoffMode::kSampled;
  config.seed = 5;
  Result<RepeatedGameResult> r = RunRepeatedGame(g, agents, config);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->honesty_rate_final, 0.8);
}

TEST(RepeatedGameTest, HonestCountsTraceLengthMatchesRounds) {
  game::NPlayerHonestyGame g = MakeGame(2, 0);
  auto agents = BestResponders(g);
  RepeatedGameConfig config;
  config.rounds = 37;
  Result<RepeatedGameResult> r = RunRepeatedGame(g, agents, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->honest_counts.size(), 37u);
}

}  // namespace
}  // namespace hsis::sim
