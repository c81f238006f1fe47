#include "sim/tournament.h"

#include <gtest/gtest.h>

#include "game/thresholds.h"

namespace hsis::sim {
namespace {

game::NPlayerHonestyGame MakeGame(double penalty, double frequency = 0.3) {
  game::NPlayerHonestyGame::Params p;
  p.n = 2;
  p.benefit = 10;
  p.gain = game::LinearGain(25, 0);
  p.frequency = frequency;
  p.penalty = penalty;
  p.uniform_loss = 8;
  return std::move(game::NPlayerHonestyGame::Create(p).value());
}

const TournamentStanding* Find(const std::vector<TournamentStanding>& s,
                               const std::string& name) {
  for (const TournamentStanding& entry : s) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

TEST(TournamentTest, Validation) {
  game::NPlayerHonestyGame g = MakeGame(0);
  TournamentConfig config;
  EXPECT_FALSE(RunRoundRobinTournament(g, {}, config).ok());

  game::NPlayerHonestyGame::Params p3;
  p3.n = 3;
  p3.benefit = 10;
  p3.gain = game::LinearGain(25, 0);
  p3.frequency = 0.3;
  p3.penalty = 0;
  p3.uniform_loss = 8;
  game::NPlayerHonestyGame three =
      std::move(game::NPlayerHonestyGame::Create(p3).value());
  EXPECT_FALSE(
      RunRoundRobinTournament(three, StandardLineup(&three), config).ok());
}

TEST(TournamentTest, RejectsBadConfigNamingTheField) {
  game::NPlayerHonestyGame g = MakeGame(0);
  struct Case {
    void (*mutate)(TournamentConfig&);
    const char* message;
  };
  const Case kCases[] = {
      {[](TournamentConfig& c) { c.rounds_per_match = 0; },
       "TournamentConfig.rounds_per_match must be >= 1"},
      {[](TournamentConfig& c) { c.threads = -1; },
       "TournamentConfig.threads must be >= 0 "
       "(0 selects hardware concurrency)"},
  };
  for (const Case& c : kCases) {
    TournamentConfig config;
    config.rounds_per_match = 10;
    c.mutate(config);
    auto r = RunRoundRobinTournament(g, StandardLineup(&g), config);
    ASSERT_FALSE(r.ok()) << c.message;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.message;
    EXPECT_EQ(r.status().message(), c.message);
  }
  // threads = 0 stays legal: it selects hardware concurrency.
  TournamentConfig hardware;
  hardware.rounds_per_match = 10;
  hardware.threads = 0;
  EXPECT_TRUE(RunRoundRobinTournament(g, StandardLineup(&g), hardware).ok());
}

TEST(TournamentTest, EveryPairPlaysOnce) {
  game::NPlayerHonestyGame g = MakeGame(0);
  auto lineup = StandardLineup(&g);
  TournamentConfig config;
  config.rounds_per_match = 50;
  auto standings =
      std::move(RunRoundRobinTournament(g, lineup, config).value());
  ASSERT_EQ(standings.size(), lineup.size());
  // Each strategy plays every other once plus itself (self-match counts
  // both seats): n-1 cross matches + 2 self seats... each standing's
  // match counter counts seats: (n-1) + 2.
  for (const TournamentStanding& s : standings) {
    EXPECT_EQ(s.matches, static_cast<int>(lineup.size()) + 1) << s.name;
  }
}

TEST(TournamentTest, CheatersWinWithoutDeterrence) {
  // No audits: exploiting honest opponents pays; always-cheat must beat
  // always-honest.
  game::NPlayerHonestyGame g = MakeGame(0, 0.0);
  TournamentConfig config;
  config.rounds_per_match = 100;
  auto standings = std::move(
      RunRoundRobinTournament(g, StandardLineup(&g), config).value());
  const auto* cheat = Find(standings, "always-cheat");
  const auto* honest = Find(standings, "always-honest");
  ASSERT_TRUE(cheat != nullptr && honest != nullptr);
  EXPECT_GT(cheat->total_payoff, honest->total_payoff);
}

TEST(TournamentTest, DeterrenceInvertsTheRanking) {
  // Transformative device: always-cheat pays fines in every match and
  // sinks to the bottom; honest cooperators rise to the top.
  double p_star = game::CriticalPenalty(10, 25, 0.3);
  game::NPlayerHonestyGame g = MakeGame(p_star * 2);
  TournamentConfig config;
  config.rounds_per_match = 100;
  auto standings = std::move(
      RunRoundRobinTournament(g, StandardLineup(&g), config).value());
  EXPECT_EQ(standings.back().name, "always-cheat");
  const auto* honest = Find(standings, "always-honest");
  const auto* cheat = Find(standings, "always-cheat");
  ASSERT_TRUE(honest != nullptr && cheat != nullptr);
  EXPECT_GT(honest->total_payoff, cheat->total_payoff);
  // Best-responders behave honestly here, matching the honest payoffs.
  const auto* br = Find(standings, "best-response");
  ASSERT_TRUE(br != nullptr);
  EXPECT_NEAR(br->average_payoff_per_round, honest->average_payoff_per_round,
              1.0);
}

TEST(TournamentTest, StandingsAreSortedAndAveraged) {
  game::NPlayerHonestyGame g = MakeGame(40);
  TournamentConfig config;
  config.rounds_per_match = 60;
  auto standings = std::move(
      RunRoundRobinTournament(g, StandardLineup(&g), config).value());
  for (size_t i = 1; i < standings.size(); ++i) {
    EXPECT_GE(standings[i - 1].total_payoff, standings[i].total_payoff);
  }
  for (const TournamentStanding& s : standings) {
    EXPECT_NEAR(s.average_payoff_per_round,
                s.total_payoff / (s.matches * 60.0), 1e-9);
  }
}

}  // namespace
}  // namespace hsis::sim
