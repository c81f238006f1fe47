#include "sim/tournament.h"

#include <algorithm>

#include "common/parallel.h"

namespace hsis::sim {

namespace {

/// One round-robin pairing with the seeds the historical serial loop
/// would have handed it (three consecutive draws per pairing, in
/// enumeration order), precomputed so pairings can run concurrently.
struct Pairing {
  size_t i = 0;
  size_t j = 0;
  uint64_t seed_i = 0;
  uint64_t seed_j = 0;
  uint64_t match_seed = 0;
};

}  // namespace

Result<std::vector<TournamentStanding>> RunRoundRobinTournament(
    const game::NPlayerHonestyGame& two_player_game,
    const std::vector<StrategyEntry>& strategies,
    const TournamentConfig& config) {
  if (two_player_game.n() != 2) {
    return Status::InvalidArgument("tournaments run on the 2-player game");
  }
  if (strategies.empty()) {
    return Status::InvalidArgument("need at least one strategy");
  }
  for (const StrategyEntry& s : strategies) {
    if (!s.make) return Status::InvalidArgument("strategy factory missing");
  }
  if (config.rounds_per_match < 1) {
    return Status::InvalidArgument(
        "TournamentConfig.rounds_per_match must be >= 1");
  }
  if (config.threads < 0) {
    return Status::InvalidArgument(
        "TournamentConfig.threads must be >= 0 "
        "(0 selects hardware concurrency)");
  }

  std::vector<TournamentStanding> standings(strategies.size());
  for (size_t i = 0; i < strategies.size(); ++i) {
    standings[i].name = strategies[i].name;
  }

  uint64_t seed = config.seed;
  std::vector<Pairing> pairings;
  pairings.reserve(strategies.size() * (strategies.size() + 1) / 2);
  for (size_t i = 0; i < strategies.size(); ++i) {
    for (size_t j = i; j < strategies.size(); ++j) {
      pairings.push_back({i, j, seed, seed + 1, seed + 2});
      seed += 3;
    }
  }

  std::vector<RepeatedGameResult> results(pairings.size());
  HSIS_RETURN_IF_ERROR(common::ParallelForWithStatus(
      config.threads, pairings.size(), [&](size_t k) -> Status {
        const Pairing& pairing = pairings[k];
        std::vector<std::unique_ptr<Agent>> agents;
        agents.push_back(strategies[pairing.i].make(pairing.seed_i));
        agents.push_back(strategies[pairing.j].make(pairing.seed_j));
        RepeatedGameConfig match;
        match.rounds = config.rounds_per_match;
        match.mode = config.mode;
        match.seed = pairing.match_seed;
        HSIS_ASSIGN_OR_RETURN(
            results[k], RunRepeatedGame(two_player_game, agents, match));
        return Status::OK();
      }));

  // Accumulate in enumeration order — the same floating-point addition
  // order as the serial loop, hence bit-identical standings.
  for (size_t k = 0; k < pairings.size(); ++k) {
    const Pairing& pairing = pairings[k];
    const RepeatedGameResult& result = results[k];
    standings[pairing.i].total_payoff += result.cumulative_payoffs[0];
    standings[pairing.i].matches += 1;
    standings[pairing.j].total_payoff += result.cumulative_payoffs[1];
    standings[pairing.j].matches += 1;
  }
  for (TournamentStanding& s : standings) {
    s.average_payoff_per_round =
        s.total_payoff / (static_cast<double>(s.matches) *
                          config.rounds_per_match);
  }
  std::sort(standings.begin(), standings.end(),
            [](const TournamentStanding& a, const TournamentStanding& b) {
              return a.total_payoff > b.total_payoff;
            });
  return standings;
}

std::vector<StrategyEntry> StandardLineup(
    const game::NPlayerHonestyGame* game) {
  return {
      {"always-honest", [](uint64_t) { return MakeAlwaysHonest(); }},
      {"always-cheat", [](uint64_t) { return MakeAlwaysCheat(); }},
      {"best-response", [game](uint64_t) { return MakeBestResponse(game); }},
      {"fictitious-play",
       [game](uint64_t seed) { return MakeFictitiousPlay(game, seed); }},
      {"grim-trigger", [](uint64_t) { return MakeGrimTrigger(); }},
      {"tit-for-tat", [](uint64_t) { return MakeTitForTat(); }},
      {"pavlov",
       [game](uint64_t) { return MakePavlov(game->params().benefit - 0.5); }},
      {"epsilon-greedy-q",
       [](uint64_t seed) { return MakeEpsilonGreedy(seed, 0.4, 0.995, 0.15); }},
  };
}

}  // namespace hsis::sim
