#include "sim/repeated_game.h"

namespace hsis::sim {

namespace {

/// Stochastic single-round realization whose expectation matches
/// equation (1): caught-with-probability-f, full gain/penalty amounts.
void SampleRoundPayoffs(const game::NPlayerHonestyGame& game,
                        const std::vector<bool>& honest, Rng& rng,
                        std::vector<double>& payoffs, int64_t& cheats,
                        int64_t& caught,
                        std::vector<bool>& caught_this_round) {
  const auto& params = game.params();
  const int n = params.n;
  caught_this_round.assign(static_cast<size_t>(n), false);

  std::vector<int> honest_others(static_cast<size_t>(n), 0);
  int honest_total = 0;
  for (bool h : honest) honest_total += h;

  for (int i = 0; i < n; ++i) {
    honest_others[static_cast<size_t>(i)] =
        honest_total - (honest[static_cast<size_t>(i)] ? 1 : 0);
  }

  for (int i = 0; i < n; ++i) {
    if (!honest[static_cast<size_t>(i)]) {
      ++cheats;
      if (rng.Bernoulli(params.frequency)) {
        caught_this_round[static_cast<size_t>(i)] = true;
        ++caught;
      }
    }
  }

  for (int i = 0; i < n; ++i) {
    double u = 0;
    if (honest[static_cast<size_t>(i)]) {
      u += params.benefit;
    } else if (caught_this_round[static_cast<size_t>(i)]) {
      u -= params.penalty;
    } else {
      u += params.gain(honest_others[static_cast<size_t>(i)]);
    }
    // Losses from other players' *uncaught* cheating.
    for (int j = 0; j < n; ++j) {
      if (j == i || honest[static_cast<size_t>(j)] ||
          caught_this_round[static_cast<size_t>(j)]) {
        continue;
      }
      u -= params.loss_matrix.empty()
               ? params.uniform_loss
               : params.loss_matrix[static_cast<size_t>(j)][static_cast<size_t>(i)];
    }
    payoffs[static_cast<size_t>(i)] += u;
  }
}

}  // namespace

Result<RepeatedGameResult> RunRepeatedGame(
    const game::NPlayerHonestyGame& game,
    const std::vector<std::unique_ptr<Agent>>& agents,
    const RepeatedGameConfig& config) {
  const int n = game.n();
  if (agents.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument("agent count must match player count");
  }
  if (config.rounds < 1) {
    return Status::InvalidArgument("RepeatedGameConfig.rounds must be >= 1");
  }
  if (config.convergence_window < 1) {
    return Status::InvalidArgument(
        "RepeatedGameConfig.convergence_window must be >= 1");
  }
  // Written so that NaN, which compares false, fails too.
  if (!(config.discount >= 0 && config.discount <= 1)) {
    return Status::InvalidArgument(
        "RepeatedGameConfig.discount must be in [0, 1]");
  }
  if (config.observation == ObservationMode::kDetectedCheatsOnly &&
      config.mode != PayoffMode::kSampled) {
    return Status::InvalidArgument(
        "detected-cheats-only observation requires sampled payoffs");
  }

  Rng rng(config.seed);
  RepeatedGameResult result;
  result.cumulative_payoffs.assign(static_cast<size_t>(n), 0.0);
  result.discounted_payoffs.assign(static_cast<size_t>(n), 0.0);
  double discount_weight = 1.0;
  result.honest_counts.reserve(static_cast<size_t>(config.rounds));

  std::vector<bool> last_profile;
  std::vector<bool> profile(static_cast<size_t>(n), true);
  int64_t honest_actions = 0;

  std::vector<std::vector<bool>> profile_history;
  profile_history.reserve(static_cast<size_t>(config.rounds));

  for (int round = 0; round < config.rounds; ++round) {
    for (int i = 0; i < n; ++i) {
      profile[static_cast<size_t>(i)] =
          agents[static_cast<size_t>(i)]->ChooseHonest(round, last_profile, i);
    }

    int honest_count = 0;
    for (bool h : profile) honest_count += h;
    honest_actions += honest_count;
    result.honest_counts.push_back(honest_count);

    std::vector<double> round_payoffs(static_cast<size_t>(n), 0.0);
    std::vector<bool> caught_this_round(static_cast<size_t>(n), false);
    if (config.mode == PayoffMode::kExpected) {
      for (int i = 0; i < n; ++i) {
        round_payoffs[static_cast<size_t>(i)] = game.Payoff(profile, i);
        result.cumulative_payoffs[static_cast<size_t>(i)] +=
            round_payoffs[static_cast<size_t>(i)];
      }
      for (bool h : profile) result.total_cheats += h ? 0 : 1;
    } else {
      std::vector<double> before = result.cumulative_payoffs;
      SampleRoundPayoffs(game, profile, rng, result.cumulative_payoffs,
                         result.total_cheats, result.caught_cheats,
                         caught_this_round);
      for (int i = 0; i < n; ++i) {
        round_payoffs[static_cast<size_t>(i)] =
            result.cumulative_payoffs[static_cast<size_t>(i)] -
            before[static_cast<size_t>(i)];
      }
    }

    // Under partial observability, agents see others' cheats only when
    // the device caught them; uncaught cheats appear honest.
    std::vector<bool> observed = profile;
    if (config.observation == ObservationMode::kDetectedCheatsOnly) {
      for (int i = 0; i < n; ++i) {
        if (!profile[static_cast<size_t>(i)] &&
            !caught_this_round[static_cast<size_t>(i)]) {
          observed[static_cast<size_t>(i)] = true;
        }
      }
    }

    for (int i = 0; i < n; ++i) {
      result.discounted_payoffs[static_cast<size_t>(i)] +=
          discount_weight * round_payoffs[static_cast<size_t>(i)];
      std::vector<bool> view = observed;
      view[static_cast<size_t>(i)] = profile[static_cast<size_t>(i)];
      agents[static_cast<size_t>(i)]->Observe(
          view, i, round_payoffs[static_cast<size_t>(i)]);
    }
    discount_weight *= config.discount;
    last_profile = observed;
    profile_history.push_back(profile);
  }

  result.final_profile = profile;
  result.honesty_rate_overall =
      static_cast<double>(honest_actions) /
      (static_cast<double>(config.rounds) * n);

  // Convergence: final `convergence_window` rounds share one profile.
  int window_rounds = std::min(config.convergence_window, config.rounds);
  int64_t final_honest = 0;
  for (int r = config.rounds - window_rounds; r < config.rounds; ++r) {
    final_honest += result.honest_counts[static_cast<size_t>(r)];
  }
  result.honesty_rate_final =
      static_cast<double>(final_honest) /
      (static_cast<double>(window_rounds) * n);
  result.converged = true;
  for (int r = config.rounds - window_rounds; r < config.rounds; ++r) {
    if (profile_history[static_cast<size_t>(r)] != profile_history.back()) {
      result.converged = false;
      break;
    }
  }
  if (result.converged) {
    result.convergence_round = config.rounds - 1;
    for (int r = config.rounds - 1; r >= 0; --r) {
      if (profile_history[static_cast<size_t>(r)] != profile_history.back()) {
        break;
      }
      result.convergence_round = r;
    }
  }
  return result;
}

}  // namespace hsis::sim
