#include "game/nplayer_game.h"

#include <cmath>

#include "common/logging.h"
#include "game/equilibrium.h"
#include "game/honesty_games.h"

namespace hsis::game {

Status NPlayerHonestyGame::ValidateParams(const Params& params) {
  if (params.n < 2) {
    return Status::InvalidArgument("NPlayerHonestyGame::Params.n must be >= 2");
  }
  if (!params.gain) {
    return Status::InvalidArgument(
        "NPlayerHonestyGame::Params.gain is required");
  }
  // Written so that NaN, which compares false, fails too.
  if (!(params.frequency >= 0 && params.frequency <= 1)) {
    return Status::InvalidArgument(
        "NPlayerHonestyGame::Params.frequency must be in [0, 1]");
  }
  if (!(params.benefit >= 0)) {
    return Status::InvalidArgument(
        "NPlayerHonestyGame::Params.benefit must be >= 0");
  }
  if (!(params.penalty >= 0)) {
    return Status::InvalidArgument(
        "NPlayerHonestyGame::Params.penalty must be >= 0");
  }
  if (!(params.uniform_loss >= 0)) {
    return Status::InvalidArgument(
        "NPlayerHonestyGame::Params.uniform_loss must be >= 0");
  }
  if (!params.loss_matrix.empty()) {
    if (params.loss_matrix.size() != static_cast<size_t>(params.n)) {
      return Status::InvalidArgument(
          "NPlayerHonestyGame::Params.loss_matrix must be n x n");
    }
    for (const auto& row : params.loss_matrix) {
      if (row.size() != static_cast<size_t>(params.n)) {
        return Status::InvalidArgument(
            "NPlayerHonestyGame::Params.loss_matrix must be n x n");
      }
      for (double v : row) {
        if (!(v >= 0)) {
          return Status::InvalidArgument(
              "NPlayerHonestyGame::Params.loss_matrix entries must be >= 0");
        }
      }
    }
  }
  // Monotonicity spot check over the relevant domain.
  for (int x = 0; x + 1 < params.n; ++x) {
    if (!(params.gain(x + 1) >= params.gain(x) - kGainMonotoneTolerance)) {
      return Status::InvalidArgument(
          "NPlayerHonestyGame::Params.gain must be monotone increasing in "
          "the number of honest players");
    }
  }
  return Status::OK();
}

Result<NPlayerHonestyGame> NPlayerHonestyGame::Create(Params params) {
  HSIS_RETURN_IF_ERROR(ValidateParams(params));
  return NPlayerHonestyGame(std::move(params));
}

double NPlayerHonestyGame::Loss(int j, int i) const {
  if (params_.loss_matrix.empty()) return params_.uniform_loss;
  return params_.loss_matrix[static_cast<size_t>(j)][static_cast<size_t>(i)];
}

double NPlayerHonestyGame::CheatAdvantage(int honest_others) const {
  return (1 - params_.frequency) * params_.gain(honest_others) -
         params_.frequency * params_.penalty - params_.benefit;
}

double NPlayerHonestyGame::Payoff(const std::vector<bool>& honest,
                                  int player) const {
  HSIS_CHECK(honest.size() == static_cast<size_t>(params_.n));
  HSIS_CHECK(player >= 0 && player < params_.n);

  int honest_others = 0;
  double loss_sum = 0.0;
  for (int j = 0; j < params_.n; ++j) {
    if (j == player) continue;
    if (honest[static_cast<size_t>(j)]) {
      ++honest_others;
    } else {
      loss_sum += Loss(j, player);
    }
  }

  double u = -(1 - params_.frequency) * loss_sum;
  if (honest[static_cast<size_t>(player)]) {
    u += params_.benefit;
  } else {
    u += (1 - params_.frequency) * params_.gain(honest_others) -
         params_.frequency * params_.penalty;
  }
  return u;
}

bool NPlayerHonestyGame::IsNashEquilibrium(
    const std::vector<bool>& honest) const {
  HSIS_CHECK(honest.size() == static_cast<size_t>(params_.n));
  int honest_total = 0;
  for (bool h : honest) honest_total += h;

  // A unilateral deviation leaves the loss terms unchanged (they depend
  // only on the others' actions), so player i prefers honesty iff
  // CheatAdvantage(x_i) <= 0, where x_i is its count of honest others.
  for (int i = 0; i < params_.n; ++i) {
    bool is_honest = honest[static_cast<size_t>(i)];
    int honest_others = honest_total - (is_honest ? 1 : 0);
    double adv = CheatAdvantage(honest_others);
    if (is_honest && adv > kPayoffEpsilon) return false;
    if (!is_honest && adv < -kPayoffEpsilon) return false;
  }
  return true;
}

bool NPlayerHonestyGame::IsEquilibriumHonestCount(int x) const {
  HSIS_CHECK(x >= 0 && x <= params_.n);
  // Honest players (x of them) each face x-1 honest others; cheaters face x.
  if (x > 0 && CheatAdvantage(x - 1) > kPayoffEpsilon) return false;
  if (x < params_.n && CheatAdvantage(x) < -kPayoffEpsilon) return false;
  return true;
}

std::vector<int> NPlayerHonestyGame::EquilibriumHonestCounts() const {
  std::vector<int> out;
  for (int x = 0; x <= params_.n; ++x) {
    if (IsEquilibriumHonestCount(x)) out.push_back(x);
  }
  return out;
}

bool NPlayerHonestyGame::IsHonestDominant() const {
  // Worst case for honesty is everyone else honest (F monotone): if
  // honesty beats cheating there, it does everywhere (Proposition 1).
  return CheatAdvantage(params_.n - 1) <= kPayoffEpsilon;
}

bool NPlayerHonestyGame::IsCheatDominant() const {
  // Worst case for cheating is nobody else honest: F(0).
  return CheatAdvantage(0) >= -kPayoffEpsilon;
}

Result<NormalFormGame> NPlayerHonestyGame::ToNormalForm() const {
  if (params_.n > 20) {
    return Status::OutOfRange("dense expansion limited to n <= 20");
  }
  HSIS_ASSIGN_OR_RETURN(
      NormalFormGame game,
      NormalFormGame::Create(std::vector<int>(static_cast<size_t>(params_.n), 2)));
  game.SetStrategyNames({"H", "C"});
  std::vector<bool> honest(static_cast<size_t>(params_.n));
  for (size_t idx = 0; idx < game.num_profiles(); ++idx) {
    StrategyProfile profile = game.ProfileFromIndex(idx);
    for (int i = 0; i < params_.n; ++i) {
      honest[static_cast<size_t>(i)] = (profile[static_cast<size_t>(i)] == kHonest);
    }
    for (int i = 0; i < params_.n; ++i) {
      game.SetPayoff(profile, i, Payoff(honest, i));
    }
  }
  return game;
}

}  // namespace hsis::game
