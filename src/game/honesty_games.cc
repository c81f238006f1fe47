#include "game/honesty_games.h"

#include <cstdio>

#include "common/logging.h"

namespace hsis::game {

const char* ActionName(int strategy) {
  return strategy == kHonest ? "H" : "C";
}

std::string ProfileLabel(const StrategyProfile& profile) {
  std::string out;
  out.reserve(profile.size());
  for (int s : profile) out.push_back(ActionName(s)[0]);
  return out;
}

TwoPlayerGameParams TwoPlayerGameParams::Symmetric(double benefit,
                                                   double cheat_gain,
                                                   double loss,
                                                   double frequency,
                                                   double penalty) {
  TwoPlayerGameParams params;
  params.player1 = {benefit, cheat_gain};
  params.player2 = {benefit, cheat_gain};
  params.loss_to_1 = loss;
  params.loss_to_2 = loss;
  params.audit1 = {frequency, penalty};
  params.audit2 = {frequency, penalty};
  return params;
}

Status TwoPlayerGameParams::Validate() const {
  for (const PlayerEconomics* e : {&player1, &player2}) {
    if (e->benefit < 0) {
      return Status::InvalidArgument("benefit B must be non-negative");
    }
    if (e->cheat_gain <= e->benefit) {
      return Status::InvalidArgument(
          "cheating gain F must exceed honest benefit B (F > B)");
    }
  }
  if (loss_to_1 < 0 || loss_to_2 < 0) {
    return Status::InvalidArgument("losses L must be non-negative");
  }
  for (const AuditTerms* a : {&audit1, &audit2}) {
    if (a->frequency < 0 || a->frequency > 1) {
      return Status::InvalidArgument("audit frequency f must be in [0, 1]");
    }
    if (a->penalty < 0) {
      return Status::InvalidArgument("penalty P must be non-negative");
    }
  }
  return Status::OK();
}

Result<NormalFormGame> MakeTwoPlayerHonestyGame(
    const TwoPlayerGameParams& params) {
  HSIS_RETURN_IF_ERROR(params.Validate());
  HSIS_ASSIGN_OR_RETURN(NormalFormGame game, NormalFormGame::Create({2, 2}));
  game.SetStrategyNames({"H", "C"});

  const double b1 = params.player1.benefit;
  const double b2 = params.player2.benefit;
  const double f1 = params.audit1.frequency;
  const double f2 = params.audit2.frequency;
  // Expected cheating payoff of player i: caught with probability f_i.
  const double cheat1 =
      (1 - f1) * params.player1.cheat_gain - f1 * params.audit1.penalty;
  const double cheat2 =
      (1 - f2) * params.player2.cheat_gain - f2 * params.audit2.penalty;
  // Expected externality: an undetected cheater damages the other player.
  const double spill_on_1 = (1 - f2) * params.loss_to_1;  // (1-f2) L21
  const double spill_on_2 = (1 - f1) * params.loss_to_2;  // (1-f1) L12

  game.SetPayoffs({kHonest, kHonest}, {b1, b2});
  game.SetPayoffs({kHonest, kCheat}, {b1 - spill_on_1, cheat2});
  game.SetPayoffs({kCheat, kHonest}, {cheat1, b2 - spill_on_2});
  game.SetPayoffs({kCheat, kCheat}, {cheat1 - spill_on_1, cheat2 - spill_on_2});
  return game;
}

Result<NormalFormGame> MakeNoAuditGame(double benefit, double cheat_gain,
                                       double loss) {
  return MakeTwoPlayerHonestyGame(
      TwoPlayerGameParams::Symmetric(benefit, cheat_gain, loss));
}

Result<NormalFormGame> MakeSymmetricAuditedGame(double benefit,
                                                double cheat_gain, double loss,
                                                double frequency,
                                                double penalty) {
  return MakeTwoPlayerHonestyGame(TwoPlayerGameParams::Symmetric(
      benefit, cheat_gain, loss, frequency, penalty));
}

std::string FormatPayoffMatrix(const NormalFormGame& game,
                               const std::string& row_player,
                               const std::string& col_player) {
  HSIS_CHECK(game.num_players() == 2);
  auto cell = [&](int r, int c) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "(%.3g, %.3g)", game.Payoff({r, c}, 0),
                  game.Payoff({r, c}, 1));
    return std::string(buf);
  };
  std::string out;
  out += row_player + " \\ " + col_player + "\n";
  out += "            ";
  for (int c = 0; c < game.num_strategies(1); ++c) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%-22s", game.StrategyName(c).c_str());
    out += buf;
  }
  out += "\n";
  for (int r = 0; r < game.num_strategies(0); ++r) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%-12s", game.StrategyName(r).c_str());
    out += buf;
    for (int c = 0; c < game.num_strategies(1); ++c) {
      std::snprintf(buf, sizeof(buf), "%-22s", cell(r, c).c_str());
      out += buf;
    }
    out += "\n";
  }
  return out;
}

}  // namespace hsis::game
