#ifndef HSIS_GAME_NPLAYER_GAME_H_
#define HSIS_GAME_NPLAYER_GAME_H_

#include <vector>

#include "common/result.h"
#include "game/normal_form_game.h"
#include "game/thresholds.h"

namespace hsis::game {

/// The n-player honesty game of Section 5, with per-player payoff
/// (equation 1):
///
///   u_i(h) = h_i B + (1-h_i)(1-f) F(||h_-i||) - (1-h_i) f P
///            - sum_{j != i} (1-h_j)(1-f) L_ji
///
/// where h_i = 1 iff player i is honest, F is a gain function monotone
/// increasing in the number of honest others, and L_ji is the loss player
/// j's undetected cheating inflicts on player i.
///
/// The payoff is evaluated implicitly (no 2^n tensor), so equilibrium
/// questions stay tractable for thousands of players: a unilateral
/// deviation only moves the own-action terms, which makes the Nash check
/// O(n) given the honest count.
class NPlayerHonestyGame {
 public:
  struct Params {
    int n = 0;               // number of players (>= 2)
    double benefit = 0.0;    // B
    GainFunction gain;       // F(x), x = number of honest others
    double frequency = 0.0;  // audit frequency f in [0, 1]
    double penalty = 0.0;    // penalty P >= 0
    /// Loss L (uniform across ordered pairs) unless `loss_matrix` is
    /// provided, in which case loss_matrix[j][i] = L_ji (diagonal ignored).
    double uniform_loss = 0.0;
    std::vector<std::vector<double>> loss_matrix;
  };

  /// The one check of `params`, shared by `Create` and the band kernel
  /// (game/kernel.h `MakeNPlayerKernelParams`): n >= 2, a gain function
  /// monotone increasing over [0, n - 1], f in [0, 1], non-negative B, P
  /// and L, and an n x n non-negative loss matrix when one is given.
  /// NaN fails every check. The InvalidArgument names the field, e.g.
  /// "NPlayerHonestyGame::Params.penalty must be >= 0".
  static Status ValidateParams(const Params& params);

  static Result<NPlayerHonestyGame> Create(Params params);

  int n() const { return params_.n; }
  const Params& params() const { return params_; }

  /// u_i(h) per equation (1). `honest.size()` must equal n.
  double Payoff(const std::vector<bool>& honest, int player) const;

  /// Pure-strategy Nash check for an arbitrary profile, O(n).
  bool IsNashEquilibrium(const std::vector<bool>& honest) const;

  /// Nash check for the symmetric class "exactly x players honest"
  /// (valid for any loss structure — losses do not depend on one's own
  /// action, so they cancel in every unilateral-deviation comparison).
  bool IsEquilibriumHonestCount(int x) const;

  /// All x in [0, n] whose symmetric profiles are Nash equilibria.
  std::vector<int> EquilibriumHonestCounts() const;

  /// True iff honesty (resp. cheating) is a weakly dominant strategy for
  /// every player. Honest dominance is the Proposition 1 condition
  /// evaluated at the worst case (all others honest).
  bool IsHonestDominant() const;
  bool IsCheatDominant() const;

  /// Dense expansion for cross-validation at small n (n <= 20).
  Result<NormalFormGame> ToNormalForm() const;

  /// Net expected gain of cheating over honesty for a player facing
  /// `honest_others` honest peers: (1-f) F(x) - f P - B. The quantity
  /// every rational-agent decision in the simulator reduces to.
  double CheatAdvantage(int honest_others) const;

 private:
  explicit NPlayerHonestyGame(Params params) : params_(std::move(params)) {}

  /// L_ji — loss that j's cheating inflicts on i.
  double Loss(int j, int i) const;

  Params params_;
};

}  // namespace hsis::game

#endif  // HSIS_GAME_NPLAYER_GAME_H_
