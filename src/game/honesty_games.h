#ifndef HSIS_GAME_HONESTY_GAMES_H_
#define HSIS_GAME_HONESTY_GAMES_H_

#include <string>

#include "common/result.h"
#include "game/normal_form_game.h"

namespace hsis::game {

/// Strategy indices used by every honesty game in the library.
inline constexpr int kHonest = 0;
inline constexpr int kCheat = 1;

/// Returns "H" or "C".
const char* ActionName(int strategy);

/// Compact label for a pure profile, one `ActionName` letter per
/// player, e.g. "HC" (player 1 honest, player 2 cheating).
std::string ProfileLabel(const StrategyProfile& profile);

/// Economic parameters of one player in the two-player sharing game
/// (Section 3): B is the benefit from honest collaboration, F > B the
/// increased benefit the player expects from cheating.
struct PlayerEconomics {
  double benefit = 0.0;     // B_i
  double cheat_gain = 0.0;  // F_i, must exceed benefit for the dilemma
};

/// Audit parameters applied to one player (Section 4): the device checks
/// the player with relative frequency `frequency` in [0,1] and fines a
/// detected cheater `penalty` >= 0.
struct AuditTerms {
  double frequency = 0.0;  // f_i
  double penalty = 0.0;    // P_i
};

/// Full parameterization of the (possibly asymmetric) audited two-player
/// game of Table 3. Table 1 is the special case frequency = penalty = 0;
/// Table 2 is the symmetric case.
struct TwoPlayerGameParams {
  PlayerEconomics player1;  // Rowi
  PlayerEconomics player2;  // Colie
  /// loss_to_1 (the paper's L21): the loss player 2's undetected cheating
  /// inflicts on player 1; loss_to_2 (L12) symmetric.
  double loss_to_1 = 0.0;
  double loss_to_2 = 0.0;
  AuditTerms audit1;  // device's terms for player 1
  AuditTerms audit2;  // device's terms for player 2

  /// Convenience: the symmetric instance (B, F, L) with shared audit
  /// terms (f, P) of Tables 1 and 2.
  static TwoPlayerGameParams Symmetric(double benefit, double cheat_gain,
                                       double loss, double frequency = 0.0,
                                       double penalty = 0.0);

  /// Validates ranges: F_i > B_i >= 0, L >= 0, f in [0,1], P >= 0.
  Status Validate() const;
};

/// Builds the Table 3 payoff matrix (player 1 = Rowi rows, player 2 =
/// Colie columns, strategies {H, C}):
///
///   u1(H,H) = B1                u1(H,C) = B1 - (1-f2) L21
///   u1(C,H) = (1-f1)F1 - f1 P1  u1(C,C) = (1-f1)F1 - f1 P1 - (1-f2) L21
///   (player 2 symmetric with indices swapped)
///
/// With audit terms zeroed this reduces exactly to Table 1; symmetric
/// parameters give Table 2.
Result<NormalFormGame> MakeTwoPlayerHonestyGame(
    const TwoPlayerGameParams& params);

/// The Section 3 no-audit game (Table 1), symmetric form.
Result<NormalFormGame> MakeNoAuditGame(double benefit, double cheat_gain,
                                       double loss);

/// The Section 4.1 symmetric audited game (Table 2).
Result<NormalFormGame> MakeSymmetricAuditedGame(double benefit,
                                                double cheat_gain, double loss,
                                                double frequency,
                                                double penalty);

/// Renders the payoff matrix in the paper's layout (each cell lists
/// player 1 bottom-left, player 2 top-right) for table reproductions.
std::string FormatPayoffMatrix(const NormalFormGame& game,
                               const std::string& row_player,
                               const std::string& col_player);

}  // namespace hsis::game

#endif  // HSIS_GAME_HONESTY_GAMES_H_
