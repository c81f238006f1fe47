#ifndef HSIS_GAME_HETEROGENEOUS_H_
#define HSIS_GAME_HETEROGENEOUS_H_

#include <vector>

#include "common/result.h"
#include "game/thresholds.h"

namespace hsis::game {

/// The n-player honesty game with fully heterogeneous participants —
/// the natural join of Section 4.2 (asymmetric players) and Section 5
/// (n players). Player i has its own benefit B_i, gain function F_i(x)
/// (monotone in the number of honest others), audit frequency f_i, and
/// penalty P_i.
///
/// As in the homogeneous game, losses L_ji shift payoffs but never
/// enter a unilateral-deviation comparison, so equilibrium structure is
/// fully determined by each player's cheating advantage
///   A_i(x) = (1 - f_i) F_i(x) - f_i P_i - B_i .
class HeterogeneousHonestyGame {
 public:
  struct PlayerSpec {
    double benefit = 0.0;     // B_i
    GainFunction gain;        // F_i(x)
    double frequency = 0.0;   // f_i in [0, 1]
    double penalty = 0.0;     // P_i >= 0
  };

  /// Validates and builds; needs >= 2 players, monotone gains.
  static Result<HeterogeneousHonestyGame> Create(
      std::vector<PlayerSpec> players);

  int n() const { return static_cast<int>(players_.size()); }
  const PlayerSpec& player(int i) const {
    return players_[static_cast<size_t>(i)];
  }

  /// (1 - f_i) F_i(x) - f_i P_i - B_i.
  double CheatAdvantage(int player, int honest_others) const;

  /// Nash check in O(n) given the profile.
  bool IsEquilibrium(const std::vector<bool>& honest) const;

  /// All pure equilibria by subset enumeration (n <= 20).
  Result<std::vector<std::vector<bool>>> AllEquilibria() const;

  /// True iff honesty is dominant for every player (the heterogeneous
  /// Proposition 1 condition: A_i(n-1) <= 0 for all i).
  bool IsHonestDominantForAll() const;

 private:
  explicit HeterogeneousHonestyGame(std::vector<PlayerSpec> players)
      : players_(std::move(players)) {}

  std::vector<PlayerSpec> players_;
};

/// Design helpers for the heterogeneous device.

/// Execution knobs for the design searches. The per-player inner loops
/// honor the determinism contract of common/parallel.h — each player's
/// cell is computed into its ordered output slot and cross-player
/// reductions stay serial — so every thread count produces
/// bit-identical results.
struct DesignSearchOptions {
  /// 1 = serial (default), 0 = hardware concurrency, N = exactly N.
  /// Negative values are InvalidArgument.
  int threads = 1;
};

/// Per-player minimum penalties that make all-honest the dominant
/// profile at the players' given frequencies (each f_i must be > 0):
/// P_i = ((1 - f_i) F_i(n-1) - B_i) / f_i + margin, floored at 0.
Result<std::vector<double>> MinPenaltiesForAllHonest(
    const std::vector<HeterogeneousHonestyGame::PlayerSpec>& players,
    double margin = 1e-6, const DesignSearchOptions& options = {});

/// A per-player audit-frequency plan and its expected cost.
struct AuditAllocation {
  std::vector<double> frequencies;
  double total_cost = 0.0;
};

/// The cheapest frequency plan that makes all-honest dominant when each
/// audit of player i costs `audit_costs[i]` and penalties are fixed in
/// the specs: players decouple, so f_i = (F_i(n-1) - B_i)/(F_i(n-1) +
/// P_i) + margin independently.
Result<AuditAllocation> MinCostFrequencies(
    const std::vector<HeterogeneousHonestyGame::PlayerSpec>& players,
    const std::vector<double>& audit_costs, double margin = 1e-6,
    const DesignSearchOptions& options = {});

/// With a cap on the *total* audit frequency budget (sum of f_i), keeps
/// as many players honest as possible: sorts players by required
/// frequency and funds the cheapest first (a provably optimal greedy for
/// this separable constraint — each player needs a fixed f_i regardless
/// of who else is funded, since F_i(n-1) is the worst case either way).
struct BudgetedAllocation {
  std::vector<double> frequencies;  // 0 for unfunded players
  std::vector<bool> deterred;       // player made honest-dominant?
  int deterred_count = 0;
  double budget_used = 0.0;
};

Result<BudgetedAllocation> MaxDeterredUnderBudget(
    const std::vector<HeterogeneousHonestyGame::PlayerSpec>& players,
    double total_frequency_budget, double margin = 1e-6,
    const DesignSearchOptions& options = {});

}  // namespace hsis::game

#endif  // HSIS_GAME_HETEROGENEOUS_H_
