#ifndef HSIS_SIM_EVOLUTIONARY_H_
#define HSIS_SIM_EVOLUTIONARY_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "game/nplayer_game.h"

namespace hsis::sim {

/// Evolutionary dynamics over the honest/cheat dichotomy: instead of
/// asking what a *rational* player computes (the equilibrium analysis)
/// or what a *learning* player converges to (the repeated-game
/// simulator), ask what *selection* does to a population where payoff
/// is fitness. The paper's thresholds reappear as stability conditions:
/// in the transformative region honesty is the unique evolutionarily
/// stable state; below it, cheating fixates.
///
/// Both dynamics use the symmetric two-player honesty game: a player
/// meeting an honest partner vs a cheating partner (the game's n must
/// be 2; losses matter here, since fitness is the *total* payoff, not a
/// best-response comparison).

/// Expected payoffs of an honest / cheating individual in a population
/// with honest fraction p (random matching).
struct MeanFieldPayoffs {
  double honest = 0;
  double cheat = 0;
};
MeanFieldPayoffs MeanFieldAt(const game::NPlayerHonestyGame& two_player_game,
                             double honest_fraction);

/// Discrete-time replicator dynamics on the honest fraction p:
///   p' = p * u_H / (p u_H + (1-p) u_C)
/// run for `generations` steps from `initial_fraction`. Payoffs are
/// shifted to be positive (replicator needs positive fitness); the
/// shift does not change fixed points or their stability.
struct ReplicatorResult {
  std::vector<double> trajectory;  // honest fraction per generation
  double final_fraction = 0;
  bool fixated_honest = false;     // p > 1 - 1e-6
  bool fixated_cheat = false;      // p < 1e-6
};

Result<ReplicatorResult> RunReplicatorDynamics(
    const game::NPlayerHonestyGame& two_player_game, double initial_fraction,
    int generations);

/// Finite-population Moran process: N individuals, each step one
/// individual reproduces with probability proportional to fitness and
/// replaces a uniformly chosen individual. With `mutation_rate` > 0 the
/// process never fixates; with 0 it ends at fixation (or the step cap).
struct MoranResult {
  double final_honest_fraction = 0;
  bool fixated_honest = false;
  bool fixated_cheat = false;
  int64_t steps = 0;
};

Result<MoranResult> RunMoranProcess(
    const game::NPlayerHonestyGame& two_player_game, int population_size,
    int initial_honest, double mutation_rate, int64_t max_steps, Rng& rng);

/// True iff all-honest is evolutionarily stable: u_H(p) > u_C(p) in a
/// neighborhood of p = 1 (checked at p = 1 - epsilon).
bool HonestyIsEvolutionarilyStable(
    const game::NPlayerHonestyGame& two_player_game, double epsilon = 1e-3);

}  // namespace hsis::sim

#endif  // HSIS_SIM_EVOLUTIONARY_H_
