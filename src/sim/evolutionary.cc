#include "sim/evolutionary.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace hsis::sim {

namespace {

/// Payoff of action a against action b in the symmetric 2-player game.
double PairPayoff(const game::NPlayerHonestyGame& g, bool self_honest,
                  bool other_honest) {
  return g.Payoff({self_honest, other_honest}, 0);
}

Status CheckTwoPlayer(const game::NPlayerHonestyGame& g) {
  if (g.n() != 2) {
    return Status::InvalidArgument(
        "evolutionary dynamics use the symmetric 2-player game");
  }
  return Status::OK();
}

}  // namespace

MeanFieldPayoffs MeanFieldAt(const game::NPlayerHonestyGame& g,
                             double honest_fraction) {
  double p = std::clamp(honest_fraction, 0.0, 1.0);
  MeanFieldPayoffs out;
  out.honest = p * PairPayoff(g, true, true) +
               (1 - p) * PairPayoff(g, true, false);
  out.cheat = p * PairPayoff(g, false, true) +
              (1 - p) * PairPayoff(g, false, false);
  return out;
}

Result<ReplicatorResult> RunReplicatorDynamics(
    const game::NPlayerHonestyGame& g, double initial_fraction,
    int generations) {
  HSIS_RETURN_IF_ERROR(CheckTwoPlayer(g));
  if (initial_fraction < 0 || initial_fraction > 1) {
    return Status::InvalidArgument("initial fraction must be in [0, 1]");
  }
  if (generations < 1) {
    return Status::InvalidArgument("generations must be >= 1");
  }

  // Shift all payoffs positive; affine shifts preserve replicator
  // fixed points and stability.
  double min_payoff = 0;
  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      min_payoff = std::min(min_payoff, PairPayoff(g, a, b));
    }
  }
  double shift = -min_payoff + 1.0;

  ReplicatorResult out;
  double p = initial_fraction;
  out.trajectory.reserve(static_cast<size_t>(generations) + 1);
  out.trajectory.push_back(p);
  for (int gen = 0; gen < generations; ++gen) {
    MeanFieldPayoffs u = MeanFieldAt(g, p);
    double fit_h = u.honest + shift;
    double fit_c = u.cheat + shift;
    double mean = p * fit_h + (1 - p) * fit_c;
    p = mean > 0 ? p * fit_h / mean : p;
    out.trajectory.push_back(p);
  }
  out.final_fraction = p;
  out.fixated_honest = p > 1 - 1e-6;
  out.fixated_cheat = p < 1e-6;
  return out;
}

Result<MoranResult> RunMoranProcess(const game::NPlayerHonestyGame& g,
                                    int population_size, int initial_honest,
                                    double mutation_rate, int64_t max_steps,
                                    Rng& rng) {
  HSIS_RETURN_IF_ERROR(CheckTwoPlayer(g));
  if (population_size < 2) {
    return Status::InvalidArgument("population must have >= 2 individuals");
  }
  if (initial_honest < 0 || initial_honest > population_size) {
    return Status::InvalidArgument("initial honest count out of range");
  }
  if (mutation_rate < 0 || mutation_rate > 1) {
    return Status::InvalidArgument("mutation rate must be in [0, 1]");
  }

  double min_payoff = 0;
  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      min_payoff = std::min(min_payoff, PairPayoff(g, a, b));
    }
  }
  double shift = -min_payoff + 1.0;

  int honest = initial_honest;
  const int n = population_size;
  MoranResult out;
  for (out.steps = 0; out.steps < max_steps; ++out.steps) {
    if (mutation_rate == 0 && (honest == 0 || honest == n)) break;

    // Mean-field fitness against the rest of the population.
    double p_other_honest_for_h =
        n > 1 ? static_cast<double>(honest - 1) / (n - 1) : 0;
    double p_other_honest_for_c =
        n > 1 ? static_cast<double>(honest) / (n - 1) : 0;
    double fit_h = shift + p_other_honest_for_h * PairPayoff(g, true, true) +
                   (1 - p_other_honest_for_h) * PairPayoff(g, true, false);
    double fit_c = shift + p_other_honest_for_c * PairPayoff(g, false, true) +
                   (1 - p_other_honest_for_c) * PairPayoff(g, false, false);

    double total = honest * fit_h + (n - honest) * fit_c;
    bool parent_honest = rng.UniformDouble() * total < honest * fit_h;
    if (rng.Bernoulli(mutation_rate)) parent_honest = !parent_honest;
    // The offspring replaces a uniformly random individual.
    bool victim_honest =
        rng.UniformDouble() * n < static_cast<double>(honest);
    honest += (parent_honest ? 1 : 0) - (victim_honest ? 1 : 0);
    honest = std::clamp(honest, 0, n);
  }
  out.final_honest_fraction = static_cast<double>(honest) / n;
  out.fixated_honest = honest == n;
  out.fixated_cheat = honest == 0;
  return out;
}

bool HonestyIsEvolutionarilyStable(const game::NPlayerHonestyGame& g,
                                   double epsilon) {
  MeanFieldPayoffs u = MeanFieldAt(g, 1.0 - epsilon);
  return u.honest > u.cheat;
}

}  // namespace hsis::sim
