#ifndef HSIS_BENCH_LANDSCAPE_BASELINE_H_
#define HSIS_BENCH_LANDSCAPE_BASELINE_H_

#include <string>
#include <vector>

#include "game/equilibrium.h"
#include "game/honesty_games.h"
#include "game/thresholds.h"

/// Frozen copy of the pre-kernel per-cell sweep implementation, kept
/// verbatim so the benches can measure the kernel speedup against the
/// exact code it replaced: build a dense `NormalFormGame` per cell,
/// enumerate equilibria into heap-allocated label strings, and run the
/// dominant-strategy search over the full profile space. Do not
/// "improve" this file — it is the measurement baseline, not a library.
namespace hsis::bench::baseline {

/// The label-carrying row structs the pre-kernel path filled. The
/// library itself keeps only the bitmask row structs of game/kernel.h,
/// so the baseline carries its own copies.

/// One sample of the Figure 1 landscape (equilibria vs audit frequency
/// at fixed penalty, symmetric game).
struct FrequencySweepRow {
  double frequency;
  game::SymmetricRegion analytic_region;  // closed-form prediction
  std::vector<std::string> nash_equilibria;  // brute-force enumeration
  bool honest_is_dse;                     // (H,H) is a DSE
  bool analytic_matches_enumeration;      // cross-check result
};

/// One cell of the Figure 3 (f1, f2) grid for the asymmetric game.
struct AsymmetricGridCell {
  double f1;
  double f2;
  game::AsymmetricRegion analytic_region;
  std::vector<std::string> nash_equilibria;
  bool analytic_matches_enumeration = false;
};

inline std::vector<std::string> EnumerateLabels(
    const game::NormalFormGame& g) {
  std::vector<std::string> out;
  for (const game::StrategyProfile& p : game::PureNashEquilibria(g)) {
    out.push_back(game::ProfileLabel(p));
  }
  return out;
}

inline bool HonestHonestIsDse(const game::NormalFormGame& g) {
  std::optional<game::StrategyProfile> dse =
      game::DominantStrategyEquilibrium(g);
  return dse.has_value() && (*dse)[0] == game::kHonest &&
         (*dse)[1] == game::kHonest;
}

inline bool SymmetricPredictionHolds(
    game::SymmetricRegion region, const std::vector<std::string>& equilibria) {
  auto contains = [&](const char* label) {
    for (const std::string& e : equilibria) {
      if (e == label) return true;
    }
    return false;
  };
  switch (region) {
    case game::SymmetricRegion::kAllCheatUniqueDse:
      return equilibria.size() == 1 && contains("CC");
    case game::SymmetricRegion::kAllHonestUniqueDse:
      return equilibria.size() == 1 && contains("HH");
    case game::SymmetricRegion::kBoundary:
      return contains("HH");
  }
  return false;
}

/// Pre-kernel `EvalFrequencySweepRow` body (validation stripped; the
/// bench always passes in-range arguments).
inline FrequencySweepRow FrequencyCell(double benefit, double cheat_gain,
                                       double loss, double penalty, int steps,
                                       size_t index) {
  double f = static_cast<double>(index) / (steps - 1);
  game::NormalFormGame g =
      game::MakeSymmetricAuditedGame(benefit, cheat_gain, loss, f, penalty)
          .value();
  FrequencySweepRow row;
  row.frequency = f;
  row.analytic_region =
      game::ClassifySymmetricRegion(benefit, cheat_gain, f, penalty);
  row.nash_equilibria = EnumerateLabels(g);
  row.honest_is_dse = HonestHonestIsDse(g);
  row.analytic_matches_enumeration =
      SymmetricPredictionHolds(row.analytic_region, row.nash_equilibria);
  return row;
}

/// Pre-kernel `EvalAsymmetricGridCell` body (validation stripped).
inline AsymmetricGridCell AsymmetricCell(
    const game::TwoPlayerGameParams& params, int steps, size_t index) {
  int i = static_cast<int>(index / static_cast<size_t>(steps));
  int j = static_cast<int>(index % static_cast<size_t>(steps));
  game::TwoPlayerGameParams p = params;
  p.audit1.frequency = static_cast<double>(i) / (steps - 1);
  p.audit2.frequency = static_cast<double>(j) / (steps - 1);
  game::NormalFormGame g = game::MakeTwoPlayerHonestyGame(p).value();

  AsymmetricGridCell cell;
  cell.f1 = p.audit1.frequency;
  cell.f2 = p.audit2.frequency;
  cell.analytic_region = game::ClassifyAsymmetricRegion(
      p.player1.benefit, p.player1.cheat_gain, p.audit1.penalty, cell.f1,
      p.player2.benefit, p.player2.cheat_gain, p.audit2.penalty, cell.f2);
  cell.nash_equilibria = EnumerateLabels(g);
  switch (cell.analytic_region) {
    case game::AsymmetricRegion::kBoundary:
      cell.analytic_matches_enumeration = true;
      break;
    case game::AsymmetricRegion::kBothCheat:
      cell.analytic_matches_enumeration =
          cell.nash_equilibria == std::vector<std::string>{"CC"};
      break;
    case game::AsymmetricRegion::kOnlyP1Cheats:
      cell.analytic_matches_enumeration =
          cell.nash_equilibria == std::vector<std::string>{"CH"};
      break;
    case game::AsymmetricRegion::kOnlyP2Cheats:
      cell.analytic_matches_enumeration =
          cell.nash_equilibria == std::vector<std::string>{"HC"};
      break;
    case game::AsymmetricRegion::kBothHonest:
      cell.analytic_matches_enumeration =
          cell.nash_equilibria == std::vector<std::string>{"HH"};
      break;
  }
  return cell;
}

}  // namespace hsis::bench::baseline

#endif  // HSIS_BENCH_LANDSCAPE_BASELINE_H_
