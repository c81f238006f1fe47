#include "game/kernel.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "game/equilibrium.h"

namespace hsis::game::kernel {

namespace {

/// Tile of the device-point evaluator: the scheduling unit of
/// common::ParallelForTiles, looped point by point inside one call. 256
/// points amortize the per-tile std::function dispatch across
/// sub-microsecond points.
constexpr size_t kTileRows = 256;

void StoreDeviceAnswer(const DeviceAnswerKernel& answer, DeviceAnswersSoA& out,
                       size_t k) {
  out.effectiveness[k] = answer.effectiveness;
  out.min_frequency[k] = answer.min_frequency;
  out.min_penalty[k] = answer.min_penalty;
  out.zero_penalty_frequency[k] = answer.zero_penalty_frequency;
}

}  // namespace

Game2x2 MakeAudited2x2(const TwoPlayerGameParams& params) {
  // Exactly the payoff arithmetic of MakeTwoPlayerHonestyGame — same
  // expressions in the same order, so every double is bit-identical to
  // the generic path (which the golden CSV pins rely on).
  const double b1 = params.player1.benefit;
  const double b2 = params.player2.benefit;
  const double f1 = params.audit1.frequency;
  const double f2 = params.audit2.frequency;
  const double cheat1 =
      (1 - f1) * params.player1.cheat_gain - f1 * params.audit1.penalty;
  const double cheat2 =
      (1 - f2) * params.player2.cheat_gain - f2 * params.audit2.penalty;
  const double spill_on_1 = (1 - f2) * params.loss_to_1;  // (1-f2) L21
  const double spill_on_2 = (1 - f1) * params.loss_to_2;  // (1-f1) L12

  Game2x2 game;
  game.SetPayoffs(kHonest, kHonest, b1, b2);
  game.SetPayoffs(kHonest, kCheat, b1 - spill_on_1, cheat2);
  game.SetPayoffs(kCheat, kHonest, cheat1, b2 - spill_on_2);
  game.SetPayoffs(kCheat, kCheat, cheat1 - spill_on_1, cheat2 - spill_on_2);
  return game;
}

ProfileMask2x2 PureNashMask(const Game2x2& game) {
  // The IsNashEquilibrium deviation test of game/equilibrium.cc: reject
  // a profile iff some unilateral alternative pays strictly more than
  // current + kPayoffEpsilon. With two strategies the only alternative
  // is the flipped one.
  ProfileMask2x2 mask = 0;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      if (game.Payoff(1 - r, c, 0) > game.Payoff(r, c, 0) + kPayoffEpsilon) {
        continue;
      }
      if (game.Payoff(r, 1 - c, 1) > game.Payoff(r, c, 1) + kPayoffEpsilon) {
        continue;
      }
      mask |= static_cast<ProfileMask2x2>(1u << (r * 2 + c));
    }
  }
  return mask;
}

bool HonestIsDse2x2(const Game2x2& game) {
  // H has the lowest strategy index, so DominantStrategyEquilibrium
  // returns (H, H) exactly when H is weakly dominant for both players —
  // the IsDominantStrategy test: fail iff payoff_s < payoff_alt - eps
  // against some opponent choice.
  for (int c = 0; c < 2; ++c) {
    if (game.Payoff(kHonest, c, 0) <
        game.Payoff(kCheat, c, 0) - kPayoffEpsilon) {
      return false;
    }
  }
  for (int r = 0; r < 2; ++r) {
    if (game.Payoff(r, kHonest, 1) <
        game.Payoff(r, kCheat, 1) - kPayoffEpsilon) {
      return false;
    }
  }
  return true;
}

const std::string& NashMaskJoined(ProfileMask2x2 mask) {
  // All 16 possible ';'-joined label sets in profile order, materialized
  // once: serialization reads a static string, never builds one.
  static const std::array<std::string, 16> kJoined = [] {
    const char* labels[4] = {"HH", "HC", "CH", "CC"};
    std::array<std::string, 16> out;
    for (unsigned m = 0; m < 16; ++m) {
      for (int bit = 0; bit < 4; ++bit) {
        if ((m & (1u << bit)) == 0) continue;
        if (!out[m].empty()) out[m] += ';';
        out[m] += labels[bit];
      }
    }
    return out;
  }();
  return kJoined[mask & 0xF];
}

bool SymmetricMaskMatches(SymmetricRegion region, ProfileMask2x2 mask) {
  // SymmetricPredictionHolds on bitmasks: interior regions predict a
  // unique equilibrium, the boundary only requires (H,H) among the NE.
  switch (region) {
    case SymmetricRegion::kAllCheatUniqueDse:
      return mask == kMaskCC;
    case SymmetricRegion::kAllHonestUniqueDse:
      return mask == kMaskHH;
    case SymmetricRegion::kBoundary:
      return (mask & kMaskHH) != 0;
  }
  return false;
}

bool AsymmetricMaskMatches(AsymmetricRegion region, ProfileMask2x2 mask) {
  switch (region) {
    case AsymmetricRegion::kBoundary:
      return true;  // boundary cells are vacuously consistent
    case AsymmetricRegion::kBothCheat:
      return mask == kMaskCC;
    case AsymmetricRegion::kOnlyP1Cheats:
      return mask == kMaskCH;
    case AsymmetricRegion::kOnlyP2Cheats:
      return mask == kMaskHC;
    case AsymmetricRegion::kBothHonest:
      return mask == kMaskHH;
  }
  return false;
}

FrequencyRowKernel FrequencyRowAt(double benefit, double cheat_gain,
                                  double loss, double penalty, int steps,
                                  size_t index) {
  FrequencyRowKernel row;
  row.frequency = GridPoint(steps, index);
  const Game2x2 game = MakeAudited2x2(TwoPlayerGameParams::Symmetric(
      benefit, cheat_gain, loss, row.frequency, penalty));
  row.region =
      ClassifySymmetricRegion(benefit, cheat_gain, row.frequency, penalty);
  row.nash_mask = PureNashMask(game);
  row.honest_is_dse = HonestIsDse2x2(game);
  row.matches = SymmetricMaskMatches(row.region, row.nash_mask);
  return row;
}

PenaltyRowKernel PenaltyRowAt(double benefit, double cheat_gain, double loss,
                              double frequency, double max_penalty, int steps,
                              size_t index) {
  PenaltyRowKernel row;
  row.penalty = steps == 1
                    ? 0.0
                    : max_penalty * static_cast<double>(index) / (steps - 1);
  const Game2x2 game = MakeAudited2x2(TwoPlayerGameParams::Symmetric(
      benefit, cheat_gain, loss, frequency, row.penalty));
  row.region =
      ClassifySymmetricRegion(benefit, cheat_gain, frequency, row.penalty);
  row.nash_mask = PureNashMask(game);
  row.honest_is_dse = HonestIsDse2x2(game);
  row.matches = SymmetricMaskMatches(row.region, row.nash_mask);
  return row;
}

AsymmetricCellKernel AsymmetricCellAt(const TwoPlayerGameParams& params,
                                      int steps, size_t index) {
  const size_t i = index / static_cast<size_t>(steps);
  const size_t j = index % static_cast<size_t>(steps);
  TwoPlayerGameParams p = params;
  p.audit1.frequency = GridPoint(steps, i);
  p.audit2.frequency = GridPoint(steps, j);

  AsymmetricCellKernel cell;
  cell.f1 = p.audit1.frequency;
  cell.f2 = p.audit2.frequency;
  const Game2x2 game = MakeAudited2x2(p);
  cell.region = ClassifyAsymmetricRegion(
      p.player1.benefit, p.player1.cheat_gain, p.audit1.penalty, cell.f1,
      p.player2.benefit, p.player2.cheat_gain, p.audit2.penalty, cell.f2);
  cell.nash_mask = PureNashMask(game);
  cell.matches = AsymmetricMaskMatches(cell.region, cell.nash_mask);
  return cell;
}

Result<NPlayerKernelParams> MakeNPlayerKernelParams(
    const NPlayerHonestyGame::Params& params) {
  // The validation of NPlayerHonestyGame::Create, performed once per
  // sweep instead of once per row, then the fixed-capacity bound and
  // the sweep's Theorem 1 requirement (frequency > 0).
  HSIS_RETURN_IF_ERROR(NPlayerHonestyGame::ValidateParams(params));
  if (params.n > kMaxKernelPlayers) {
    return Status::OutOfRange("n-player kernel limited to n <= 63");
  }
  if (!(params.frequency > 0)) {
    return Status::InvalidArgument(
        "NPlayerHonestyGame::Params.frequency must be > 0 for the n-player "
        "penalty sweep (Theorem 1)");
  }
  NPlayerKernelParams out;
  out.n = params.n;
  out.benefit = params.benefit;
  out.frequency = params.frequency;
  for (int x = 0; x < params.n; ++x) {
    out.gain_table[static_cast<size_t>(x)] = params.gain(x);
  }
  return out;
}

NPlayerBandRowKernel NPlayerBandRowAt(const NPlayerKernelParams& params,
                                      double max_penalty, int steps,
                                      size_t index) {
  NPlayerBandRowKernel row;
  row.penalty = steps == 1
                    ? 0.0
                    : max_penalty * static_cast<double>(index) / (steps - 1);

  const int n = params.n;
  const double f = params.frequency;
  const double b = params.benefit;
  const double p = row.penalty;

  // NPlayerEquilibriumHonestCount: largest x with
  // P > ((1-f) F(x-1) - B)/f — the band loop of thresholds.cc with the
  // shared kBoundaryEpsilon, gain table in place of the std::function.
  int analytic = 0;
  while (analytic < n &&
         p > ((1 - f) * params.gain_table[static_cast<size_t>(analytic)] - b) /
                     f -
                 kBoundaryEpsilon) {
    ++analytic;
  }
  row.analytic_honest_count = analytic;

  // CheatAdvantage(x) = (1-f) F(x) - f P - B, exactly as in
  // nplayer_game.cc; the symmetric-class Nash check compares against
  // kPayoffEpsilon on both edges.
  const auto advantage = [&](int x) {
    return (1 - f) * params.gain_table[static_cast<size_t>(x)] - f * p - b;
  };
  HonestCountMask mask = 0;
  int count_size = 0;
  bool analytic_in_counts = false;
  for (int x = 0; x <= n; ++x) {
    if (x > 0 && advantage(x - 1) > kPayoffEpsilon) continue;
    if (x < n && advantage(x) < -kPayoffEpsilon) continue;
    mask |= HonestCountMask{1} << x;
    ++count_size;
    if (x == analytic) analytic_in_counts = true;
  }
  row.count_mask = mask;
  row.honest_is_dominant = advantage(n - 1) <= kPayoffEpsilon;
  row.cheat_is_dominant = advantage(0) >= -kPayoffEpsilon;
  row.matches = analytic_in_counts && count_size <= 2;
  return row;
}

void AppendHonestCounts(HonestCountMask mask, std::vector<int>& out) {
  for (int x = 0; x <= kMaxKernelPlayers; ++x) {
    if (mask & (HonestCountMask{1} << x)) out.push_back(x);
  }
}

DeviceAnswerKernel DeviceAnswerAt(double benefit, double cheat_gain,
                                  double frequency, double penalty,
                                  double margin) {
  // Exactly the MechanismDesigner analytic layer, expression for
  // expression: Classify == ClassifySymmetricDevice, MinFrequency ==
  // clamp(f* + margin, 0, 1), MinPenalty == (P* < 0 ? 0 : P* + margin)
  // with CriticalPenalty's +infinity at f == 0 propagating through, and
  // ZeroPenaltyFrequency verbatim. The serve-layer cross-validation
  // suite pins bit-equality on a dense grid.
  DeviceAnswerKernel answer;
  answer.effectiveness =
      ClassifySymmetricDevice(benefit, cheat_gain, frequency, penalty);
  answer.min_frequency = std::clamp(
      CriticalFrequency(benefit, cheat_gain, penalty) + margin, 0.0, 1.0);
  const double critical_penalty =
      CriticalPenalty(benefit, cheat_gain, frequency);
  answer.min_penalty = critical_penalty < 0 ? 0.0 : critical_penalty + margin;
  answer.zero_penalty_frequency = ZeroPenaltyFrequency(benefit, cheat_gain);
  return answer;
}

void DevicePointsSoA::Resize(size_t n) {
  benefit.resize(n);
  cheat_gain.resize(n);
  frequency.resize(n);
  penalty.resize(n);
}

void DeviceAnswersSoA::Resize(size_t n) {
  effectiveness.resize(n);
  min_frequency.resize(n);
  min_penalty.resize(n);
  zero_penalty_frequency.resize(n);
}

Status EvalDevicePoints(const DevicePointsSoA& in, double margin,
                        size_t begin, size_t count, DeviceAnswersSoA& out,
                        int threads) {
  for (const auto& [column, values] :
       {std::pair{"cheat_gain", &in.cheat_gain},
        std::pair{"frequency", &in.frequency},
        std::pair{"penalty", &in.penalty}}) {
    if (values->size() != in.size()) {
      return Status::InvalidArgument(
          std::string("DevicePointsSoA.") + column + " holds " +
          std::to_string(values->size()) + " points but benefit holds " +
          std::to_string(in.size()));
    }
  }
  if (begin > in.size() || count > in.size() - begin) {
    return Status::InvalidArgument(
        std::to_string(count) + " points from " + std::to_string(begin) +
        " exceed the " + std::to_string(in.size()) +
        " points of DevicePointsSoA");
  }
  if (!std::isfinite(margin)) {
    return Status::InvalidArgument("EvalDevicePoints margin must be finite");
  }
  // Per-point validation up front (requests carry independent
  // economics, unlike the single-parameterization sweeps), so the
  // answer loop below runs unchecked and allocation-free. Each message
  // names the offending slot, `DevicePointsSoA.<column>[k]`.
  for (size_t k = begin; k < begin + count; ++k) {
    const auto slot = [k](const char* column) {
      return std::string("DevicePointsSoA.") + column + "[" +
             std::to_string(k) + "]";
    };
    const double b = in.benefit[k], f = in.cheat_gain[k];
    const double freq = in.frequency[k], p = in.penalty[k];
    for (const auto& [column, value] :
         {std::pair{"benefit", b}, std::pair{"cheat_gain", f},
          std::pair{"frequency", freq}, std::pair{"penalty", p}}) {
      if (!std::isfinite(value)) {
        return Status::InvalidArgument(slot(column) + " must be finite");
      }
    }
    if (b < 0) {
      return Status::InvalidArgument(slot("benefit") +
                                     " (B) must be non-negative");
    }
    if (f <= b) {
      return Status::InvalidArgument(slot("cheat_gain") +
                                     " (F) must exceed benefit B");
    }
    if (freq < 0 || freq > 1) {
      return Status::InvalidArgument(slot("frequency") + " must be in [0, 1]");
    }
    if (p < 0) {
      return Status::InvalidArgument(slot("penalty") +
                                     " must be non-negative");
    }
  }
  out.Resize(count);
  common::ParallelForTiles(threads, count, kTileRows, [&](size_t lo,
                                                          size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      const size_t src = begin + k;
      StoreDeviceAnswer(DeviceAnswerAt(in.benefit[src], in.cheat_gain[src],
                                       in.frequency[src], in.penalty[src],
                                       margin),
                        out, k);
    }
  });
  return Status::OK();
}

}  // namespace hsis::game::kernel
