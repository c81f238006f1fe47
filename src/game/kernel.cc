#include "game/kernel.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "game/equilibrium.h"

namespace hsis::game::kernel {

namespace {

/// Tile of the batch evaluators: the scheduling unit of
/// common::ParallelForTiles, looped row by row inside one call. 256
/// rows keeps the widest SoA tile (~14 KB for the n-player evaluator,
/// ~4 KB double columns elsewhere) L1-resident, amortizes the per-tile
/// std::function dispatch across microsecond rows, and is
/// deliberately shaped like a GPU thread block (256 = 8 warps of 32),
/// so a future device port can map one tile to one block without
/// re-deriving batch geometry.
constexpr size_t kTileRows = 256;

Status ValidateSteps(int steps) {
  if (steps < 1) return Status::InvalidArgument("steps must be >= 1");
  return Status::OK();
}

Status ValidateRange(int steps, size_t span, size_t begin, size_t count) {
  if (begin > span || count > span - begin) {
    return Status::InvalidArgument("row range exceeds sweep index space");
  }
  (void)steps;
  return Status::OK();
}

/// Scatter helpers: one classified row into its SoA slot.
void StoreFrequencyRow(const FrequencyRowKernel& row, FrequencyRowsSoA& out,
                       size_t k) {
  out.frequency[k] = row.frequency;
  out.region[k] = row.region;
  out.nash_mask[k] = row.nash_mask;
  out.honest_is_dse[k] = row.honest_is_dse ? 1 : 0;
  out.matches[k] = row.matches ? 1 : 0;
}

void StorePenaltyRow(const PenaltyRowKernel& row, PenaltyRowsSoA& out,
                     size_t k) {
  out.penalty[k] = row.penalty;
  out.region[k] = row.region;
  out.nash_mask[k] = row.nash_mask;
  out.honest_is_dse[k] = row.honest_is_dse ? 1 : 0;
  out.matches[k] = row.matches ? 1 : 0;
}

void StoreAsymmetricCell(const AsymmetricCellKernel& cell,
                         AsymmetricCellsSoA& out, size_t k) {
  out.f1[k] = cell.f1;
  out.f2[k] = cell.f2;
  out.region[k] = cell.region;
  out.nash_mask[k] = cell.nash_mask;
  out.matches[k] = cell.matches ? 1 : 0;
}

void StoreNPlayerBandRow(const NPlayerBandRowKernel& row,
                         NPlayerBandRowsSoA& out, size_t k) {
  out.penalty[k] = row.penalty;
  out.analytic_honest_count[k] = row.analytic_honest_count;
  out.count_mask[k] = row.count_mask;
  out.honest_is_dominant[k] = row.honest_is_dominant ? 1 : 0;
  out.cheat_is_dominant[k] = row.cheat_is_dominant ? 1 : 0;
  out.matches[k] = row.matches ? 1 : 0;
}

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

Result<FrequencyRowKernel> EvalFrequencyRow(double benefit, double cheat_gain,
                                            double loss, double penalty,
                                            int steps, size_t index) {
  HSIS_RETURN_IF_ERROR(ValidateSteps(steps));
  if (index >= static_cast<size_t>(steps)) {
    return Status::InvalidArgument("row index out of range");
  }
  HSIS_RETURN_IF_ERROR(
      TwoPlayerGameParams::Symmetric(benefit, cheat_gain, loss,
                                     GridPoint(steps, index), penalty)
          .Validate());
  return FrequencyRowAt(benefit, cheat_gain, loss, penalty, steps, index);
}

Result<PenaltyRowKernel> EvalPenaltyRow(double benefit, double cheat_gain,
                                        double loss, double frequency,
                                        double max_penalty, int steps,
                                        size_t index) {
  HSIS_RETURN_IF_ERROR(ValidateSteps(steps));
  if (index >= static_cast<size_t>(steps)) {
    return Status::InvalidArgument("row index out of range");
  }
  const double p = steps == 1
                       ? 0.0
                       : max_penalty * static_cast<double>(index) / (steps - 1);
  HSIS_RETURN_IF_ERROR(TwoPlayerGameParams::Symmetric(benefit, cheat_gain,
                                                      loss, frequency, p)
                           .Validate());
  return PenaltyRowAt(benefit, cheat_gain, loss, frequency, max_penalty, steps,
                      index);
}

Result<AsymmetricCellKernel> EvalAsymmetricCell(
    const TwoPlayerGameParams& params, int steps, size_t index) {
  HSIS_RETURN_IF_ERROR(ValidateSteps(steps));
  if (index >= static_cast<size_t>(steps) * static_cast<size_t>(steps)) {
    return Status::InvalidArgument("cell index out of range");
  }
  TwoPlayerGameParams p = params;
  p.audit1.frequency = 0;
  p.audit2.frequency = 0;
  HSIS_RETURN_IF_ERROR(p.Validate());
  return AsymmetricCellAt(params, steps, index);
}

Result<NPlayerKernelParams> MakeNPlayerKernelParams(
    const NPlayerHonestyGame::Params& params) {
  // The validation of NPlayerHonestyGame::Create, performed once per
  // batch instead of once per row, plus the sweep's Theorem 1
  // requirement (frequency > 0) and the fixed-capacity bound.
  if (params.n < 2) {
    return Status::InvalidArgument("n-player game needs n >= 2");
  }
  if (params.n > kMaxKernelPlayers) {
    return Status::OutOfRange("n-player kernel limited to n <= 63");
  }
  if (!params.gain) {
    return Status::InvalidArgument("gain function F is required");
  }
  if (params.frequency <= 0 || params.frequency > 1) {
    return Status::InvalidArgument(
        "n-player penalty sweep requires frequency in (0, 1] (Theorem 1)");
  }
  if (params.penalty < 0 || params.uniform_loss < 0 || params.benefit < 0) {
    return Status::InvalidArgument("B, P and L must be non-negative");
  }
  if (!params.loss_matrix.empty()) {
    if (params.loss_matrix.size() != static_cast<size_t>(params.n)) {
      return Status::InvalidArgument("loss matrix must be n x n");
    }
    for (const auto& row : params.loss_matrix) {
      if (row.size() != static_cast<size_t>(params.n)) {
        return Status::InvalidArgument("loss matrix must be n x n");
      }
      for (double v : row) {
        if (v < 0) return Status::InvalidArgument("losses must be >= 0");
      }
    }
  }
  NPlayerKernelParams out;
  out.n = params.n;
  out.benefit = params.benefit;
  out.frequency = params.frequency;
  for (int x = 0; x < params.n; ++x) {
    out.gain_table[static_cast<size_t>(x)] = params.gain(x);
  }
  for (int x = 0; x + 1 < params.n; ++x) {
    if (out.gain_table[static_cast<size_t>(x + 1)] <
        out.gain_table[static_cast<size_t>(x)] - kGainMonotoneTolerance) {
      return Status::InvalidArgument(
          "gain function F must be monotone increasing in the number of "
          "honest players");
    }
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

Result<NPlayerBandRowKernel> EvalNPlayerBandRow(
    const NPlayerKernelParams& params, double max_penalty, int steps,
    size_t index) {
  HSIS_RETURN_IF_ERROR(ValidateSteps(steps));
  if (index >= static_cast<size_t>(steps)) {
    return Status::InvalidArgument("row index out of range");
  }
  const double p = steps == 1
                       ? 0.0
                       : max_penalty * static_cast<double>(index) / (steps - 1);
  if (p < 0) {
    return Status::InvalidArgument("B, P and L must be non-negative");
  }
  return NPlayerBandRowAt(params, max_penalty, steps, index);
}

void AppendHonestCounts(HonestCountMask mask, std::vector<int>& out) {
  for (int x = 0; x <= kMaxKernelPlayers; ++x) {
    if (mask & (HonestCountMask{1} << x)) out.push_back(x);
  }
}

void FrequencyRowsSoA::Resize(size_t n) {
  frequency.resize(n);
  region.resize(n);
  nash_mask.resize(n);
  honest_is_dse.resize(n);
  matches.resize(n);
}

void PenaltyRowsSoA::Resize(size_t n) {
  penalty.resize(n);
  region.resize(n);
  nash_mask.resize(n);
  honest_is_dse.resize(n);
  matches.resize(n);
}

void AsymmetricCellsSoA::Resize(size_t n) {
  f1.resize(n);
  f2.resize(n);
  region.resize(n);
  nash_mask.resize(n);
  matches.resize(n);
}

void NPlayerBandRowsSoA::Resize(size_t n) {
  penalty.resize(n);
  analytic_honest_count.resize(n);
  count_mask.resize(n);
  honest_is_dominant.resize(n);
  cheat_is_dominant.resize(n);
  matches.resize(n);
}

Status EvalFrequencyRows(double benefit, double cheat_gain, double loss,
                         double penalty, int steps, size_t begin, size_t count,
                         FrequencyRowsSoA& out, int threads) {
  HSIS_RETURN_IF_ERROR(ValidateSteps(steps));
  HSIS_RETURN_IF_ERROR(
      ValidateRange(steps, static_cast<size_t>(steps), begin, count));
  // One validation covers the whole batch: only the audit frequency
  // varies across rows and every grid point lies in [0, 1].
  HSIS_RETURN_IF_ERROR(
      TwoPlayerGameParams::Symmetric(benefit, cheat_gain, loss, 0.0, penalty)
          .Validate());
  out.Resize(count);
  common::ParallelForTiles(threads, count, kTileRows, [&](size_t lo,
                                                          size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      StoreFrequencyRow(FrequencyRowAt(benefit, cheat_gain, loss, penalty,
                                       steps, begin + k),
                        out, k);
    }
  });
  return Status::OK();
}

Status EvalPenaltyRows(double benefit, double cheat_gain, double loss,
                       double frequency, double max_penalty, int steps,
                       size_t begin, size_t count, PenaltyRowsSoA& out,
                       int threads) {
  HSIS_RETURN_IF_ERROR(ValidateSteps(steps));
  HSIS_RETURN_IF_ERROR(
      ValidateRange(steps, static_cast<size_t>(steps), begin, count));
  // The largest sampled penalty validates the whole batch (penalties
  // scale linearly from 0): max_penalty < 0 fails here exactly as
  // EvalPenaltyRow does on its first negative sample.
  HSIS_RETURN_IF_ERROR(TwoPlayerGameParams::Symmetric(
                           benefit, cheat_gain, loss, frequency,
                           steps == 1 ? 0.0 : max_penalty)
                           .Validate());
  out.Resize(count);
  common::ParallelForTiles(threads, count, kTileRows, [&](size_t lo,
                                                          size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      StorePenaltyRow(PenaltyRowAt(benefit, cheat_gain, loss, frequency,
                                   max_penalty, steps, begin + k),
                      out, k);
    }
  });
  return Status::OK();
}

Status EvalAsymmetricCells(const TwoPlayerGameParams& params, int steps,
                           size_t begin, size_t count, AsymmetricCellsSoA& out,
                           int threads) {
  HSIS_RETURN_IF_ERROR(ValidateSteps(steps));
  HSIS_RETURN_IF_ERROR(ValidateRange(
      steps, static_cast<size_t>(steps) * static_cast<size_t>(steps), begin,
      count));
  TwoPlayerGameParams probe = params;
  probe.audit1.frequency = 0;
  probe.audit2.frequency = 0;
  HSIS_RETURN_IF_ERROR(probe.Validate());
  out.Resize(count);
  common::ParallelForTiles(threads, count, kTileRows, [&](size_t lo,
                                                          size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      StoreAsymmetricCell(AsymmetricCellAt(params, steps, begin + k), out, k);
    }
  });
  return Status::OK();
}

Status EvalNPlayerBandRows(const NPlayerHonestyGame::Params& base_params,
                           double max_penalty, int steps, size_t begin,
                           size_t count, NPlayerBandRowsSoA& out,
                           int threads) {
  HSIS_RETURN_IF_ERROR(ValidateSteps(steps));
  HSIS_RETURN_IF_ERROR(
      ValidateRange(steps, static_cast<size_t>(steps), begin, count));
  HSIS_ASSIGN_OR_RETURN(NPlayerKernelParams params,
                        MakeNPlayerKernelParams(base_params));
  if (steps > 1 && max_penalty < 0) {
    return Status::InvalidArgument("B, P and L must be non-negative");
  }
  out.Resize(count);
  common::ParallelForTiles(threads, count, kTileRows, [&](size_t lo,
                                                          size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      StoreNPlayerBandRow(
          NPlayerBandRowAt(params, max_penalty, steps, begin + k), out, k);
    }
  });
  return Status::OK();
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
  if (in.cheat_gain.size() != in.size() || in.frequency.size() != in.size() ||
      in.penalty.size() != in.size()) {
    return Status::InvalidArgument("device point columns disagree on size");
  }
  if (begin > in.size() || count > in.size() - begin) {
    return Status::InvalidArgument("point range exceeds the request vector");
  }
  if (!std::isfinite(margin)) {
    return Status::InvalidArgument("margin must be finite");
  }
  // Per-point validation up front (requests carry independent
  // economics, unlike the single-parameterization sweeps), so the
  // answer loop below runs unchecked and allocation-free.
  for (size_t k = begin; k < begin + count; ++k) {
    const double b = in.benefit[k], f = in.cheat_gain[k];
    const double freq = in.frequency[k], p = in.penalty[k];
    if (!std::isfinite(b) || !std::isfinite(f) || !std::isfinite(freq) ||
        !std::isfinite(p)) {
      return Status::InvalidArgument("device point " + std::to_string(k) +
                                     ": parameters must be finite");
    }
    if (b < 0) {
      return Status::InvalidArgument("device point " + std::to_string(k) +
                                     ": benefit B must be non-negative");
    }
    if (f <= b) {
      return Status::InvalidArgument(
          "device point " + std::to_string(k) +
          ": cheating gain F must exceed honest benefit B");
    }
    if (freq < 0 || freq > 1) {
      return Status::InvalidArgument("device point " + std::to_string(k) +
                                     ": frequency must be in [0, 1]");
    }
    if (p < 0) {
      return Status::InvalidArgument("device point " + std::to_string(k) +
                                     ": penalty must be non-negative");
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
