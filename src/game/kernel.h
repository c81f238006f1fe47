#ifndef HSIS_GAME_KERNEL_H_
#define HSIS_GAME_KERNEL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "game/honesty_games.h"
#include "game/nplayer_game.h"
#include "game/thresholds.h"

/// \file
/// \brief The landscape API: allocation-free row kernels for the
/// paper's four figures.
///
/// Every figure row has one shape: a per-row struct
/// (`FrequencyRowKernel`, `PenaltyRowKernel`, `AsymmetricCellKernel`,
/// `NPlayerBandRowKernel`) computed by one pure function of the sweep
/// parameters and the global row index (`FrequencyRowAt`,
/// `PenaltyRowAt`, `AsymmetricCellAt`, `NPlayerBandRowAt`). The sweep
/// catalogue (core/sweeps.h) calls them over its constant figure
/// parameters, one record per row. The kernels replace the generic
/// solver stack (NormalFormGame -> PureNashEquilibria ->
/// vector<string> labels) cell-for-cell:
///
///  * `Game2x2` — a stack-only 2x2 payoff matrix (flat
///    `std::array<double, 8>`), built with exactly the arithmetic of
///    `MakeTwoPlayerHonestyGame` so every payoff double is bit-identical
///    to the generic path;
///  * equilibrium and dominance sets as **bitmasks** (`ProfileMask2x2`,
///    `HonestCountMask`) instead of `vector<string>` labels, computed
///    with exactly the `kPayoffEpsilon` comparison semantics of
///    game/equilibrium.h;
///  * the row kernels make **zero heap allocations** (guarded by an
///    operator-new counter test in tests/game/kernel_test.cc).
///
/// Bitmasks become label text only through `NashMaskJoined` (the 16
/// interned 2x2 label joins) and the row serializers of game/report.h,
/// so the figure CSVs stay byte-identical to the pre-kernel serial path —
/// pinned by the SHA-256 goldens in tests/game/kernel_golden_test.cc
/// and tests/game/shard_golden_test.cc.
///
/// \par Usage
/// \code
///   // Row `i` of a `steps`-point frequency sweep (steps >= 1, i < steps).
///   FrequencyRowKernel row = FrequencyRowAt(
///       /*benefit=*/10, /*cheat_gain=*/25, /*loss=*/8, /*penalty=*/40,
///       steps, i);
///   csv += FrequencyKernelRowToCsv(row);  // game/report.h
/// \endcode

/// \namespace hsis::game
/// \brief The paper's game-theoretic layer: honesty games, equilibrium
/// analysis, figure landscapes, and mechanism design searches.

/// \namespace hsis::game::kernel
/// \brief Allocation-free row kernels and bitmask equilibrium
/// representations behind the landscape sweeps.

namespace hsis::game::kernel {

/// Pure-profile bitmask of a 2x2 game. Bit order is the
/// `NormalFormGame::ProfileIndex` order of a {2, 2} game — index
/// r * 2 + c with H = 0, C = 1 — so ascending bit position matches the
/// label order the generic enumeration emits: HH, HC, CH, CC.
using ProfileMask2x2 = uint8_t;

inline constexpr ProfileMask2x2 kMaskHH = 1u << 0;  ///< Profile (H, H).
inline constexpr ProfileMask2x2 kMaskHC = 1u << 1;  ///< Profile (H, C).
inline constexpr ProfileMask2x2 kMaskCH = 1u << 2;  ///< Profile (C, H).
inline constexpr ProfileMask2x2 kMaskCC = 1u << 3;  ///< Profile (C, C).

/// A 2-player, 2-strategy game on the stack: payoffs in a flat array,
/// no heap, no names, no validation. Index layout mirrors the dense
/// payoff tensor of NormalFormGame: `payoffs[(r * 2 + c) * 2 + player]`.
struct Game2x2 {
  /// Dense payoff tensor, `(r * 2 + c) * 2 + player` layout.
  std::array<double, 8> payoffs;

  /// Payoff of `player` (0 or 1) at profile (row `r`, column `c`).
  double Payoff(int r, int c, int player) const {
    return payoffs[static_cast<size_t>((r * 2 + c) * 2 + player)];
  }
  /// Sets both players' payoffs at profile (row `r`, column `c`).
  void SetPayoffs(int r, int c, double u1, double u2) {
    payoffs[static_cast<size_t>((r * 2 + c) * 2)] = u1;
    payoffs[static_cast<size_t>((r * 2 + c) * 2 + 1)] = u2;
  }
};

/// Builds the Table 3 payoff matrix with exactly the arithmetic of
/// `MakeTwoPlayerHonestyGame` (same expressions, same evaluation order,
/// bit-identical doubles) but no validation and no allocation. The
/// caller validates `params` once per sweep, not once per cell.
Game2x2 MakeAudited2x2(const TwoPlayerGameParams& params);

/// All pure-strategy Nash equilibria of `game` as a bitmask — the exact
/// `kPayoffEpsilon` deviation test of `IsNashEquilibrium`, profile for
/// profile.
ProfileMask2x2 PureNashMask(const Game2x2& game);

/// True iff (H, H) is a weakly-dominant-strategy equilibrium — the
/// `DominantStrategyEquilibrium(game) == (kHonest, kHonest)` predicate
/// of the generic path (H has the lowest strategy index, so it is the
/// chosen DSE component exactly when it is weakly dominant).
bool HonestIsDse2x2(const Game2x2& game);

/// The interned ';'-joined label image of a mask in profile order
/// ("HH;CC" for kMaskHH | kMaskCC) — one of 16 static strings, no
/// allocation. This is the only place bitmasks meet label text; CSV
/// serializers (game/report) call it at write time.
const std::string& NashMaskJoined(ProfileMask2x2 mask);

/// Uniform grid sample `index` of `steps` points over [0, 1]: the
/// `index / (steps - 1)` formula of the sweeps, with the degenerate
/// single-sample sweep (`steps == 1`) pinned to the range start.
inline double GridPoint(int steps, size_t index) {
  return steps == 1 ? 0.0 : static_cast<double>(index) / (steps - 1);
}

/// True iff the equilibrium bitmask agrees with the analytic symmetric
/// region — `SymmetricPredictionHolds` on bitmasks.
bool SymmetricMaskMatches(SymmetricRegion region, ProfileMask2x2 mask);
/// True iff the equilibrium bitmask agrees with the analytic asymmetric
/// region: interior regions predict one unique profile, boundary cells
/// are vacuously consistent.
bool AsymmetricMaskMatches(AsymmetricRegion region, ProfileMask2x2 mask);

// ---------------------------------------------------------------------------
// Per-row kernels: pure functions of the sweep parameters and the global
// index. No validation, no allocation — the caller guarantees each
// kernel's preconditions, as the sweep catalogue does with its constant
// figure parameters.
// ---------------------------------------------------------------------------

/// One classified row of the Figure 1 frequency sweep.
struct FrequencyRowKernel {
  double frequency = 0;  ///< Sampled audit frequency of this row.
  /// Analytic region of the (frequency, penalty) point.
  SymmetricRegion region = SymmetricRegion::kAllCheatUniqueDse;
  ProfileMask2x2 nash_mask = 0;  ///< Enumerated pure Nash profiles.
  bool honest_is_dse = false;    ///< (H, H) weakly dominant?
  bool matches = false;          ///< Enumeration agrees with the region?

  /// Field-wise equality.
  bool operator==(const FrequencyRowKernel&) const = default;
};

/// One classified row of the Figure 2 penalty sweep.
struct PenaltyRowKernel {
  double penalty = 0;  ///< Sampled penalty of this row.
  /// Analytic region of the (frequency, penalty) point.
  SymmetricRegion region = SymmetricRegion::kAllCheatUniqueDse;
  ProfileMask2x2 nash_mask = 0;  ///< Enumerated pure Nash profiles.
  bool honest_is_dse = false;    ///< (H, H) weakly dominant?
  bool matches = false;          ///< Enumeration agrees with the region?

  /// Field-wise equality.
  bool operator==(const PenaltyRowKernel&) const = default;
};

/// One classified cell of the Figure 3 asymmetric (f1, f2) grid.
struct AsymmetricCellKernel {
  double f1 = 0;  ///< Player 1's sampled audit frequency.
  double f2 = 0;  ///< Player 2's sampled audit frequency.
  /// Analytic region of the (f1, f2) point.
  AsymmetricRegion region = AsymmetricRegion::kBoundary;
  ProfileMask2x2 nash_mask = 0;  ///< Enumerated pure Nash profiles.
  bool matches = false;          ///< Enumeration agrees with the region?

  /// Field-wise equality.
  bool operator==(const AsymmetricCellKernel&) const = default;
};

/// Frequency-sweep row `index` of `steps`, at audit frequency
/// `GridPoint(steps, index)`. Unvalidated: requires steps >= 1,
/// index < steps, and economics that pass
/// `TwoPlayerGameParams::Symmetric(benefit, cheat_gain, loss, 0, penalty)
/// .Validate()`.
FrequencyRowKernel FrequencyRowAt(double benefit, double cheat_gain,
                                  double loss, double penalty, int steps,
                                  size_t index);
/// Penalty-sweep row `index` of `steps`, at penalty
/// `max_penalty * index / (steps - 1)` (0 when steps == 1).
/// Unvalidated: requires steps >= 1, index < steps, and economics that
/// pass `TwoPlayerGameParams::Symmetric(benefit, cheat_gain, loss,
/// frequency, max_penalty).Validate()`.
PenaltyRowKernel PenaltyRowAt(double benefit, double cheat_gain, double loss,
                              double frequency, double max_penalty, int steps,
                              size_t index);
/// Asymmetric-grid cell `index` of `steps * steps`, row-major: f1 =
/// `GridPoint(steps, index / steps)`, f2 = `GridPoint(steps, index %
/// steps)`; the audit frequencies in `params` are ignored. Unvalidated:
/// requires steps >= 1, index < steps * steps, and `params` that pass
/// `Validate()` with both audit frequencies set to 0.
AsymmetricCellKernel AsymmetricCellAt(const TwoPlayerGameParams& params,
                                      int steps, size_t index);

// ---------------------------------------------------------------------------
// n-player band kernel
// ---------------------------------------------------------------------------

/// Capacity of the fixed-size n-player kernel: the honest-count mask
/// needs n + 1 bits of a uint64_t. `MakeNPlayerKernelParams` returns a
/// typed OutOfRange for larger games; `NPlayerHonestyGame` (game/nplayer_game.h)
/// still solves any n one game at a time.
inline constexpr int kMaxKernelPlayers = 63;

/// Bit x (0 <= x <= n) set iff the symmetric class "exactly x players
/// honest" is a Nash equilibrium.
using HonestCountMask = uint64_t;

/// Fixed-capacity n-player parameterization: the gain function sampled
/// once into a flat table (`gain_table[x] = F(x)` for x in [0, n - 1]),
/// so band rows never touch the `std::function` per cell. Build once
/// per sweep with `MakeNPlayerKernelParams`.
struct NPlayerKernelParams {
  int n = 0;             ///< Number of players (<= kMaxKernelPlayers).
  double benefit = 0;    ///< Honest-participation benefit B.
  double frequency = 0;  ///< Audit frequency f (> 0 per Theorem 1).
  /// Sampled gain function: `gain_table[x] = F(x)`, x in [0, n - 1].
  std::array<double, kMaxKernelPlayers> gain_table{};
};

/// Validates `params` with `NPlayerHonestyGame::ValidateParams`, then
/// the capacity (OutOfRange when n > kMaxKernelPlayers) and the sweep's
/// `frequency > 0` requirement (Theorem 1), and samples the gain table.
Result<NPlayerKernelParams> MakeNPlayerKernelParams(
    const NPlayerHonestyGame::Params& params);

/// One classified row of the Figure 4 n-player penalty band sweep.
struct NPlayerBandRowKernel {
  double penalty = 0;  ///< Sampled penalty of this row.
  /// Analytic equilibrium honest count at this penalty.
  int analytic_honest_count = 0;
  HonestCountMask count_mask = 0;   ///< Enumerated equilibrium counts.
  bool honest_is_dominant = false;  ///< Honesty weakly dominant for all?
  bool cheat_is_dominant = false;   ///< Cheating weakly dominant for all?
  bool matches = false;             ///< Enumeration agrees with analytic count?

  /// Field-wise equality.
  bool operator==(const NPlayerBandRowKernel&) const = default;
};

/// Band row `index` of `steps`, at penalty
/// `max_penalty * index / (steps - 1)` (0 when steps == 1).
/// Unvalidated: requires steps >= 1, index < steps, max_penalty >= 0,
/// and `params` built by `MakeNPlayerKernelParams`.
NPlayerBandRowKernel NPlayerBandRowAt(const NPlayerKernelParams& params,
                                      double max_penalty, int steps,
                                      size_t index);

/// Appends the honest counts of `mask` in ascending order — the
/// `EquilibriumHonestCounts` image.
void AppendHonestCounts(HonestCountMask mask, std::vector<int>& out);

// ---------------------------------------------------------------------------
// Mechanism-design device points: the serving-tier kernel
// ---------------------------------------------------------------------------

/// The analytic answer at one (B, F, f, P) operating point — exactly
/// the quantities of the `core::MechanismDesigner` analytic layer
/// (same `game/thresholds.h` expressions in the same order, so every
/// double is bit-identical to `Classify`/`MinFrequency`/`MinPenalty`/
/// `ZeroPenaltyFrequency`), computed without the designer object or
/// any allocation. The serving tier (src/serve) classifies whole
/// request vectors through this kernel.
struct DeviceAnswerKernel {
  /// Section 4 taxonomy of the device at (f, P).
  DeviceEffectiveness effectiveness = DeviceEffectiveness::kIneffective;
  /// Minimum deterring frequency at the request's penalty, clamped to
  /// [0, 1] (`MechanismDesigner::MinFrequency`).
  double min_frequency = 0;
  /// Minimum deterring penalty at the request's frequency
  /// (`MechanismDesigner::MinPenalty`); +infinity when f == 0 — no
  /// finite penalty deters a player who is never audited.
  double min_penalty = 0;
  /// Frequency above which no penalty is needed at all
  /// (`MechanismDesigner::ZeroPenaltyFrequency`).
  double zero_penalty_frequency = 0;
};

/// Unvalidated single-point evaluator — precondition checks (finite
/// economics, F > B, f in [0, 1], P >= 0) live in `EvalDevicePoints`
/// and the serve-layer request validation.
DeviceAnswerKernel DeviceAnswerAt(double benefit, double cheat_gain,
                                  double frequency, double penalty,
                                  double margin);

/// SoA buffer of mechanism-design query points (one request per slot).
struct DevicePointsSoA {
  std::vector<double> benefit;     ///< Honest-sharing benefits B.
  std::vector<double> cheat_gain;  ///< Cheating gains F.
  std::vector<double> frequency;   ///< Audit frequencies f.
  std::vector<double> penalty;     ///< Penalties P.

  /// Resizes every column to `n` slots.
  void Resize(size_t n);
  /// Number of points currently held.
  size_t size() const { return benefit.size(); }
};

/// SoA buffer of analytic device answers (`DeviceAnswerKernel` split
/// field-by-field; slot k of every vector answers point k).
struct DeviceAnswersSoA {
  std::vector<DeviceEffectiveness> effectiveness;  ///< Regime labels.
  std::vector<double> min_frequency;           ///< Min deterring frequencies.
  std::vector<double> min_penalty;             ///< Min deterring penalties.
  std::vector<double> zero_penalty_frequency;  ///< Zero-penalty frequencies.

  /// Resizes every column to `n` slots.
  void Resize(size_t n);
  /// Number of answers currently held.
  size_t size() const { return effectiveness.size(); }
};

/// Batch device-point evaluator: validates every point in
/// [begin, begin + count) of `in` (finite economics, F > B, f in
/// [0, 1], P >= 0 — InvalidArgument names the first offending slot),
/// resizes `out` to `count`, then answers point begin + k into slot k
/// with `threads` workers (common/parallel.h determinism contract:
/// bit-identical for every thread count) and zero heap allocations per
/// point inside the loop.
Status EvalDevicePoints(const DevicePointsSoA& in, double margin,
                        size_t begin, size_t count, DeviceAnswersSoA& out,
                        int threads = 1);

}  // namespace hsis::game::kernel

#endif  // HSIS_GAME_KERNEL_H_
