#ifndef HSIS_GAME_THRESHOLDS_H_
#define HSIS_GAME_THRESHOLDS_H_

#include <functional>
#include <string>

#include "common/result.h"

namespace hsis::game {

/// Absolute tolerance of the paper's boundary tests: the critical-line
/// comparisons of Observations 2 and 3, the Figure 3 boundary strip and
/// the Theorem 1 band loop. The scalar thresholds and the landscape
/// kernel read this one value, so their classifications agree
/// bit-for-bit.
inline constexpr double kBoundaryEpsilon = 1e-12;

/// Slack of the gain-function monotonicity check: F(x + 1) may fall
/// below F(x) by at most this much before a game is rejected.
inline constexpr double kGainMonotoneTolerance = 1e-12;

/// The paper's taxonomy of auditing devices (Section 4), ordered from
/// weakest to strongest guarantee.
enum class DeviceEffectiveness {
  /// Cannot induce any all-honest equilibrium: (C,...,C) prevails.
  kIneffective = 0,
  /// All-honest is among the Nash equilibria (the boundary case).
  kEffective = 1,
  /// All-honest is the *only* Nash equilibrium.
  kHighlyEffective = 2,
  /// All-honest is a dominant-strategy equilibrium (and, per the paper's
  /// observations, in these games also the only NE — the device is then
  /// both transformative and highly effective).
  kTransformative = 3,
};

const char* DeviceEffectivenessName(DeviceEffectiveness e);

/// Observation 2: for fixed penalty P, honesty becomes the unique
/// DSE/NE once f exceeds f* = (F - B) / (P + F). Requires F > B; the
/// result is in (0, 1].
double CriticalFrequency(double benefit, double cheat_gain, double penalty);

/// Observation 3: for fixed frequency f > 0, honesty becomes the unique
/// DSE/NE once P exceeds P* = ((1-f) F - B) / f. May be negative — any
/// penalty (even zero) then suffices. Returns +infinity for f == 0.
double CriticalPenalty(double benefit, double cheat_gain, double frequency);

/// Observation 3 (special case): for f > (F - B)/F the device needs no
/// penalty at all — the expected cheating gain (1-f)F already falls
/// below B.
double ZeroPenaltyFrequency(double benefit, double cheat_gain);

/// Classifies the symmetric audited two-player game of Table 2 at a
/// given operating point, per Observations 2 and 3.
DeviceEffectiveness ClassifySymmetricDevice(double benefit, double cheat_gain,
                                            double frequency, double penalty);

/// The equilibrium set of the symmetric two-player game at an operating
/// point, as region labels for the Figure 1 / Figure 2 landscapes.
enum class SymmetricRegion {
  kAllCheatUniqueDse,   // (C,C) the only DSE and NE
  kBoundary,            // f == f* (resp. P == P*): (H,H) among the NE
  kAllHonestUniqueDse,  // (H,H) the only DSE and NE
};

const char* SymmetricRegionName(SymmetricRegion r);

SymmetricRegion ClassifySymmetricRegion(double benefit, double cheat_gain,
                                        double frequency, double penalty);

/// The four corner regions of the asymmetric (f1, f2) landscape of
/// Figure 3. Player i cheats iff f_i < (F_i - B_i)/(F_i + P_i).
enum class AsymmetricRegion {
  kBothCheat,    // (C,C)
  kOnlyP1Cheats, // (C,H)
  kOnlyP2Cheats, // (H,C)
  kBothHonest,   // (H,H)
  kBoundary,     // on a critical line
};

const char* AsymmetricRegionName(AsymmetricRegion r);

AsymmetricRegion ClassifyAsymmetricRegion(double b1, double cg1, double p1,
                                          double f1, double b2, double cg2,
                                          double p2, double f2);

/// The n-player gain function F(x): the cheater's expected gross gain
/// when x of the other n-1 players are honest. The paper requires it to
/// be monotonically increasing in x.
using GainFunction = std::function<double(int honest_others)>;

/// F(x) = base + slope * x — the canonical linear instantiation used by
/// the benchmarks ("the more honest players, the more a cheater gains").
GainFunction LinearGain(double base, double slope);

/// F(x) = base + scale * (1 - exp(-rate x)): saturating gains.
GainFunction SaturatingGain(double base, double scale, double rate);

/// Theorem 1 band edge x -> ((1-f) F(x) - B) / f: for penalty P strictly
/// between the x-1 and x edges, the profiles with exactly x honest
/// players are the equilibria. x = n-1 gives the Proposition 1
/// transformative bound; x = 0 gives the Proposition 2 bound.
double NPlayerPenaltyBound(double benefit, const GainFunction& gain,
                           double frequency, int honest_others);

/// Number of honest players x in the unique equilibrium band containing
/// penalty P (Theorem 1); returns n when P exceeds the Proposition 1
/// bound and 0 below the Proposition 2 bound. `frequency` must be > 0.
int NPlayerEquilibriumHonestCount(int n, double benefit,
                                  const GainFunction& gain, double frequency,
                                  double penalty);

}  // namespace hsis::game

#endif  // HSIS_GAME_THRESHOLDS_H_
