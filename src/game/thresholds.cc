#include "game/thresholds.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace hsis::game {

namespace {

/// Magnitude-relative boundary tolerance: an absolute 1e-12 is far below
/// one ulp once payoffs reach ~1e5, so boundary operating points with
/// large F, P (say 1e9) would be misclassified as interior purely from
/// rounding. Scale the epsilon by the operands (floored at 1 to keep
/// the historical behavior for O(1) payoffs).
double BoundaryTolerance(double a, double b) {
  return kBoundaryEpsilon * std::max(1.0, std::max(std::abs(a), std::abs(b)));
}
}

const char* DeviceEffectivenessName(DeviceEffectiveness e) {
  switch (e) {
    case DeviceEffectiveness::kIneffective:
      return "ineffective";
    case DeviceEffectiveness::kEffective:
      return "effective";
    case DeviceEffectiveness::kHighlyEffective:
      return "highly effective";
    case DeviceEffectiveness::kTransformative:
      return "transformative";
  }
  return "?";
}

double CriticalFrequency(double benefit, double cheat_gain, double penalty) {
  HSIS_CHECK(cheat_gain > benefit) << "requires F > B";
  HSIS_CHECK(penalty >= 0);
  return (cheat_gain - benefit) / (penalty + cheat_gain);
}

double CriticalPenalty(double benefit, double cheat_gain, double frequency) {
  HSIS_CHECK(frequency >= 0 && frequency <= 1);
  if (frequency == 0) return std::numeric_limits<double>::infinity();
  return ((1 - frequency) * cheat_gain - benefit) / frequency;
}

double ZeroPenaltyFrequency(double benefit, double cheat_gain) {
  HSIS_CHECK(cheat_gain > benefit) << "requires F > B";
  return (cheat_gain - benefit) / cheat_gain;
}

DeviceEffectiveness ClassifySymmetricDevice(double benefit, double cheat_gain,
                                            double frequency, double penalty) {
  // Key quantity (Observation 2): compare the expected penalty f P with
  // the net expected cheating gain (1-f) F - B.
  double expected_penalty = frequency * penalty;
  double net_cheat_gain = (1 - frequency) * cheat_gain - benefit;
  double tolerance = BoundaryTolerance(expected_penalty, net_cheat_gain);
  if (expected_penalty > net_cheat_gain + tolerance) {
    // (H,H) unique DSE and NE: transformative (and highly effective).
    return DeviceEffectiveness::kTransformative;
  }
  if (std::abs(expected_penalty - net_cheat_gain) <= tolerance) {
    return DeviceEffectiveness::kEffective;
  }
  return DeviceEffectiveness::kIneffective;
}

const char* SymmetricRegionName(SymmetricRegion r) {
  switch (r) {
    case SymmetricRegion::kAllCheatUniqueDse:
      return "(C,C) is the only DSE and NE";
    case SymmetricRegion::kBoundary:
      return "(H,H) is among the NE";
    case SymmetricRegion::kAllHonestUniqueDse:
      return "(H,H) is the only DSE and NE";
  }
  return "?";
}

SymmetricRegion ClassifySymmetricRegion(double benefit, double cheat_gain,
                                        double frequency, double penalty) {
  switch (ClassifySymmetricDevice(benefit, cheat_gain, frequency, penalty)) {
    case DeviceEffectiveness::kIneffective:
      return SymmetricRegion::kAllCheatUniqueDse;
    case DeviceEffectiveness::kEffective:
      return SymmetricRegion::kBoundary;
    default:
      return SymmetricRegion::kAllHonestUniqueDse;
  }
}

const char* AsymmetricRegionName(AsymmetricRegion r) {
  switch (r) {
    case AsymmetricRegion::kBothCheat:
      return "(C,C)";
    case AsymmetricRegion::kOnlyP1Cheats:
      return "(C,H)";
    case AsymmetricRegion::kOnlyP2Cheats:
      return "(H,C)";
    case AsymmetricRegion::kBothHonest:
      return "(H,H)";
    case AsymmetricRegion::kBoundary:
      return "boundary";
  }
  return "?";
}

AsymmetricRegion ClassifyAsymmetricRegion(double b1, double cg1, double p1,
                                          double f1, double b2, double cg2,
                                          double p2, double f2) {
  // Player i's choice is dominant and decoupled: cheat iff
  // (1-f_i) F_i - f_i P_i > B_i, i.e. f_i < (F_i - B_i)/(F_i + P_i).
  double crit1 = CriticalFrequency(b1, cg1, p1);
  double crit2 = CriticalFrequency(b2, cg2, p2);
  if (std::abs(f1 - crit1) <= kBoundaryEpsilon ||
      std::abs(f2 - crit2) <= kBoundaryEpsilon) {
    return AsymmetricRegion::kBoundary;
  }
  bool p1_cheats = f1 < crit1;
  bool p2_cheats = f2 < crit2;
  if (p1_cheats && p2_cheats) return AsymmetricRegion::kBothCheat;
  if (p1_cheats) return AsymmetricRegion::kOnlyP1Cheats;
  if (p2_cheats) return AsymmetricRegion::kOnlyP2Cheats;
  return AsymmetricRegion::kBothHonest;
}

GainFunction LinearGain(double base, double slope) {
  HSIS_CHECK(slope >= 0) << "gain function must be monotone increasing";
  return [base, slope](int honest_others) {
    return base + slope * honest_others;
  };
}

GainFunction SaturatingGain(double base, double scale, double rate) {
  HSIS_CHECK(scale >= 0 && rate >= 0);
  return [base, scale, rate](int honest_others) {
    return base + scale * (1 - std::exp(-rate * honest_others));
  };
}

double NPlayerPenaltyBound(double benefit, const GainFunction& gain,
                           double frequency, int honest_others) {
  HSIS_CHECK(frequency > 0 && frequency <= 1)
      << "penalty bounds need f in (0, 1]";
  return ((1 - frequency) * gain(honest_others) - benefit) / frequency;
}

int NPlayerEquilibriumHonestCount(int n, double benefit,
                                  const GainFunction& gain, double frequency,
                                  double penalty) {
  HSIS_CHECK(n >= 1);
  // Bands are ordered by monotonicity of F; find the largest x with
  // P > ((1-f) F(x-1) - B) / f, i.e. cheating with x honest peers is
  // not worth it for the x-th honest player.
  int x = 0;
  while (x < n &&
         penalty > NPlayerPenaltyBound(benefit, gain, frequency, x) -
                       kBoundaryEpsilon) {
    ++x;
  }
  return x;
}

}  // namespace hsis::game
