#ifndef HSIS_CORE_MECHANISM_DESIGNER_H_
#define HSIS_CORE_MECHANISM_DESIGNER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "game/thresholds.h"

namespace hsis::core {

/// A recommended auditing-device operating point.
struct OperatingPoint {
  double frequency = 0.0;
  double penalty = 0.0;
  /// What the device achieves there.
  game::DeviceEffectiveness effectiveness =
      game::DeviceEffectiveness::kIneffective;
  /// Expected per-round auditing cost at this point (frequency x
  /// audit_cost), when a cost was supplied.
  double expected_audit_cost = 0.0;
};

/// The game-designer API the paper's observations culminate in: "decide,
/// based on estimations of the players' losses and gains, the minimum
/// checking frequencies or penalty amounts that can guarantee the
/// desired level of honesty in the system."
///
/// All recommendations include a small safety margin above the exact
/// threshold, since at the boundary itself honesty is only *among* the
/// equilibria (the device is merely "effective").
class MechanismDesigner {
 public:
  /// `benefit` = B, `cheat_gain` = F with F > B (validated).
  static Result<MechanismDesigner> Create(double benefit, double cheat_gain);

  /// Observation 2: the minimum audit frequency that makes honesty the
  /// unique DSE/NE for a fixed penalty. The result is clamped to
  /// [0, 1]: normally f* + margin, but never negative (a large penalty
  /// plus a negative margin would otherwise escape the valid range) and
  /// never above 1.
  double MinFrequency(double penalty, double margin = 1e-6) const;

  /// Observation 3: the minimum penalty for a fixed frequency f > 0.
  /// Returns 0 when the frequency alone deters cheating (f > (F-B)/F).
  Result<double> MinPenalty(double frequency, double margin = 1e-6) const;

  /// The frequency above which no penalty is needed at all.
  double ZeroPenaltyFrequency() const;

  /// Classification of an arbitrary operating point (Section 4 taxonomy).
  game::DeviceEffectiveness Classify(double frequency, double penalty) const;

  /// The cheapest transformative operating point when each audit costs
  /// `audit_cost` and the penalty may not exceed `max_penalty`: audit as
  /// rarely as the maximum penalty allows. Fails if no frequency in
  /// [0, 1] works (cannot happen for max_penalty >= 0 since f = 1 always
  /// deters, but kept for interface robustness).
  Result<OperatingPoint> CheapestTransformative(double audit_cost,
                                                double max_penalty,
                                                double margin = 1e-6) const;

  /// N-player version of `MinPenalty` (Proposition 1): the minimum
  /// penalty making all-honest the unique DSE/NE for `n` players with
  /// gain function `gain`.
  Result<double> MinPenaltyNPlayer(int n, const game::GainFunction& gain,
                                   double frequency,
                                   double margin = 1e-6) const;

  double benefit() const { return benefit_; }
  double cheat_gain() const { return cheat_gain_; }

 private:
  MechanismDesigner(double benefit, double cheat_gain)
      : benefit_(benefit), cheat_gain_(cheat_gain) {}

  double benefit_;
  double cheat_gain_;
};

}  // namespace hsis::core

#endif  // HSIS_CORE_MECHANISM_DESIGNER_H_
