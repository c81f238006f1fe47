#include "core/mechanism_designer.h"

#include <algorithm>
#include <cmath>

namespace hsis::core {

Result<MechanismDesigner> MechanismDesigner::Create(double benefit,
                                                    double cheat_gain) {
  if (benefit < 0) {
    return Status::InvalidArgument("benefit B must be non-negative");
  }
  if (cheat_gain <= benefit) {
    return Status::InvalidArgument(
        "cheating gain F must exceed honest benefit B");
  }
  return MechanismDesigner(benefit, cheat_gain);
}

double MechanismDesigner::MinFrequency(double penalty, double margin) const {
  // Clamp to [0, 1] on both sides: a large penalty shrinks f* toward 0,
  // and a negative caller margin (or one larger in magnitude than f*)
  // would otherwise return a negative "minimum frequency".
  double f = game::CriticalFrequency(benefit_, cheat_gain_, penalty) + margin;
  return std::clamp(f, 0.0, 1.0);
}

Result<double> MechanismDesigner::MinPenalty(double frequency,
                                             double margin) const {
  if (frequency <= 0 || frequency > 1) {
    return Status::InvalidArgument(
        "a positive audit frequency is required to deter with penalties");
  }
  double p = game::CriticalPenalty(benefit_, cheat_gain_, frequency);
  if (p < 0) return 0.0;  // frequency alone already deters
  return p + margin;
}

double MechanismDesigner::ZeroPenaltyFrequency() const {
  return game::ZeroPenaltyFrequency(benefit_, cheat_gain_);
}

game::DeviceEffectiveness MechanismDesigner::Classify(double frequency,
                                                      double penalty) const {
  return game::ClassifySymmetricDevice(benefit_, cheat_gain_, frequency,
                                       penalty);
}

Result<OperatingPoint> MechanismDesigner::CheapestTransformative(
    double audit_cost, double max_penalty, double margin) const {
  if (audit_cost < 0 || max_penalty < 0) {
    return Status::InvalidArgument("costs must be non-negative");
  }
  OperatingPoint point;
  // Expected audit cost is increasing in f, so run at the minimum
  // frequency the largest allowed penalty supports.
  point.penalty = max_penalty;
  point.frequency = MinFrequency(max_penalty, margin);
  point.effectiveness = Classify(point.frequency, point.penalty);
  point.expected_audit_cost = point.frequency * audit_cost;
  if (point.effectiveness != game::DeviceEffectiveness::kTransformative) {
    return Status::Internal("no transformative operating point found");
  }
  return point;
}

Result<double> MechanismDesigner::MinPenaltyNPlayer(
    int n, const game::GainFunction& gain, double frequency,
    double margin) const {
  if (n < 2) return Status::InvalidArgument("need n >= 2");
  if (!gain) return Status::InvalidArgument("gain function required");
  if (frequency <= 0 || frequency > 1) {
    return Status::InvalidArgument("frequency must be in (0, 1]");
  }
  double p = game::NPlayerPenaltyBound(benefit_, gain, frequency, n - 1);
  return std::max(0.0, p) + margin;
}

}  // namespace hsis::core
