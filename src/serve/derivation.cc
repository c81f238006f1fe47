#include "serve/derivation.h"

#include <charconv>
#include <cmath>
#include <string_view>
#include <utility>

#include "game/report.h"
#include "game/thresholds.h"

namespace hsis::serve {

namespace {

/// A number as proofs print it: the `%.6g` text of the figure CSVs
/// (game::AppendCsvDouble), with infinities spelled out so proofs read
/// as prose, not as "inf".
void Append(std::string& out, double value) {
  if (std::isinf(value)) {
    out.append(value > 0 ? "infinity" : "-infinity");
    return;
  }
  game::AppendCsvDouble(out, value);
}

void Append(std::string& out, int value) {
  char buf[16];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void Append(std::string& out, std::string_view text) { out.append(text); }

/// Upper bounds of what each `Append` writes.
size_t Width(double) { return 16; }
size_t Width(int) { return 11; }
size_t Width(std::string_view text) { return text.size(); }

/// One string of text pieces and numbers, built in a single reserved
/// buffer.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  out.reserve((Width(parts) + ...));
  (Append(out, parts), ...);
  return out;
}

}  // namespace

Derivation BuildDerivation(const QueryRequest& request,
                           const QueryAnswer& answer, double margin) {
  const double b = request.benefit;
  const double cheat_gain = request.cheat_gain;
  const double f = request.frequency;
  const double p = request.penalty;

  Derivation derivation;
  derivation.honest_is_dominant = answer.honest_is_dominant;
  derivation.steps.reserve(5);

  // Step 1: the two sides of the deterrence inequality, instantiated.
  const double expected_penalty = f * p;
  const double net_cheat_gain = (1 - f) * cheat_gain - b;
  derivation.steps.push_back(
      {Cat("a cheating party keeps the gross gain F = ", cheat_gain,
           " only when the audit misses (probability 1 - f = ", 1 - f,
           ") and forfeits honesty's benefit B = ", b,
           "; detection (probability f = ", f, ") costs the penalty P = ", p),
       Cat("net cheating gain (1 - f)*F - B = ", net_cheat_gain,
           ", expected penalty f*P = ", expected_penalty),
       "cheating is deterred exactly when the expected penalty exceeds "
       "the net cheating gain"});

  // Step 2: the regime comparison — the same quantities and boundary
  // semantics ClassifySymmetricDevice uses.
  const char* relation = "=";
  switch (answer.effectiveness) {
    case game::DeviceEffectiveness::kTransformative:
    case game::DeviceEffectiveness::kHighlyEffective:
      relation = ">";
      break;
    case game::DeviceEffectiveness::kIneffective:
      relation = "<";
      break;
    case game::DeviceEffectiveness::kEffective:
      relation = "=";
      break;
  }
  std::string regime_conclusion;
  switch (answer.effectiveness) {
    case game::DeviceEffectiveness::kTransformative:
    case game::DeviceEffectiveness::kHighlyEffective:
      regime_conclusion =
          Cat("honesty is the unique dominant-strategy equilibrium for all ",
              request.n, " parties: the device is transformative");
      break;
    case game::DeviceEffectiveness::kEffective:
      regime_conclusion =
          "the operating point lies on the critical boundary: all-honest is "
          "among the equilibria, but so is cheating — the device is merely "
          "effective";
      break;
    case game::DeviceEffectiveness::kIneffective:
      regime_conclusion =
          "cheating dominates for every party: the device is ineffective "
          "at this operating point";
      break;
  }
  derivation.steps.push_back(
      {Cat("Observation 2/3 regime test at (f = ", f, ", P = ", p, ")"),
       Cat("f*P = ", expected_penalty, " ", relation, " (1 - f)*F - B = ",
           net_cheat_gain),
       regime_conclusion});

  // Step 3: minimum deterring penalty at the request's frequency
  // (Observation 3).
  std::string penalty_conclusion;
  if (f <= 0) {
    penalty_conclusion =
        "a party that is never audited cannot be deterred by any finite "
        "penalty";
  } else if (answer.min_penalty == 0) {
    penalty_conclusion =
        "the frequency alone already deters cheating — no penalty is needed";
  } else {
    penalty_conclusion =
        Cat("any penalty of at least ", answer.min_penalty, " (margin ", margin,
            " included) makes honesty dominant at f = ", f);
  }
  derivation.steps.push_back(
      {"Observation 3: at fixed frequency f the critical penalty is "
       "P* = ((1 - f)*F - B) / f",
       Cat("P* = ", game::CriticalPenalty(b, cheat_gain, f),
           ", served minimum ", answer.min_penalty),
       std::move(penalty_conclusion)});

  // Step 4: minimum deterring frequency at the request's penalty
  // (Observation 2), clamped to [0, 1] by the designer.
  derivation.steps.push_back(
      {"Observation 2: at fixed penalty P the critical frequency is "
       "f* = (F - B) / (P + F)",
       Cat("f* = ", game::CriticalFrequency(b, cheat_gain, p),
           ", served minimum clamp(f* + ", margin,
           ", [0, 1]) = ", answer.min_frequency),
       Cat("auditing at frequency ", answer.min_frequency,
           " or above makes honesty dominant at P = ", p)});

  // Step 5: the zero-penalty frequency (Observation 3, special case).
  derivation.steps.push_back(
      {"above f0 = (F - B) / F the expected cheating gain falls below B "
       "with no penalty at all",
       Cat("f0 = ", answer.zero_penalty_frequency),
       Cat("auditing more often than ", answer.zero_penalty_frequency,
           " needs no penalty whatsoever")});

  derivation.conclusion = std::move(regime_conclusion);
  return derivation;
}

std::string DerivationToText(const Derivation& derivation) {
  size_t size = derivation.conclusion.size() + 10;
  for (const DerivationStep& step : derivation.steps) {
    size += 64 + step.premise.size() + step.inequality.size() +
            step.conclusion.size();
  }
  std::string out;
  out.reserve(size);
  for (size_t i = 0; i < derivation.steps.size(); ++i) {
    const DerivationStep& step = derivation.steps[i];
    out.append("step ");
    Append(out, static_cast<int>(i + 1));
    out.append(":\n  premise:    ").append(step.premise);
    out.append("\n  inequality: ").append(step.inequality);
    out.append("\n  conclusion: ").append(step.conclusion).append("\n");
  }
  out.append("verdict: ").append(derivation.conclusion).append("\n");
  return out;
}

}  // namespace hsis::serve
