#include "serve/derivation.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "game/report.h"
#include "game/thresholds.h"

namespace hsis::serve {

namespace {

/// A number as proofs print it: the `%.6g` text of the figure CSVs
/// (game::WriteCsvDouble), with infinities spelled out so proofs read
/// as prose, not as "inf". Formatted once, then copied to every place
/// the proof names it.
struct Number {
  char text[game::kCsvDoubleMaxBytes];
  uint8_t size;
};

Number Format(double value) {
  static constexpr char kInfinity[] = "-infinity";  // +infinity: from 'i'
  Number number = {};
  const char* end =
      std::isinf(value)
          ? std::copy(kInfinity + (value > 0),
                      kInfinity + sizeof(kInfinity) - 1, number.text)
          : game::WriteCsvDouble(number.text, value);
  number.size = static_cast<uint8_t>(end - number.text);
  return number;
}

/// The 13 distinct numbers of a proof.
struct ProofNumbers {
  Number cheat_gain, escape, benefit, frequency, penalty, net_cheat_gain,
      expected_penalty, critical_penalty, min_penalty, margin,
      critical_frequency, min_frequency, zero_penalty_frequency;
};

/// The most bytes `std::to_chars` writes for an int ("-2147483648").
constexpr size_t kIntMaxBytes = std::numeric_limits<int>::digits10 + 2;

/// Marked fields in a proof: three per step, then the verdict.
constexpr size_t kFields = 16;

/// How step 3 concludes.
enum class PenaltyCase { kNeverAudited, kNoPenaltyNeeded, kMinimum };

/// Counts, at compile time, the most bytes `ProofText` can write for a
/// branch of the proof (each literal's length, `kCsvDoubleMaxBytes` per
/// number and the widest int) and the marks it sets.
struct ProofBound {
  template <size_t N>
  constexpr void Put(const char (&)[N]) {
    bytes += N - 1;
  }
  constexpr void Put(const Number&) { bytes += game::kCsvDoubleMaxBytes; }
  constexpr void Put(int) { bytes += kIntMaxBytes; }
  constexpr void Mark() { ++marks; }
  size_t bytes = 0;
  size_t marks = 0;
};

/// One line of the proof: its label, then the field's parts between
/// two marks.
template <typename Out, size_t N, typename... Parts>
constexpr void Line(Out& out, const char (&label)[N], const Parts&... parts) {
  out.Put(label);
  out.Mark();
  (out.Put(parts), ...);
  out.Mark();
}

/// The regime verdict: step 2's conclusion and the last line.
template <typename Out, size_t N>
constexpr void RegimeLine(Out& out, const char (&label)[N],
                          game::DeviceEffectiveness effectiveness, int n) {
  switch (effectiveness) {
    case game::DeviceEffectiveness::kTransformative:
    case game::DeviceEffectiveness::kHighlyEffective:
      Line(out, label,
           "honesty is the unique dominant-strategy equilibrium for all ", n,
           " parties: the device is transformative");
      break;
    case game::DeviceEffectiveness::kEffective:
      Line(out, label,
           "the operating point lies on the critical boundary: all-honest is "
           "among the equilibria, but so is cheating — the device is merely "
           "effective");
      break;
    case game::DeviceEffectiveness::kIneffective:
      Line(out, label,
           "cheating dominates for every party: the device is ineffective "
           "at this operating point");
      break;
  }
}

/// The whole proof text: five steps of premise, inequality and
/// conclusion, then the verdict.
template <typename Out>
constexpr void WriteProof(Out& out, const ProofNumbers& x,
                          game::DeviceEffectiveness effectiveness,
                          PenaltyCase penalty_case, int n) {
  // Step 1: the two sides of the deterrence inequality, instantiated.
  Line(out, "step 1:\n  premise:    ",
       "a cheating party keeps the gross gain F = ", x.cheat_gain,
       " only when the audit misses (probability 1 - f = ", x.escape,
       ") and forfeits honesty's benefit B = ", x.benefit,
       "; detection (probability f = ", x.frequency,
       ") costs the penalty P = ", x.penalty);
  Line(out, "\n  inequality: ", "net cheating gain (1 - f)*F - B = ",
       x.net_cheat_gain, ", expected penalty f*P = ", x.expected_penalty);
  Line(out, "\n  conclusion: ",
       "cheating is deterred exactly when the expected penalty exceeds "
       "the net cheating gain");

  // Step 2: the regime comparison — the same quantities and boundary
  // semantics ClassifySymmetricDevice uses.
  Line(out, "\nstep 2:\n  premise:    ",
       "Observation 2/3 regime test at (f = ", x.frequency, ", P = ",
       x.penalty, ")");
  Line(out, "\n  inequality: ", "f*P = ", x.expected_penalty,
       effectiveness == game::DeviceEffectiveness::kIneffective ? " < "
       : effectiveness == game::DeviceEffectiveness::kEffective ? " = "
                                                                : " > ",
       "(1 - f)*F - B = ", x.net_cheat_gain);
  RegimeLine(out, "\n  conclusion: ", effectiveness, n);

  // Step 3: minimum deterring penalty at the request's frequency
  // (Observation 3).
  Line(out, "\nstep 3:\n  premise:    ",
       "Observation 3: at fixed frequency f the critical penalty is "
       "P* = ((1 - f)*F - B) / f");
  Line(out, "\n  inequality: ", "P* = ", x.critical_penalty,
       ", served minimum ", x.min_penalty);
  switch (penalty_case) {
    case PenaltyCase::kNeverAudited:
      Line(out, "\n  conclusion: ",
           "a party that is never audited cannot be deterred by any finite "
           "penalty");
      break;
    case PenaltyCase::kNoPenaltyNeeded:
      Line(out, "\n  conclusion: ",
           "the frequency alone already deters cheating — no penalty is "
           "needed");
      break;
    case PenaltyCase::kMinimum:
      Line(out, "\n  conclusion: ", "any penalty of at least ",
           x.min_penalty, " (margin ", x.margin,
           " included) makes honesty dominant at f = ", x.frequency);
      break;
  }

  // Step 4: minimum deterring frequency at the request's penalty
  // (Observation 2), clamped to [0, 1] by the designer.
  Line(out, "\nstep 4:\n  premise:    ",
       "Observation 2: at fixed penalty P the critical frequency is "
       "f* = (F - B) / (P + F)");
  Line(out, "\n  inequality: ", "f* = ", x.critical_frequency,
       ", served minimum clamp(f* + ", x.margin, ", [0, 1]) = ",
       x.min_frequency);
  Line(out, "\n  conclusion: ", "auditing at frequency ", x.min_frequency,
       " or above makes honesty dominant at P = ", x.penalty);

  // Step 5: the zero-penalty frequency (Observation 3, special case).
  Line(out, "\nstep 5:\n  premise:    ",
       "above f0 = (F - B) / F the expected cheating gain falls below B "
       "with no penalty at all");
  Line(out, "\n  inequality: ", "f0 = ", x.zero_penalty_frequency);
  Line(out, "\n  conclusion: ", "auditing more often than ",
       x.zero_penalty_frequency, " needs no penalty whatsoever");

  RegimeLine(out, "\nverdict: ", effectiveness, n);
  out.Put("\n");
}

/// The most bytes any branch of the proof writes. A branch that does
/// not mark both ends of exactly `kFields` fields stops the compile.
constexpr size_t MaxProofBytes() {
  size_t most = 0;
  for (game::DeviceEffectiveness effectiveness :
       {game::DeviceEffectiveness::kTransformative,
        game::DeviceEffectiveness::kHighlyEffective,
        game::DeviceEffectiveness::kEffective,
        game::DeviceEffectiveness::kIneffective}) {
    for (PenaltyCase penalty_case :
         {PenaltyCase::kNeverAudited, PenaltyCase::kNoPenaltyNeeded,
          PenaltyCase::kMinimum}) {
      ProofBound bound;
      WriteProof(bound, ProofNumbers{}, effectiveness, penalty_case, 0);
      if (bound.marks != 2 * kFields) throw "a proof branch misplaces a field";
      most = std::max(most, bound.bytes);
    }
  }
  return most;
}

/// The proof buffer's size, computed and checked at compile time.
constexpr size_t kProofBytes = MaxProofBytes();

/// Writes the proof into a stack buffer of `kProofBytes`:
/// literals as compile-time-sized copies, numbers as fixed
/// `kCsvDoubleMaxBytes` copies of their formatted text, and a mark at
/// each end of the `kFields` fields.
class ProofText {
 public:
  template <size_t N>
  void Put(const char (&literal)[N]) {
    std::memcpy(p_, literal, N - 1);
    p_ += N - 1;
  }
  void Put(const Number& number) {
    std::memcpy(p_, number.text, sizeof(number.text));
    p_ += number.size;
  }
  void Put(int value) {
    p_ = std::to_chars(p_, p_ + kIntMaxBytes, value).ptr;
  }
  void Mark() { *mark_++ = p_; }

  /// Field `i`'s view into `text`, a copy of this buffer.
  std::string_view Field(std::string_view text, size_t i) const {
    return {text.data() + (marks_[2 * i] - buf_),
            static_cast<size_t>(marks_[2 * i + 1] - marks_[2 * i])};
  }
  /// The text written so far.
  std::string_view Written() const {
    return {buf_, static_cast<size_t>(p_ - buf_)};
  }

 private:
  char buf_[kProofBytes];  // only [buf_, p_) is read, after it is written
  char* p_ = buf_;
  const char* marks_[2 * kFields] = {};
  const char** mark_ = marks_;
};

}  // namespace

Derivation BuildDerivation(const QueryRequest& request,
                           const QueryAnswer& answer, double margin) {
  const double b = request.benefit;
  const double cheat_gain = request.cheat_gain;
  const double f = request.frequency;
  const double p = request.penalty;
  const ProofNumbers numbers{
      Format(cheat_gain),
      Format(1 - f),
      Format(b),
      Format(f),
      Format(p),
      Format((1 - f) * cheat_gain - b),
      Format(f * p),
      Format(game::CriticalPenalty(b, cheat_gain, f)),
      Format(answer.min_penalty),
      Format(margin),
      Format(game::CriticalFrequency(b, cheat_gain, p)),
      Format(answer.min_frequency),
      Format(answer.zero_penalty_frequency)};
  const PenaltyCase penalty_case = f <= 0 ? PenaltyCase::kNeverAudited
                                   : answer.min_penalty == 0
                                       ? PenaltyCase::kNoPenaltyNeeded
                                       : PenaltyCase::kMinimum;
  ProofText out;
  WriteProof(out, numbers, answer.effectiveness, penalty_case, request.n);

  Derivation derivation;
  derivation.text = std::make_shared<const std::string>(out.Written());
  const std::string_view text = *derivation.text;
  for (size_t i = 0; i < derivation.steps.size(); ++i) {
    derivation.steps[i] = {out.Field(text, 3 * i), out.Field(text, 3 * i + 1),
                           out.Field(text, 3 * i + 2)};
  }
  derivation.conclusion = out.Field(text, kFields - 1);
  derivation.honest_is_dominant = answer.honest_is_dominant;
  return derivation;
}

std::string DerivationToText(const Derivation& derivation) {
  return derivation.text ? *derivation.text : std::string();
}

}  // namespace hsis::serve
