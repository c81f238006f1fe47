#ifndef HSIS_SERVE_DERIVATION_H_
#define HSIS_SERVE_DERIVATION_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "serve/query.h"

/// \file
/// \brief Structured step-by-step proofs for served query answers.
///
/// A `QueryAnswer` tells a client *what* the regime is; the
/// `Derivation` tells them *why*: a premise → inequality → conclusion
/// chain walking the paper's Observations 2 and 3 with the request's
/// own numbers substituted in, ending in a one-line verdict. The shape
/// follows the `proveHonesty`/`minimumStake` proof objects of the
/// honesty-staking exemplars: every step is self-contained, so a
/// client can render the chain verbatim as an audit trail for the
/// recommendation.
///
/// Derivations are deterministic functions of (request, answer): two
/// bit-equal answers always carry byte-identical derivations, which is
/// what lets the cached and batch paths materialize them lazily
/// without affecting the served bytes.

namespace hsis::serve {

/// One inference step of a served proof. The three fields are views
/// into the owning `Derivation::text`.
struct DerivationStep {
  /// What the step assumes, in words ("a cheating party keeps the
  /// gross gain F = 25 only when the audit misses ...").
  std::string_view premise;
  /// The instantiated (in)equality, numbers substituted in
  /// ("net cheating gain (1 - f)*F - B = 7.5, ...").
  std::string_view inequality;
  /// What the step concludes from it.
  std::string_view conclusion;
};

/// A complete served proof: the inference chain plus the final verdict.
/// The proof is written once, as the text `DerivationToText` returns;
/// every step field and the verdict are views into that one immutable
/// text, which copies and moves share, so the views stay valid as long
/// as any copy lives.
struct Derivation {
  /// The whole proof as plain text: one stanza per step, then the
  /// verdict line.
  std::shared_ptr<const std::string> text;
  /// Premise → inequality → conclusion chain: every proof has five steps.
  std::array<DerivationStep, 5> steps;
  /// Final verdict line — a deterministic function of the regime
  /// classification (the cross-validation suite compares it across the
  /// analytic, batch, and cached paths).
  std::string_view conclusion;
  /// Mirrors `QueryAnswer::honest_is_dominant`.
  bool honest_is_dominant = false;
};

/// Builds the proof chain for `answer` at `request`. The caller is
/// responsible for `answer` actually answering `request` (the service
/// guarantees it); `margin` must be the margin the answer was computed
/// with so the threshold steps restate the served numbers exactly.
/// Allocates twice: the shared text's control block and its bytes.
Derivation BuildDerivation(const QueryRequest& request,
                           const QueryAnswer& answer, double margin = 1e-6);

/// The proof as indented plain text (one step per stanza, then the
/// verdict), the CLI/debug format: a copy of `derivation.text`, empty
/// for a default-constructed derivation.
std::string DerivationToText(const Derivation& derivation);

}  // namespace hsis::serve

#endif  // HSIS_SERVE_DERIVATION_H_
