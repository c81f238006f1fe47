#ifndef HSIS_SERVE_QUERY_H_
#define HSIS_SERVE_QUERY_H_

#include <string_view>

#include "common/result.h"
#include "game/kernel.h"
#include "game/thresholds.h"

/// \file
/// \brief Request/answer types of the online mechanism-design query
/// service.
///
/// A `QueryRequest` is one client question: "with honest benefit B,
/// cheating gain F, and an auditing device running at frequency f with
/// penalty P over n parties, is honesty dominant — and if not, what
/// would make it so?" The `QueryAnswer` carries the Section 4 regime
/// classification plus the three actionable thresholds (minimum
/// deterring penalty, minimum deterring frequency, zero-penalty
/// frequency), each bit-identical to the offline
/// `core::MechanismDesigner` analytic layer.
///
/// \par Usage
/// \code
///   QueryRequest request{10, 25, 0.3, 40, 2};
///   QueryAnswer answer = AnswerQuery(request).value();
///   if (answer.honest_is_dominant) { /* device is transformative */ }
/// \endcode

/// \namespace hsis::serve
/// \brief The request-serving tier: online mechanism-design queries
/// over the allocation-free kernels, with batch and memoized front
/// ends.

namespace hsis::serve {

/// One mechanism-design query: the symmetric audited sharing game of
/// the paper at a concrete operating point. `n` records the number of
/// sharing parties; with the paper's constant per-round cheating gain
/// the deterrence thresholds are n-independent (Proposition 1 with a
/// constant gain function collapses to the two-player bounds), so `n`
/// informs the derivation text, not the numerics.
struct QueryRequest {
  double benefit = 0;     ///< Honest-sharing benefit B (>= 0).
  double cheat_gain = 0;  ///< Gross cheating gain F (> B).
  double frequency = 0;   ///< Audit frequency f in [0, 1].
  double penalty = 0;     ///< Penalty P >= 0 charged on detection.
  int n = 2;              ///< Number of sharing parties (>= 2).
};

/// Checks a request is servable: finite parameters, B >= 0, F > B,
/// f in [0, 1], P >= 0, n >= 2. InvalidArgument messages name the
/// offending field.
Status ValidateQueryRequest(const QueryRequest& request);

/// Parses one request line, "B,F,f,P" or "B,F,f,P,n" (the `--query`
/// flag and each line of a `--requests` file): B, F, f and P are finite
/// numbers (`common::ParseNumberFlag`), n an integer that fits in `int`
/// (default 2). Only the syntax is checked here; `ValidateQueryRequest`
/// owns the ranges. InvalidArgument naming the field otherwise.
Result<QueryRequest> ParseQueryRequest(std::string_view line);

/// The served answer at one operating point. Every field is
/// bit-identical to the `core::MechanismDesigner` analytic layer
/// (pinned by the cross-validation suite in tests/serve).
struct QueryAnswer {
  /// Section 4 regime of the device at (f, P).
  game::DeviceEffectiveness effectiveness =
      game::DeviceEffectiveness::kIneffective;
  /// Whether honesty is a (weakly) dominant strategy at (f, P) — the
  /// transformative regime.
  bool honest_is_dominant = false;
  /// Minimum deterring frequency at penalty P, clamped to [0, 1].
  double min_frequency = 0;
  /// Minimum deterring penalty at frequency f; +infinity when f == 0
  /// (an unaudited player cannot be deterred by any finite penalty).
  double min_penalty = 0;
  /// Frequency above which no penalty is needed at all.
  double zero_penalty_frequency = 0;
};

/// The single-query analytic path: validates, then answers through the
/// `core::MechanismDesigner` layer itself, so bit-equality with the
/// offline designer holds by construction. `margin` is the safety
/// margin added above the exact thresholds (designer default 1e-6).
Result<QueryAnswer> AnswerQuery(const QueryRequest& request,
                                double margin = 1e-6);

/// Converts one slot of a kernel batch answer into the served form
/// (`honest_is_dominant` derived from the effectiveness).
QueryAnswer AnswerFromKernel(const game::kernel::DeviceAnswerKernel& kernel);

}  // namespace hsis::serve

#endif  // HSIS_SERVE_QUERY_H_
