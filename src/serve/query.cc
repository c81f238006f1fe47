#include "serve/query.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <string>

#include "common/flags.h"
#include "core/mechanism_designer.h"

namespace hsis::serve {

Status ValidateQueryRequest(const QueryRequest& request) {
  if (!std::isfinite(request.benefit) || !std::isfinite(request.cheat_gain) ||
      !std::isfinite(request.frequency) || !std::isfinite(request.penalty)) {
    return Status::InvalidArgument("query: parameters must be finite");
  }
  if (request.benefit < 0) {
    return Status::InvalidArgument("query: benefit B must be non-negative");
  }
  if (request.cheat_gain <= request.benefit) {
    return Status::InvalidArgument(
        "query: cheating gain F must exceed honest benefit B");
  }
  if (request.frequency < 0 || request.frequency > 1) {
    return Status::InvalidArgument("query: frequency f must be in [0, 1]");
  }
  if (request.penalty < 0) {
    return Status::InvalidArgument("query: penalty P must be non-negative");
  }
  if (request.n < 2) {
    return Status::InvalidArgument("query: need n >= 2 sharing parties");
  }
  return Status::OK();
}

Result<QueryRequest> ParseQueryRequest(std::string_view line) {
  const auto fields = 1 + std::count(line.begin(), line.end(), ',');
  if (fields != 4 && fields != 5) {
    return Status::InvalidArgument("query: want B,F,f,P[,n], got " +
                                   std::to_string(fields) + " field(s)");
  }
  constexpr double kMax = std::numeric_limits<double>::max();
  QueryRequest request;
  double* numbers[] = {&request.benefit, &request.cheat_gain,
                       &request.frequency, &request.penalty};
  const char* names[] = {"query: B", "query: F", "query: f", "query: P"};
  for (int i = 0; i < fields; ++i) {
    const size_t comma = line.find(',');
    const std::string_view text = line.substr(0, comma);
    line.remove_prefix(comma == std::string_view::npos ? line.size()
                                                       : comma + 1);
    if (i < 4) {
      HSIS_ASSIGN_OR_RETURN(*numbers[i], common::ParseNumberFlag(
                                             names[i], text, -kMax, kMax));
    } else {
      HSIS_ASSIGN_OR_RETURN(
          int64_t n, common::ParseIntFlag("query: n", text, INT_MIN, INT_MAX));
      request.n = static_cast<int>(n);
    }
  }
  return request;
}

Result<QueryAnswer> AnswerQuery(const QueryRequest& request, double margin) {
  HSIS_RETURN_IF_ERROR(ValidateQueryRequest(request));
  if (!std::isfinite(margin)) {
    return Status::InvalidArgument("query: margin must be finite");
  }
  HSIS_ASSIGN_OR_RETURN(
      core::MechanismDesigner designer,
      core::MechanismDesigner::Create(request.benefit, request.cheat_gain));
  QueryAnswer answer;
  answer.effectiveness =
      designer.Classify(request.frequency, request.penalty);
  answer.honest_is_dominant =
      answer.effectiveness == game::DeviceEffectiveness::kTransformative;
  answer.min_frequency = designer.MinFrequency(request.penalty, margin);
  if (request.frequency > 0) {
    HSIS_ASSIGN_OR_RETURN(answer.min_penalty,
                          designer.MinPenalty(request.frequency, margin));
  } else {
    // CriticalPenalty(f = 0) is +infinity: never-audited players cannot
    // be deterred by any finite penalty. The kernel path propagates the
    // same infinity through its unconditional arithmetic.
    answer.min_penalty = std::numeric_limits<double>::infinity();
  }
  answer.zero_penalty_frequency = designer.ZeroPenaltyFrequency();
  return answer;
}

QueryAnswer AnswerFromKernel(const game::kernel::DeviceAnswerKernel& kernel) {
  QueryAnswer answer;
  answer.effectiveness = kernel.effectiveness;
  answer.honest_is_dominant =
      kernel.effectiveness == game::DeviceEffectiveness::kTransformative;
  answer.min_frequency = kernel.min_frequency;
  answer.min_penalty = kernel.min_penalty;
  answer.zero_penalty_frequency = kernel.zero_penalty_frequency;
  return answer;
}

}  // namespace hsis::serve
