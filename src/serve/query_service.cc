#include "serve/query_service.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "game/kernel.h"

namespace hsis::serve {

namespace {

/// The serving tier's output contract: no path may emit a frequency
/// outside [0, 1]. Violations are designer/kernel bugs, not client
/// errors, so they abort instead of returning a status.
void CheckServedFrequencies(const QueryAnswer& answer) {
  HSIS_CHECK(answer.min_frequency >= 0.0 && answer.min_frequency <= 1.0);
  HSIS_CHECK(answer.zero_penalty_frequency >= 0.0 &&
             answer.zero_penalty_frequency <= 1.0);
}

}  // namespace

Result<QueryService> QueryService::Create(const QueryServiceConfig& config) {
  if (!std::isfinite(config.margin)) {
    return Status::InvalidArgument("query service: margin must be finite");
  }
  HSIS_ASSIGN_OR_RETURN(AnswerCache cache, AnswerCache::Create(config.cache));
  return QueryService(config.margin, std::move(cache));
}

QueryService::QueryService(double margin, AnswerCache cache)
    : margin_(margin),
      cache_(std::make_unique<AnswerCache>(std::move(cache))) {}

Result<QueryAnswer> QueryService::Answer(const QueryRequest& request) const {
  HSIS_ASSIGN_OR_RETURN(QueryAnswer answer, AnswerQuery(request, margin_));
  CheckServedFrequencies(answer);
  return answer;
}

Result<Derivation> QueryService::Explain(const QueryRequest& request) const {
  HSIS_ASSIGN_OR_RETURN(QueryAnswer answer, Answer(request));
  return BuildDerivation(request, answer, margin_);
}

Result<QueryAnswer> QueryService::AnswerCached(const QueryRequest& request) {
  HSIS_RETURN_IF_ERROR(ValidateQueryRequest(request));
  const QueryKey key = MakeQueryKey(request, cache_->quantum());
  QueryAnswer answer;
  if (cache_->Lookup(key, &answer)) {
    return answer;
  }
  // Miss: compute at the class's canonical point so every request that
  // maps to this key serves the same bytes, then memoize.
  const QueryRequest canonical = SnapRequest(request, cache_->quantum());
  const game::kernel::DeviceAnswerKernel kernel = game::kernel::DeviceAnswerAt(
      canonical.benefit, canonical.cheat_gain, canonical.frequency,
      canonical.penalty, margin_);
  answer = AnswerFromKernel(kernel);
  CheckServedFrequencies(answer);
  cache_->Insert(key, answer);
  return answer;
}

Status QueryService::AnswerBatchCached(const QueryRequest* requests,
                                       size_t count,
                                       game::kernel::DeviceAnswersSoA& out) {
  if (requests == nullptr && count > 0) {
    return Status::InvalidArgument("query service: null request array");
  }
  out.Resize(count);
  for (size_t i = 0; i < count; ++i) {
    HSIS_ASSIGN_OR_RETURN(QueryAnswer answer, AnswerCached(requests[i]));
    out.effectiveness[i] = answer.effectiveness;
    out.min_frequency[i] = answer.min_frequency;
    out.min_penalty[i] = answer.min_penalty;
    out.zero_penalty_frequency[i] = answer.zero_penalty_frequency;
  }
  return Status::OK();
}

}  // namespace hsis::serve
