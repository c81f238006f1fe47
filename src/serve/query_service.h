#ifndef HSIS_SERVE_QUERY_SERVICE_H_
#define HSIS_SERVE_QUERY_SERVICE_H_

#include <cstdint>
#include <utility>

#include "common/result.h"
#include "serve/cache.h"
#include "serve/derivation.h"
#include "serve/query.h"

/// \file
/// \brief The online mechanism-design query service: analytic and
/// memoized serving paths over one configuration.
///
/// Two layers, one contract — every path serves answers bit-identical
/// to the offline `core::MechanismDesigner`:
///
///  * `Answer` — the single-query analytic path, answering through the
///    designer itself. Pair with `Explain` for the full proof object.
///  * `AnswerCached` / `AnswerBatchCached` — the memoized hot path: a
///    single-owner `AnswerCache` keyed on (optionally quantized) parameter
///    points absorbs the repeats that dominate production streams.
///    Misses compute through `game::kernel::DeviceAnswerAt`, the
///    per-point body of the batch evaluator `EvalDevicePoints`.
///
/// \par Usage
/// \code
///   QueryService service = QueryService::Create({}).value();
///   QueryRequest request{10, 25, 0.3, 40, 2};
///   QueryAnswer answer = service.AnswerCached(request).value();
///   std::string proof = DerivationToText(service.Explain(request).value());
///   CacheStats stats = service.Stats();   // hits/misses/evictions
/// \endcode

namespace hsis::serve {

/// Configuration of a `QueryService`.
struct QueryServiceConfig {
  /// Safety margin added above the exact deterrence thresholds
  /// (`core::MechanismDesigner` default). Must be finite.
  double margin = 1e-6;
  /// Memo-cache tuning; `cache.quantum == 0` (the default) keeps the
  /// cached path lossless.
  CacheConfig cache;
};

/// One service instance: immutable configuration plus its memo-cache.
/// Not thread-safe: one owner; use one service per thread.
class QueryService {
 public:
  /// Validates `config` and builds the service (empty cache).
  static Result<QueryService> Create(const QueryServiceConfig& config);

  /// Single-query analytic path (uncached): `AnswerQuery` under the
  /// service margin. The returned frequencies are guaranteed in
  /// [0, 1] (enforced, not assumed).
  Result<QueryAnswer> Answer(const QueryRequest& request) const;

  /// The full proof object for `request` — computed analytically, so
  /// `Explain(r).conclusion` always matches `Answer(r)`'s regime.
  Result<Derivation> Explain(const QueryRequest& request) const;

  /// Memoized single query: cache hit, or analytic compute at the
  /// (possibly snapped) canonical point + insert.
  Result<QueryAnswer> AnswerCached(const QueryRequest& request);

  /// Memoized batch path: `AnswerCached` per request, answers written
  /// slot-for-slot into `out`.
  Status AnswerBatchCached(const QueryRequest* requests, size_t count,
                           game::kernel::DeviceAnswersSoA& out);

  /// Cache counters as of now.
  CacheStats Stats() const { return cache_.Stats(); }

  /// The service margin.
  double margin() const { return margin_; }

 private:
  QueryService(double margin, AnswerCache cache)
      : margin_(margin), cache_(std::move(cache)) {}

  double margin_;
  AnswerCache cache_;
};

}  // namespace hsis::serve

#endif  // HSIS_SERVE_QUERY_SERVICE_H_
