#ifndef HSIS_SERVE_STREAM_H_
#define HSIS_SERVE_STREAM_H_

#include <cstdint>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "serve/query.h"

/// \file
/// \brief Synthetic query streams for exercising the serving tier.
///
/// Production mechanism-design query traffic is repetitive: clients ask
/// about the same tariff points and contract templates over and over.
/// `MakeSyntheticStream` models that as a Zipf-skewed draw over a
/// finite catalog of random (but always servable) operating points
/// (drawn by `sim::MakeZipfIndexDraws`), giving the CLI demo and the
/// latency bench a shared, seed-reproducible workload whose hit rate is
/// tunable through the catalog size and skew exponent.

namespace hsis::serve {

/// Shape of a synthetic query stream.
struct StreamConfig {
  size_t count = 100000;  ///< Requests to draw (with repeats).
  size_t domain = 1024;   ///< Distinct operating points in the catalog.
  double skew = 1.1;      ///< Zipf exponent (0 = uniform, higher = hotter head).
  uint64_t seed = 42;     ///< RNG seed; same config -> same stream.
  int n = 2;              ///< Party count stamped on every request.
};

/// Draws `config.count` requests from a catalog of `config.domain`
/// random valid operating points (B >= 0, F > B, f in [0, 1), P >= 0),
/// Zipf(config.skew)-skewed so a small hot set dominates. Pure function
/// of the config. Returns InvalidArgument naming the field (e.g.
/// `StreamConfig.count`) for an empty catalog/stream, non-finite or
/// negative skew, or n < 2.
Result<std::vector<QueryRequest>> MakeSyntheticStream(
    const StreamConfig& config);

/// The stream flags (common/flags.h) into `*config`: `--domain=K` and
/// `--seed=U` (integers in [0, INT64_MAX]) and `--skew=S` (a finite
/// number >= 0).
std::vector<common::Flag> StreamFlags(StreamConfig* config);

}  // namespace hsis::serve

#endif  // HSIS_SERVE_STREAM_H_
