#include "serve/stream.h"

#include <cmath>
#include <limits>

#include "common/random.h"
#include "sim/workload.h"

namespace hsis::serve {

Result<std::vector<QueryRequest>> MakeSyntheticStream(
    const StreamConfig& config) {
  if (config.count == 0) {
    return Status::InvalidArgument("StreamConfig.count must be >= 1");
  }
  if (config.domain == 0) {
    return Status::InvalidArgument("StreamConfig.domain must be >= 1");
  }
  if (!std::isfinite(config.skew) || config.skew < 0) {
    return Status::InvalidArgument(
        "StreamConfig.skew must be finite and non-negative");
  }
  if (config.n < 2) {
    return Status::InvalidArgument("StreamConfig.n must be >= 2");
  }

  Rng rng(config.seed);
  std::vector<QueryRequest> catalog;
  catalog.reserve(config.domain);
  for (size_t i = 0; i < config.domain; ++i) {
    QueryRequest request;
    request.benefit = 50.0 * rng.UniformDouble();
    // Gap strictly positive so F > B holds for every catalog point.
    request.cheat_gain = request.benefit + 0.5 + 50.0 * rng.UniformDouble();
    request.frequency = rng.UniformDouble();
    request.penalty = 100.0 * rng.UniformDouble();
    request.n = config.n;
    catalog.push_back(request);
  }

  std::vector<size_t> indices =
      sim::MakeZipfIndexDraws(config.count, config.domain, config.skew, rng);
  std::vector<QueryRequest> stream;
  stream.reserve(config.count);
  for (size_t index : indices) {
    stream.push_back(catalog[index]);
  }
  return stream;
}

std::vector<common::Flag> StreamFlags(StreamConfig* config) {
  constexpr int64_t kMaxCount = std::numeric_limits<int64_t>::max();
  return {common::IntFlag("--domain", 0, kMaxCount, &config->domain),
          common::NumberFlag("--skew", 0, std::numeric_limits<double>::max(),
                             &config->skew),
          common::IntFlag("--seed", 0, kMaxCount, &config->seed)};
}

}  // namespace hsis::serve
