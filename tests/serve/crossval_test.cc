// Cross-validation of the serving paths against the batch kernel: the
// analytic layer (core::MechanismDesigner through serve::AnswerQuery),
// the memoized path, and the batch SoA kernel
// (game::kernel::EvalDevicePoints read through serve::AnswerFromKernel)
// must agree bit for bit, including at operating points within
// kPayoffEpsilon of a regime flip and at every thread count.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "game/equilibrium.h"
#include "game/kernel.h"
#include "game/thresholds.h"
#include "serve/query_service.h"
#include "serve/stream.h"

namespace hsis::serve {
namespace {

/// Bit-level equality: distinguishes -0.0 from +0.0 and compares
/// infinities exactly, which EXPECT_DOUBLE_EQ does not.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ at the bit level";
}

void ExpectAnswersBitEqual(const QueryAnswer& a, const QueryAnswer& b) {
  EXPECT_EQ(a.effectiveness, b.effectiveness);
  EXPECT_EQ(a.honest_is_dominant, b.honest_is_dominant);
  EXPECT_TRUE(BitEqual(a.min_frequency, b.min_frequency));
  EXPECT_TRUE(BitEqual(a.min_penalty, b.min_penalty));
  EXPECT_TRUE(BitEqual(a.zero_penalty_frequency, b.zero_penalty_frequency));
}

/// The batch kernel's answers to `requests` under the default service
/// margin, as the served form, one per request.
std::vector<QueryAnswer> KernelBatch(const std::vector<QueryRequest>& requests,
                                     int threads = 1) {
  game::kernel::DevicePointsSoA points;
  points.Resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    points.benefit[i] = requests[i].benefit;
    points.cheat_gain[i] = requests[i].cheat_gain;
    points.frequency[i] = requests[i].frequency;
    points.penalty[i] = requests[i].penalty;
  }
  const double margin = QueryServiceConfig{}.margin;
  game::kernel::DeviceAnswersSoA batch;
  EXPECT_TRUE(game::kernel::EvalDevicePoints(points, margin, /*begin=*/0,
                                             requests.size(), batch, threads)
                  .ok());
  std::vector<QueryAnswer> answers;
  for (size_t i = 0; i < batch.effectiveness.size(); ++i) {
    answers.push_back(AnswerFromKernel(
        {batch.effectiveness[i], batch.min_frequency[i], batch.min_penalty[i],
         batch.zero_penalty_frequency[i]}));
  }
  return answers;
}

/// The dense property-test grid of the acceptance criteria: every
/// (B, F, f, P) combination the serving tier accepts.
std::vector<QueryRequest> PropertyGrid() {
  std::vector<QueryRequest> grid;
  for (double b : {0.0, 1.0, 10.0, 49.5}) {
    for (double gap : {0.5, 5.0, 15.0, 90.0}) {
      for (double f : {0.0, 0.05, 0.3, 0.6, 0.95, 1.0}) {
        for (double p : {0.0, 1.0, 40.0, 1e6}) {
          grid.push_back(QueryRequest{b, b + gap, f, p, 2});
        }
      }
    }
  }
  return grid;
}

TEST(CrossValidationTest, BatchPathIsBitEqualToTheAnalyticPath) {
  QueryService service = std::move(QueryService::Create({}).value());
  std::vector<QueryRequest> grid = PropertyGrid();
  std::vector<QueryAnswer> batch = KernelBatch(grid);
  ASSERT_EQ(batch.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "slot " << i);
    ExpectAnswersBitEqual(batch[i], service.Answer(grid[i]).value());
  }
}

TEST(CrossValidationTest, CachedPathIsBitEqualToTheAnalyticPath) {
  QueryService service = std::move(QueryService::Create({}).value());
  for (const QueryRequest& request : PropertyGrid()) {
    QueryAnswer analytic = service.Answer(request).value();
    // Twice: once computed through the kernel (miss), once replayed
    // from the cache (hit) — all three must agree bit for bit.
    ExpectAnswersBitEqual(service.AnswerCached(request).value(), analytic);
    ExpectAnswersBitEqual(service.AnswerCached(request).value(), analytic);
  }
  CacheStats stats = service.Stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(CrossValidationTest, BatchCachedPathMatchesBatchUncached) {
  QueryService cached = std::move(QueryService::Create({}).value());
  std::vector<QueryRequest> grid = PropertyGrid();
  game::kernel::DeviceAnswersSoA a;
  ASSERT_TRUE(cached.AnswerBatchCached(grid.data(), grid.size(), a).ok());
  std::vector<QueryAnswer> b = KernelBatch(grid);
  ASSERT_EQ(b.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(a.effectiveness[i], b[i].effectiveness) << "slot " << i;
    EXPECT_TRUE(BitEqual(a.min_frequency[i], b[i].min_frequency));
    EXPECT_TRUE(BitEqual(a.min_penalty[i], b[i].min_penalty));
    EXPECT_TRUE(
        BitEqual(a.zero_penalty_frequency[i], b[i].zero_penalty_frequency));
  }
}

TEST(CrossValidationTest, ThreadCountNeverChangesBatchAnswers) {
  std::vector<QueryRequest> grid = PropertyGrid();
  std::vector<QueryAnswer> serial = KernelBatch(grid, 1);
  std::vector<QueryAnswer> parallel = KernelBatch(grid, 4);
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "slot " << i);
    ExpectAnswersBitEqual(serial[i], parallel[i]);
  }
}

// The quantization satellite: operating points within kPayoffEpsilon
// of a regime flip must classify identically through the analytic,
// batch, and (lossless) cached paths — the cache key must not merge
// distinct sides of the boundary.
TEST(CrossValidationTest, EpsilonBoundaryPointsClassifyIdenticallyEverywhere) {
  const double kB = 10, kF = 25;
  QueryService service = std::move(QueryService::Create({}).value());
  for (double p : {0.0, 10.0, 40.0, 200.0}) {
    // The boundary frequency at penalty p, then points straddling it at
    // sub-epsilon offsets.
    const double f_star = game::CriticalFrequency(kB, kF, p);
    for (double offset :
         {-2 * game::kPayoffEpsilon, -game::kPayoffEpsilon,
          -game::kPayoffEpsilon / 2, 0.0, game::kPayoffEpsilon / 2,
          game::kPayoffEpsilon, 2 * game::kPayoffEpsilon}) {
      QueryRequest request{kB, kF, f_star + offset, p, 2};
      if (request.frequency < 0 || request.frequency > 1) continue;
      QueryAnswer analytic = service.Answer(request).value();
      std::vector<QueryAnswer> batch = KernelBatch({request});
      ASSERT_EQ(batch.size(), 1u);
      EXPECT_EQ(batch[0].effectiveness, analytic.effectiveness)
          << "f = f* + " << offset;
      ExpectAnswersBitEqual(service.AnswerCached(request).value(), analytic);
      // Distinct boundary neighbours must occupy distinct cache slots
      // in lossless mode.
      QueryRequest shifted = request;
      shifted.frequency = f_star - offset;
      if (offset != 0.0 && shifted.frequency != request.frequency) {
        EXPECT_FALSE(MakeQueryKey(request, 0) == MakeQueryKey(shifted, 0));
      }
    }
  }
}

TEST(CrossValidationTest, QuantizedCacheServesTheSnappedPointsAnswer) {
  QueryServiceConfig config;
  config.cache.quantum = 1e-3;
  QueryService service = std::move(QueryService::Create(config).value());
  QueryRequest request{10.0 + 2e-4, 25.0, 0.3, 40.0, 2};
  QueryAnswer served = service.AnswerCached(request).value();
  // The served answer is the analytic answer of the canonical point,
  // not of the raw request.
  QueryRequest canonical = SnapRequest(request, config.cache.quantum);
  QueryService plain = std::move(QueryService::Create({}).value());
  ExpectAnswersBitEqual(served, plain.Answer(canonical).value());
  // Every member of the equivalence class serves those same bytes.
  QueryRequest sibling = request;
  sibling.benefit = 10.0 - 3e-4;
  ExpectAnswersBitEqual(service.AnswerCached(sibling).value(), served);
}

TEST(CrossValidationTest, SyntheticStreamServesConsistentlyAcrossPaths) {
  StreamConfig stream_config;
  stream_config.count = 5000;
  stream_config.domain = 64;
  std::vector<QueryRequest> stream =
      MakeSyntheticStream(stream_config).value();
  QueryService service = std::move(QueryService::Create({}).value());
  game::kernel::DeviceAnswersSoA cached_answers;
  ASSERT_TRUE(service
                  .AnswerBatchCached(stream.data(), stream.size(),
                                     cached_answers)
                  .ok());
  std::vector<QueryAnswer> batch_answers = KernelBatch(stream);
  ASSERT_EQ(batch_answers.size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(cached_answers.effectiveness[i], batch_answers[i].effectiveness);
    EXPECT_TRUE(BitEqual(cached_answers.min_penalty[i],
                         batch_answers[i].min_penalty));
    // The serving-tier output contract, checked over the whole stream:
    // no path ever emits a frequency outside [0, 1].
    EXPECT_GE(cached_answers.min_frequency[i], 0.0);
    EXPECT_LE(cached_answers.min_frequency[i], 1.0);
    EXPECT_GE(cached_answers.zero_penalty_frequency[i], 0.0);
    EXPECT_LE(cached_answers.zero_penalty_frequency[i], 1.0);
  }
  // One miss per distinct catalog point drawn, everything else hits.
  CacheStats stats = service.Stats();
  EXPECT_LE(stats.entries, 64u);
  EXPECT_EQ(stats.misses, stats.entries);
  EXPECT_EQ(stats.hits + stats.misses, 5000u);
  EXPECT_GT(stats.hits, stats.misses);
}

}  // namespace
}  // namespace hsis::serve
