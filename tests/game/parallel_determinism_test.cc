// Determinism suite for the parallel engine: every figure sweep of the
// catalogue (core/sweeps.h) must be bit-identical at threads = 1, 2,
// and hardware concurrency, and sweep errors must not depend on the
// thread count.

#include <gtest/gtest.h>

#include <string>

#include "common/shard.h"
#include "core/sweeps.h"

namespace hsis::game {
namespace {

const int kThreadCounts[] = {2, 0};  // compared against threads = 1

/// The catalogue sweep `name`'s CSV at every thread count equals the
/// serial one.
void ExpectThreadInvariant(const std::string& name) {
  Result<std::string> serial = core::LandscapeCsv(name, 1);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (int threads : kThreadCounts) {
    Result<std::string> parallel = core::LandscapeCsv(name, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(*serial, *parallel) << name << " at threads " << threads;
  }
}

TEST(ParallelSweepDeterminismTest, SweepFrequency) {
  ExpectThreadInvariant("figure1");
}

TEST(ParallelSweepDeterminismTest, SweepPenalty) {
  ExpectThreadInvariant("figure2_f02");
  ExpectThreadInvariant("figure2_f07");
}

TEST(ParallelSweepDeterminismTest, SweepAsymmetricGrid) {
  ExpectThreadInvariant("figure3");
}

TEST(ParallelSweepDeterminismTest, SweepNPlayerPenalty) {
  ExpectThreadInvariant("figure4");
}

TEST(ParallelSweepDeterminismTest, ErrorsIndependentOfThreadCount) {
  // A range running past a figure's last row fails at its first missing
  // row, whatever the thread count.
  for (const char* name : {"figure1", "figure3"}) {
    const common::ShardSweepSpec& spec = core::FindSweep(name).value()->spec;
    for (int threads : {1, 2, 0}) {
      Status status = common::ComputeShardRecords(
                          spec, {spec.total - 3, spec.total + 5}, threads)
                          .status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << name << " at threads " << threads;
      EXPECT_EQ(status.message(), "row range exceeds sweep index space");
    }
  }
}

}  // namespace
}  // namespace hsis::game
