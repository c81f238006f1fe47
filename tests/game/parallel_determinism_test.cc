// Determinism suite for the parallel engine: every figure sweep of the
// catalogue (core/sweeps.h) and the mechanism designer's grid search
// must be bit-identical at threads = 1, 2, and hardware concurrency,
// and sweep errors must not depend on the thread count.

#include <gtest/gtest.h>

#include <string>

#include "common/shard.h"
#include "core/mechanism_designer.h"
#include "core/sweeps.h"
#include "game/thresholds.h"

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

TEST(MechanismDesignerGridSearchTest, DeterministicAcrossThreadCounts) {
  auto designer = core::MechanismDesigner::Create(10, 25).value();
  core::MechanismDesigner::GridSearchConfig config;
  config.max_penalty = 120;
  config.audit_cost = 3.5;
  config.cost_per_unit_penalty = 0.01;

  config.threads = 1;
  auto serial = designer.GridSearchCheapestTransformative(config);
  ASSERT_TRUE(serial.ok());
  for (int threads : kThreadCounts) {
    config.threads = threads;
    auto parallel = designer.GridSearchCheapestTransformative(config);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial->frequency, parallel->frequency);
    EXPECT_EQ(serial->penalty, parallel->penalty);
    EXPECT_EQ(serial->expected_audit_cost, parallel->expected_audit_cost);
    EXPECT_EQ(serial->effectiveness, parallel->effectiveness);
  }
}

TEST(MechanismDesignerGridSearchTest, FindsTransformativePoint) {
  auto designer = core::MechanismDesigner::Create(10, 25).value();
  core::MechanismDesigner::GridSearchConfig config;
  config.max_penalty = 100;
  config.audit_cost = 2.0;
  auto point = designer.GridSearchCheapestTransformative(config);
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->effectiveness, DeviceEffectiveness::kTransformative);
  // The grid optimum cannot beat the analytic minimum frequency for the
  // largest allowed penalty.
  EXPECT_GE(point->frequency, CriticalFrequency(10, 25, 100));
  EXPECT_LE(point->frequency, 1.0);
}

TEST(MechanismDesignerGridSearchTest, ValidatesConfig) {
  auto designer = core::MechanismDesigner::Create(10, 25).value();
  core::MechanismDesigner::GridSearchConfig config;
  config.max_penalty = -1;
  EXPECT_FALSE(designer.GridSearchCheapestTransformative(config).ok());
  config.max_penalty = 10;
  config.frequency_steps = 1;
  EXPECT_FALSE(designer.GridSearchCheapestTransformative(config).ok());
}

}  // namespace
}  // namespace hsis::game
