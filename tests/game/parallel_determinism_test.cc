// Determinism suite for the parallel engine: every batch sweep
// evaluator and the mechanism designer's grid search must be
// bit-identical at threads = 1, 2, and hardware concurrency, and sweep
// errors must not depend on the thread count.

#include <gtest/gtest.h>

#include <vector>

#include "common/parallel.h"
#include "core/mechanism_designer.h"
#include "game/kernel.h"

namespace hsis::game {
namespace {

const int kThreadCounts[] = {2, 0};  // compared against threads = 1

TEST(ParallelSweepDeterminismTest, SweepFrequency) {
  std::vector<kernel::FrequencyRowKernel> serial;
  ASSERT_TRUE(
      kernel::EvalFrequencyRows(10, 25, 8, 40, 101, 0, 101, serial, 1).ok());
  for (int threads : kThreadCounts) {
    std::vector<kernel::FrequencyRowKernel> parallel;
    ASSERT_TRUE(kernel::EvalFrequencyRows(10, 25, 8, 40, 101, 0, 101,
                                          parallel, threads)
                    .ok());
    EXPECT_EQ(serial, parallel) << "threads " << threads;
  }
}

TEST(ParallelSweepDeterminismTest, SweepPenalty) {
  std::vector<kernel::PenaltyRowKernel> serial;
  ASSERT_TRUE(
      kernel::EvalPenaltyRows(10, 25, 8, 0.2, 120, 101, 0, 101, serial, 1)
          .ok());
  for (int threads : kThreadCounts) {
    std::vector<kernel::PenaltyRowKernel> parallel;
    ASSERT_TRUE(kernel::EvalPenaltyRows(10, 25, 8, 0.2, 120, 101, 0, 101,
                                        parallel, threads)
                    .ok());
    EXPECT_EQ(serial, parallel) << "threads " << threads;
  }
}

TwoPlayerGameParams AsymmetricParams() {
  TwoPlayerGameParams params;
  params.player1 = {10, 30};
  params.player2 = {6, 20};
  params.loss_to_1 = 4;
  params.loss_to_2 = 9;
  params.audit1 = {0, 20};
  params.audit2 = {0, 15};
  return params;
}

TEST(ParallelSweepDeterminismTest, SweepAsymmetricGrid) {
  const size_t kCells = 31 * 31;
  std::vector<kernel::AsymmetricCellKernel> serial;
  ASSERT_TRUE(
      kernel::EvalAsymmetricCells(AsymmetricParams(), 31, 0, kCells, serial, 1)
          .ok());
  for (int threads : kThreadCounts) {
    std::vector<kernel::AsymmetricCellKernel> parallel;
    ASSERT_TRUE(kernel::EvalAsymmetricCells(AsymmetricParams(), 31, 0, kCells,
                                            parallel, threads)
                    .ok());
    EXPECT_EQ(serial, parallel) << "threads " << threads;
  }
}

TEST(ParallelSweepDeterminismTest, SweepNPlayerPenalty) {
  NPlayerHonestyGame::Params params;
  params.n = 8;
  params.benefit = 10;
  params.gain = LinearGain(20, 2);
  params.frequency = 0.3;
  params.uniform_loss = 4;
  double top = NPlayerPenaltyBound(10, params.gain, 0.3, params.n - 1);

  std::vector<kernel::NPlayerBandRowKernel> serial;
  ASSERT_TRUE(
      kernel::EvalNPlayerBandRows(params, top * 1.2, 101, 0, 101, serial, 1)
          .ok());
  for (int threads : kThreadCounts) {
    std::vector<kernel::NPlayerBandRowKernel> parallel;
    ASSERT_TRUE(kernel::EvalNPlayerBandRows(params, top * 1.2, 101, 0, 101,
                                            parallel, threads)
                    .ok());
    EXPECT_EQ(serial, parallel) << "threads " << threads;
  }
}

TEST(ParallelSweepDeterminismTest, ErrorsIndependentOfThreadCount) {
  for (int threads : {1, 2, 0}) {
    std::vector<kernel::FrequencyRowKernel> rows;
    EXPECT_EQ(kernel::EvalFrequencyRows(10, 25, 8, 40, 0, 0, 0, rows, threads)
                  .code(),
              StatusCode::kInvalidArgument);
    std::vector<kernel::AsymmetricCellKernel> cells;
    EXPECT_EQ(kernel::EvalAsymmetricCells(AsymmetricParams(), 0, 0, 0, cells,
                                          threads)
                  .code(),
              StatusCode::kInvalidArgument);
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
