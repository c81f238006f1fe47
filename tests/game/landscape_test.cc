// The paper's four figure landscapes on the kernel's row kernels
// (game/kernel.h): regions, crossovers, bands and argument
// validation of Observations 2-3 and Theorem 1.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "game/kernel.h"

namespace hsis::game {
namespace {

constexpr double kB = 10, kF = 25, kL = 8;

/// Rows [0, count) of one sweep: `row_at(i)` for every i, in order.
template <typename RowAt>
auto RowsOf(size_t count, RowAt row_at) {
  std::vector<decltype(row_at(size_t{0}))> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) rows.push_back(row_at(i));
  return rows;
}

std::vector<kernel::FrequencyRowKernel> FrequencySweep(double penalty,
                                                       int steps) {
  return RowsOf(static_cast<size_t>(steps), [&](size_t i) {
    return kernel::FrequencyRowAt(kB, kF, kL, penalty, steps, i);
  });
}

std::vector<kernel::PenaltyRowKernel> PenaltySweep(double frequency,
                                                   double max_penalty,
                                                   int steps) {
  return RowsOf(static_cast<size_t>(steps), [&](size_t i) {
    return kernel::PenaltyRowAt(kB, kF, kL, frequency, max_penalty, steps, i);
  });
}

std::vector<kernel::NPlayerBandRowKernel> BandSweep(
    const NPlayerHonestyGame::Params& params, double max_penalty, int steps) {
  Result<kernel::NPlayerKernelParams> kernel_params =
      kernel::MakeNPlayerKernelParams(params);
  EXPECT_TRUE(kernel_params.ok()) << kernel_params.status();
  if (!kernel_params.ok()) return {};
  return RowsOf(static_cast<size_t>(steps), [&](size_t i) {
    return kernel::NPlayerBandRowAt(*kernel_params, max_penalty, steps, i);
  });
}

TEST(Figure1Test, FrequencySweepMatchesObservation2) {
  const double penalty = 50;
  std::vector<kernel::FrequencyRowKernel> rows = FrequencySweep(penalty, 101);
  ASSERT_EQ(rows.size(), 101u);

  double f_star = CriticalFrequency(kB, kF, penalty);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].matches) << "mismatch at f = " << rows[i].frequency;
    if (rows[i].frequency < f_star - 1e-9) {
      EXPECT_EQ(rows[i].region, SymmetricRegion::kAllCheatUniqueDse);
      EXPECT_FALSE(rows[i].honest_is_dse);
    } else if (rows[i].frequency > f_star + 1e-9) {
      EXPECT_EQ(rows[i].region, SymmetricRegion::kAllHonestUniqueDse);
      EXPECT_TRUE(rows[i].honest_is_dse);
    }
  }
}

TEST(Figure1Test, CrossoverLocatedAtClosedForm) {
  const double penalty = 50;
  std::vector<kernel::FrequencyRowKernel> rows = FrequencySweep(penalty, 1001);
  // First all-honest row sits within one grid step of f*.
  double f_star = CriticalFrequency(kB, kF, penalty);
  double first_honest = 2.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].region == SymmetricRegion::kAllHonestUniqueDse) {
      first_honest = rows[i].frequency;
      break;
    }
  }
  EXPECT_NEAR(first_honest, f_star, 1.0 / 1000 + 1e-9);
}

TEST(Figure2Test, PenaltySweepMatchesObservation3LowFrequency) {
  const double f = 0.2;  // below (F-B)/F = 0.6: both regimes appear
  std::vector<kernel::PenaltyRowKernel> rows = PenaltySweep(f, 100, 101);
  ASSERT_EQ(rows.size(), 101u);
  double p_star = CriticalPenalty(kB, kF, f);
  bool saw_cheat = false, saw_honest = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].matches) << "mismatch at P = " << rows[i].penalty;
    if (rows[i].penalty < p_star - 1e-9) {
      EXPECT_EQ(rows[i].region, SymmetricRegion::kAllCheatUniqueDse);
      saw_cheat = true;
    } else if (rows[i].penalty > p_star + 1e-9) {
      EXPECT_EQ(rows[i].region, SymmetricRegion::kAllHonestUniqueDse);
      saw_honest = true;
    }
  }
  EXPECT_TRUE(saw_cheat);
  EXPECT_TRUE(saw_honest);
}

TEST(Figure2Test, HighFrequencyRegimeIsAllHonestEverywhere) {
  // f > (F-B)/F: (H,H) unique from P = 0 on (the paper's upper diagram).
  const double f = 0.7;
  ASSERT_GT(f, ZeroPenaltyFrequency(kB, kF));
  std::vector<kernel::PenaltyRowKernel> rows = PenaltySweep(f, 100, 51);
  ASSERT_EQ(rows.size(), 51u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].region, SymmetricRegion::kAllHonestUniqueDse);
    EXPECT_TRUE(rows[i].matches);
    EXPECT_TRUE(rows[i].honest_is_dse);
  }
}

TEST(Figure3Test, GridShowsAllFourRegions) {
  TwoPlayerGameParams params;
  params.player1 = {10, 30};
  params.player2 = {8, 22};
  params.loss_to_1 = 4;
  params.loss_to_2 = 9;
  params.audit1 = {0, 20};
  params.audit2 = {0, 15};
  std::vector<kernel::AsymmetricCellKernel> cells = RowsOf(
      21u * 21u, [&](size_t i) { return kernel::AsymmetricCellAt(params, 21, i); });
  ASSERT_EQ(cells.size(), 21u * 21u);

  int region_counts[5] = {0, 0, 0, 0, 0};
  for (size_t k = 0; k < cells.size(); ++k) {
    EXPECT_TRUE(cells[k].matches)
        << "mismatch at (" << cells[k].f1 << ", " << cells[k].f2 << ")";
    region_counts[static_cast<int>(cells[k].region)]++;
  }
  EXPECT_GT(region_counts[static_cast<int>(AsymmetricRegion::kBothCheat)], 0);
  EXPECT_GT(region_counts[static_cast<int>(AsymmetricRegion::kOnlyP1Cheats)], 0);
  EXPECT_GT(region_counts[static_cast<int>(AsymmetricRegion::kOnlyP2Cheats)], 0);
  EXPECT_GT(region_counts[static_cast<int>(AsymmetricRegion::kBothHonest)], 0);
}

TEST(Figure4Test, NPlayerBandsMatchTheorem1) {
  NPlayerHonestyGame::Params params;
  params.n = 8;
  params.benefit = 10;
  params.gain = LinearGain(20, 2);
  params.frequency = 0.3;
  params.uniform_loss = 4;

  double top = NPlayerPenaltyBound(params.benefit, params.gain,
                                   params.frequency, params.n - 1);
  std::vector<kernel::NPlayerBandRowKernel> rows =
      BandSweep(params, top * 1.2, 201);
  ASSERT_EQ(rows.size(), 201u);

  int prev_count = -1;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].matches) << "mismatch at P = " << rows[i].penalty;
    // The honest count is monotone nondecreasing in the penalty.
    EXPECT_GE(rows[i].analytic_honest_count, prev_count);
    prev_count = rows[i].analytic_honest_count;
  }
  EXPECT_EQ(rows.front().analytic_honest_count, 0);
  EXPECT_EQ(rows.back().analytic_honest_count, params.n);
  EXPECT_TRUE(rows.back().honest_is_dominant);
  EXPECT_TRUE(rows.front().cheat_is_dominant);
}

TEST(Figure4Test, EveryBandIsVisited) {
  NPlayerHonestyGame::Params params;
  params.n = 5;
  params.benefit = 10;
  params.gain = LinearGain(20, 3);
  params.frequency = 0.4;
  params.uniform_loss = 2;

  double top = NPlayerPenaltyBound(params.benefit, params.gain,
                                   params.frequency, params.n - 1);
  std::vector<kernel::NPlayerBandRowKernel> rows =
      BandSweep(params, top * 1.1, 400);
  ASSERT_EQ(rows.size(), 400u);
  std::set<int> seen;
  for (const kernel::NPlayerBandRowKernel& row : rows) {
    seen.insert(row.analytic_honest_count);
  }
  for (int x = 0; x <= params.n; ++x) {
    EXPECT_TRUE(seen.count(x)) << "band x = " << x << " never visited";
  }
}

TEST(SweepValidationTest, RejectsBadArguments) {
  NPlayerHonestyGame::Params p;
  p.n = 4;
  p.benefit = 10;
  p.gain = LinearGain(20, 1);
  p.frequency = 0;  // Theorem 1 needs f > 0
  EXPECT_EQ(kernel::MakeNPlayerKernelParams(p).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hsis::game
