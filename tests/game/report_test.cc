#include "game/report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

namespace hsis::game {
namespace {

int CountLines(const std::string& s) {
  int lines = 0;
  for (char c : s) lines += (c == '\n');
  return lines;
}

std::vector<std::string> SplitCsvLine(const std::string& csv, int line) {
  std::istringstream stream(csv);
  std::string row;
  for (int i = 0; i <= line; ++i) std::getline(stream, row);
  std::vector<std::string> fields;
  std::istringstream row_stream(row);
  std::string field;
  while (std::getline(row_stream, field, ',')) fields.push_back(field);
  return fields;
}

/// A whole sweep's CSV: the header, then `row_csv(i)` for each of the
/// `count` rows in order.
template <typename RowCsv>
std::string SweepCsv(std::string header, size_t count, RowCsv row_csv) {
  for (size_t i = 0; i < count; ++i) header += row_csv(i);
  return header;
}

TEST(ReportTest, FrequencySweepCsvShape) {
  std::string csv = SweepCsv(FrequencySweepCsvHeader(), 11, [](size_t i) {
    return FrequencyKernelRowToCsv(kernel::FrequencyRowAt(10, 25, 8, 40, 11, i));
  });
  EXPECT_EQ(CountLines(csv), 12);  // header + 11 samples
  auto header = SplitCsvLine(csv, 0);
  ASSERT_EQ(header.size(), 5u);
  EXPECT_EQ(header[0], "frequency");
  EXPECT_EQ(header[4], "matches_enumeration");

  auto first = SplitCsvLine(csv, 1);
  EXPECT_EQ(first[0], "0");
  EXPECT_EQ(first[1], "all_cheat");
  EXPECT_EQ(first[2], "CC");
  EXPECT_EQ(first[4], "1");

  auto last = SplitCsvLine(csv, 11);
  EXPECT_EQ(last[0], "1");
  EXPECT_EQ(last[1], "all_honest");
  EXPECT_EQ(last[2], "HH");
  EXPECT_EQ(last[3], "1");
}

TEST(ReportTest, PenaltySweepCsvShape) {
  std::string csv = SweepCsv(PenaltySweepCsvHeader(), 5, [](size_t i) {
    return PenaltyKernelRowToCsv(
        kernel::PenaltyRowAt(10, 25, 8, 0.2, 100, 5, i));
  });
  EXPECT_EQ(CountLines(csv), 6);
  auto header = SplitCsvLine(csv, 0);
  EXPECT_EQ(header[0], "penalty");
}

TEST(ReportTest, AsymmetricGridCsvShape) {
  TwoPlayerGameParams params = TwoPlayerGameParams::Symmetric(10, 25, 8);
  params.audit1.penalty = 20;
  params.audit2.penalty = 20;
  std::string csv = SweepCsv(AsymmetricGridCsvHeader(), 9, [&](size_t i) {
    return AsymmetricKernelCellToCsv(kernel::AsymmetricCellAt(params, 3, i));
  });
  EXPECT_EQ(CountLines(csv), 10);  // header + 9 cells
  auto corner = SplitCsvLine(csv, 1);
  EXPECT_EQ(corner[0], "0");
  EXPECT_EQ(corner[1], "0");
  EXPECT_EQ(corner[2], "CC");
}

TEST(ReportTest, NPlayerBandsCsvShape) {
  NPlayerHonestyGame::Params params;
  params.n = 4;
  params.benefit = 10;
  params.gain = LinearGain(20, 2);
  params.frequency = 0.3;
  params.uniform_loss = 4;
  Result<kernel::NPlayerKernelParams> kernel_params =
      kernel::MakeNPlayerKernelParams(params);
  ASSERT_TRUE(kernel_params.ok()) << kernel_params.status();
  std::string csv = SweepCsv(NPlayerBandsCsvHeader(), 7, [&](size_t i) {
    return NPlayerKernelRowToCsv(
        kernel::NPlayerBandRowAt(*kernel_params, 60, 7, i));
  });
  EXPECT_EQ(CountLines(csv), 8);
  auto header = SplitCsvLine(csv, 0);
  ASSERT_EQ(header.size(), 6u);
  EXPECT_EQ(header[2], "equilibrium_honest_counts");
  auto first = SplitCsvLine(csv, 1);
  EXPECT_EQ(first[1], "0");  // no penalty -> nobody honest
  EXPECT_EQ(first[4], "1");  // cheat dominant
}

TEST(ReportTest, MultiEquilibriaJoinedWithSemicolons) {
  // Boundary frequency: both CC and HH are equilibria in one row.
  double f_star = CriticalFrequency(10, 25, 40);
  kernel::FrequencyRowKernel row;
  row.frequency = f_star;
  row.region = ClassifySymmetricRegion(10, 25, f_star, 40);
  row.nash_mask = kernel::kMaskHH | kernel::kMaskCC;
  row.honest_is_dse = false;
  row.matches = true;
  std::string csv = FrequencyKernelRowToCsv(row);
  EXPECT_NE(csv.find("HH;CC"), std::string::npos);
}

TEST(ReportTest, CsvDoubleIsPrintfPercent6g) {
  // Every landscape CSV double is "%.6g" text; the figure and design
  // digest pins depend on it byte for byte.
  std::vector<double> values = {0.0,
                                -0.0,
                                1e-5,
                                9.999995e-5,
                                999999.5,
                                1e16,
                                5e-324,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i <= 4000; ++i) values.push_back(i / 4000.0);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    double v;
    std::memcpy(&v, &state, sizeof(v));
    values.push_back(v);
  }
  for (double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.6g", v);
    std::string out;
    AppendCsvDouble(out, v);
    ASSERT_EQ(out, expected);
  }
}

}  // namespace
}  // namespace hsis::game
