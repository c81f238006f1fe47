#include "game/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ios>
#include <limits>
#include <sstream>
#include <string>
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
  // Every landscape CSV double and every number of a served proof is
  // "%.6g" text; the figure, design and proof digest pins depend on it
  // byte for byte.
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
  // The edges of the exact fast path, |v| in [1e-5, 1e15): the decimal
  // exponent estimate and its one-step correction at every power of
  // ten, both range limits, exact ties (half to even), carries to the
  // next power of ten, negatives, and a million values spread
  // log-uniformly over the range.
  const auto with_neighbours = [&values](double v) {
    values.push_back(v);
    values.push_back(std::nextafter(v, 0.0));
    values.push_back(std::nextafter(v, 1e300));
  };
  for (int e = -5; e <= 15; ++e) {
    with_neighbours(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
  }
  // Just outside the range on each side.
  with_neighbours(9.99999e-6);
  with_neighbours(1.000001e15);
  // Ties at the sixth significant digit.
  for (int i = 0; i < 2000; ++i) {
    values.push_back(100000 + 450 * i + 0.5);  // k + 0.5, k in [1e5, 1e6)
    values.push_back(1000005 + 4500.0 * i);    // 7-digit integers ending in 5
    // k/1024 with k/128 odd: x.125, x.375, x.625 or x.875 in [1e3, 1e4).
    values.push_back((1024000 + 4608.0 * i + 128 * (2 * (i % 4) + 1)) / 1024);
  }
  for (double v : {1234565.0, 1234575.0, 100000.5, 100001.5, 999998.5,
                   10000.25, 10000.75, 1000.125, 1000.375, 0.1234565}) {
    values.push_back(v);
  }
  // Carries: N rounds up to 10^6 and the exponent moves up one.
  for (double v : {999999.5, 9.999995e-5, 9999995.0, 99999.95, 0.9999995,
                   9.999995, 999999500000000.0, 9.9999949999e-5, 999999.49}) {
    with_neighbours(v);
  }
  for (int i = 0; i < 1000000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // A uniform draw in [0, 1) from the top 53 bits, mapped to
    // 10^(-5 + 20u).
    const double u = static_cast<double>(state >> 11) * 0x1p-53;
    values.push_back(std::pow(10.0, -5 + 20 * u));
  }
  const size_t positives = values.size();
  for (size_t i = 0; i < positives; ++i) values.push_back(-values[i]);
  for (double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.6g", v);
    std::string out;
    AppendCsvDouble(out, v);
    ASSERT_EQ(out, expected) << "value " << std::hexfloat << v;
  }
}

TEST(ReportTest, WriteCsvDoubleStaysWithinItsBound) {
  // The widest texts of both paths: the fallback's three-digit
  // exponents, subnormals, the range limits and NaN, and the fast
  // path's longest block copies (fixed notation at E = 5 and E = -4,
  // the d.ddddde±XX layout). Every byte past kCsvDoubleMaxBytes keeps
  // its sentinel.
  std::vector<double> values = {-1.23457e-100,
                                1.23457e-100,
                                5e-324,
                                -4.94066e-324,
                                2.2250738585072009e-308,
                                -2.2250738585072014e-308,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::quiet_NaN(),
                                -std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                -123456.5,
                                -987654.321,
                                -0.000123456,
                                -1.23456e-5,
                                -1.23456e14,
                                -9.99999e14,
                                -0.0};
  // Negatives over the whole fast-path range, each exponent's layout.
  for (int i = 0; i < 100000; ++i) {
    values.push_back(-std::pow(10.0, -5 + 20 * (i + 0.5) / 100000));
  }
  constexpr char kSentinel = '\x5a';
  for (double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.6g", v);
    char buf[64];
    std::memset(buf, kSentinel, sizeof(buf));
    char* end = WriteCsvDouble(buf, v);
    ASSERT_LE(end - buf, static_cast<std::ptrdiff_t>(kCsvDoubleMaxBytes));
    ASSERT_EQ(std::string(buf, end), expected) << "value " << std::hexfloat << v;
    std::string appended;
    AppendCsvDouble(appended, v);
    ASSERT_EQ(appended, expected) << "value " << std::hexfloat << v;
    for (size_t i = kCsvDoubleMaxBytes; i < sizeof(buf); ++i) {
      ASSERT_EQ(buf[i], kSentinel) << "byte " << i << " of " << expected;
    }
  }
}

TEST(ReportTest, WriteCsvDoubleMatchesSnprintfInEveryBinade) {
  // Binade by binade over the exact fast path, |v| in [1e-5, 1e15), for
  // both signs: random mantissas, each binade's endpoints, 1 ulp around
  // every power of ten, every representable tie at the sixth digit
  // (half to even), every six-digit N and the carries that round N up
  // to 10^6.
  std::vector<double> values;
  const auto in_range = [](double v) { return v >= 1e-5 && v < 1e15; };
  uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  // 2^-17 < 1e-5 and 2^49 < 1e15 < 2^50: the binades that meet the range.
  for (int q2 = -17; q2 <= 49; ++q2) {
    const double low = std::ldexp(1.0, q2);
    const double high = std::nextafter(std::ldexp(1.0, q2 + 1), 0.0);
    for (double v : {low, high, std::nextafter(low, 1e300),
                     std::nextafter(high, 0.0)}) {
      if (in_range(v)) values.push_back(v);
    }
    for (int i = 0; i < 2000; ++i) {
      const double v =
          std::ldexp(1.0 + static_cast<double>(next() >> 12) * 0x1p-52, q2);
      if (in_range(v)) values.push_back(v);
    }
  }
  for (int e = -5; e <= 15; ++e) {
    const double power = std::strtod(("1e" + std::to_string(e)).c_str(),
                                     nullptr);
    for (double v : {std::nextafter(power, 0.0), power,
                     std::nextafter(power, 1e300)}) {
      if (in_range(v)) values.push_back(v);
    }
  }
  // Exact ties (N + 1/2) * 10^(E - 5). For E >= 5 they are integers or
  // halves. For E < 5 a tie is j * 2^(E - 6) with j odd, and 2N + 1 =
  // 5^(5 - E) * j must lie in [2e5 + 1, 2e6): none at E = -5.
  for (int e = -5; e <= 14; ++e) {
    if (e >= 5) {
      uint64_t five = 1;
      for (int i = 5; i < e; ++i) five *= 5;
      for (int i = 0; i < 200; ++i) {
        const uint64_t odd = 2 * (100000 + next() % 900000) + 1;
        values.push_back(
            std::ldexp(static_cast<double>(odd * five), e - 6));
      }
      continue;
    }
    uint64_t five = 1;
    for (int i = e; i < 5; ++i) five *= 5;
    for (uint64_t j = 1; j * five < 2000000; j += 2) {
      if (j * five > 200000) {
        values.push_back(std::ldexp(static_cast<double>(j), e - 6));
      }
    }
  }
  // Carries: 9.999995e(E) and its neighbours round N up to 10^6 and E
  // up by one, or stay just below.
  for (int e = -5; e <= 14; ++e) {
    const double carry =
        std::strtod(("9.999995e" + std::to_string(e)).c_str(), nullptr);
    for (double v : {std::nextafter(carry, 0.0), carry,
                     std::nextafter(carry, 1e300)}) {
      if (in_range(v)) values.push_back(v);
    }
  }
  const size_t positives = values.size();
  for (size_t i = 0; i < positives; ++i) values.push_back(-values[i]);
  // Every six-digit N, as the integer N: each digit pattern once.
  for (int n = 100000; n < 1000000; ++n) values.push_back(n);
  for (double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.6g", v);
    char buf[kCsvDoubleMaxBytes];
    ASSERT_EQ(std::string(buf, WriteCsvDouble(buf, v)), expected)
        << "value " << std::hexfloat << v;
  }
}

}  // namespace
}  // namespace hsis::game
