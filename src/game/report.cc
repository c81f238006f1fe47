#include "game/report.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace hsis::game {

namespace {

/// All serializers append into one growing string through these
/// helpers — a stack `std::to_chars` buffer for numbers and interned
/// label lookups for equilibrium sets — so a row costs at most the
/// final string growth, never intermediate temporaries.

void AppendInt(std::string& out, long long v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendJoinedCounts(std::string& out, kernel::HonestCountMask mask) {
  bool first = true;
  for (int x = 0; x <= kernel::kMaxKernelPlayers; ++x) {
    if ((mask & (kernel::HonestCountMask{1} << x)) == 0) continue;
    if (!first) out += ';';
    first = false;
    AppendInt(out, x);
  }
}

const char* AsymmetricRegionSlug(AsymmetricRegion region) {
  switch (region) {
    case AsymmetricRegion::kBothCheat:
      return "CC";
    case AsymmetricRegion::kOnlyP1Cheats:
      return "CH";
    case AsymmetricRegion::kOnlyP2Cheats:
      return "HC";
    case AsymmetricRegion::kBothHonest:
      return "HH";
    case AsymmetricRegion::kBoundary:
      return "boundary";
  }
  return "?";
}

const char* RegionSlug(SymmetricRegion region) {
  switch (region) {
    case SymmetricRegion::kAllCheatUniqueDse:
      return "all_cheat";
    case SymmetricRegion::kBoundary:
      return "boundary";
    case SymmetricRegion::kAllHonestUniqueDse:
      return "all_honest";
  }
  return "?";
}

void AppendSymmetricRowCsv(std::string& out, double lead,
                           SymmetricRegion region, kernel::ProfileMask2x2 mask,
                           bool honest_is_dse, bool matches) {
  AppendCsvDouble(out, lead);
  out += ',';
  out += RegionSlug(region);
  out += ',';
  out += kernel::NashMaskJoined(mask);
  out += ',';
  out += honest_is_dse ? "1" : "0";
  out += ',';
  out += matches ? "1" : "0";
  out += '\n';
}

void AppendRowCsv(std::string& out, const kernel::FrequencyRowKernel& row) {
  AppendSymmetricRowCsv(out, row.frequency, row.region, row.nash_mask,
                        row.honest_is_dse, row.matches);
}

void AppendRowCsv(std::string& out, const kernel::PenaltyRowKernel& row) {
  AppendSymmetricRowCsv(out, row.penalty, row.region, row.nash_mask,
                        row.honest_is_dse, row.matches);
}

void AppendRowCsv(std::string& out, const kernel::AsymmetricCellKernel& cell) {
  AppendCsvDouble(out, cell.f1);
  out += ',';
  AppendCsvDouble(out, cell.f2);
  out += ',';
  out += AsymmetricRegionSlug(cell.region);
  out += ',';
  out += kernel::NashMaskJoined(cell.nash_mask);
  out += ',';
  out += cell.matches ? "1" : "0";
  out += '\n';
}

void AppendRowCsv(std::string& out, const kernel::NPlayerBandRowKernel& row) {
  AppendCsvDouble(out, row.penalty);
  out += ',';
  AppendInt(out, row.analytic_honest_count);
  out += ',';
  AppendJoinedCounts(out, row.count_mask);
  out += ',';
  out += row.honest_is_dominant ? "1" : "0";
  out += ',';
  out += row.cheat_is_dominant ? "1" : "0";
  out += ',';
  out += row.matches ? "1" : "0";
  out += '\n';
}

/// 10^0 through 10^11: the scales `WriteCsvDouble`'s fast path needs.
constexpr uint64_t kPow10[] = {1,           10,           100,
                               1000,        10000,        100000,
                               1000000,     10000000,     100000000,
                               1000000000,  10000000000,  100000000000};

/// Room for the longest figure row, so a row is one allocation.
constexpr size_t kRowReserve = 64;

template <typename Row>
std::string RowToCsv(const Row& row) {
  std::string out;
  out.reserve(kRowReserve);
  AppendRowCsv(out, row);
  return out;
}

}  // namespace

char* WriteCsvDouble(char* out, double v) {
  // "%.6g" in the "C" locale: round |v| to six significant digits,
  // N = round(|v| * 10^(5 - E)) in [1e5, 1e6) with E its decimal
  // exponent, then write N in fixed notation when -4 <= E < 6 and as
  // d.ddddde±XX otherwise, trailing zeros dropped.
  const double magnitude = std::fabs(v);
  if (!(magnitude >= 1e-5 && magnitude < 1e15)) {
    // Zeros, subnormals, infinities, NaN and the far exponents:
    // general format at precision 6 is "%.6g" by the standard's
    // definition.
    return std::to_chars(out, out + kCsvDoubleMaxBytes, v,
                         std::chars_format::general, 6)
        .ptr;
  }
  // magnitude = m * 2^-k exactly, 3 <= k <= 69 in this range.
  const uint64_t bits = std::bit_cast<uint64_t>(magnitude);
  const int q2 = static_cast<int>(bits >> 52) - 1023;
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  const int k = 52 - q2;
  // floor(q2 * log10(2)): the decimal exponent E is this or one more.
  int exponent = (q2 * 78913) >> 18;
  // N = m * 10^(5 - E) / 2^k, its quotient exact and its remainder
  // compared with half the divisor.
  uint64_t n = 0;
  bool above_half = false, at_half = false, exact = false;
  const int scale = 5 - exponent;
  if (scale >= 0) {
    const unsigned __int128 num =
        static_cast<unsigned __int128>(m) * kPow10[scale];
    const unsigned __int128 half = static_cast<unsigned __int128>(1)
                                   << (k - 1);
    const unsigned __int128 rem = num & ((half << 1) - 1);
    n = static_cast<uint64_t>(num >> k);
    above_half = rem > half;
    at_half = rem == half;
    exact = rem == 0;
  } else {
    // E >= 6 means k <= 33, so 2^k * 10^(E - 5) < 2^63.
    const uint64_t den = kPow10[-scale] << k;
    const uint64_t rem = m % den;
    n = m / den;
    above_half = 2 * rem > den;
    at_half = 2 * rem == den;
    exact = rem == 0;
  }
  if (n >= kPow10[6]) {
    // E was one more: N's last digit moves into the remainder.
    const uint64_t digit = n % 10;
    n /= 10;
    ++exponent;
    above_half = digit > 5 || (digit == 5 && !exact);
    at_half = digit == 5 && exact;
  }
  if (above_half || (at_half && (n & 1))) ++n;  // half to even
  if (n == kPow10[6]) {
    n = kPow10[5];
    ++exponent;
  }
  // The six digits, padded so each copy below moves a fixed 8 bytes.
  // The furthest copy (negative, E = 5: sign, six digits, point, 8
  // bytes) ends at byte 16, kCsvDoubleMaxBytes.
  char digits[16] = {};
  for (int i = 0; i < 6; ++i) {
    digits[i] = static_cast<char>('0' + n / kPow10[5 - i] % 10);
  }
  int last = 5;  // the last digit written, trailing zeros dropped
  while (digits[last] == '0') --last;
  char* p = out;
  if (v < 0) *p++ = '-';
  if (exponent < -4 || exponent >= 6) {
    // d.ddddde±XX, the point dropped with no digit after it.
    p[0] = digits[0];
    p[1] = '.';
    std::memcpy(p + 2, digits + 1, 8);
    p += last > 0 ? last + 2 : 1;
    const int e = exponent < 0 ? -exponent : exponent;
    p[0] = 'e';
    p[1] = exponent < 0 ? '-' : '+';
    p[2] = static_cast<char>('0' + e / 10);
    p[3] = static_cast<char>('0' + e % 10);
    p += 4;
  } else if (exponent >= 0) {
    // E + 1 integer digits, then the point and the rest, if any.
    std::memcpy(p, digits, 8);
    std::memcpy(p + exponent + 2, digits + exponent + 1, 8);
    p[exponent + 1] = '.';
    p += last > exponent ? last + 2 : exponent + 1;
  } else {
    // "0." and -E - 1 zeros before the digits.
    std::memcpy(p, "0.000000", 8);
    std::memcpy(p + 1 - exponent, digits, 8);
    p += 2 - exponent + last;
  }
  return p;
}

void AppendCsvDouble(std::string& out, double v) {
  char buf[kCsvDoubleMaxBytes];
  out.append(buf, WriteCsvDouble(buf, v));
}

std::string FrequencySweepCsvHeader() {
  return "frequency,region,nash_equilibria,honest_is_dse,"
         "matches_enumeration\n";
}

std::string PenaltySweepCsvHeader() {
  return "penalty,region,nash_equilibria,honest_is_dse,matches_enumeration\n";
}

std::string AsymmetricGridCsvHeader() {
  return "f1,f2,region,nash_equilibria,matches_enumeration\n";
}

std::string NPlayerBandsCsvHeader() {
  return "penalty,analytic_honest_count,equilibrium_honest_counts,"
         "honest_dominant,cheat_dominant,matches_enumeration\n";
}

std::string FrequencyKernelRowToCsv(const kernel::FrequencyRowKernel& row) {
  return RowToCsv(row);
}

std::string PenaltyKernelRowToCsv(const kernel::PenaltyRowKernel& row) {
  return RowToCsv(row);
}

std::string AsymmetricKernelCellToCsv(
    const kernel::AsymmetricCellKernel& cell) {
  return RowToCsv(cell);
}

std::string NPlayerKernelRowToCsv(const kernel::NPlayerBandRowKernel& row) {
  return RowToCsv(row);
}

}  // namespace hsis::game
