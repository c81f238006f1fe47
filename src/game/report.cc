#include "game/report.h"

#include <array>
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

/// 10^0 through 10^9: N's bounds, and the divisor scales of
/// `WriteCsvDouble`'s division path (E - 5 <= 9 below 1e15).
constexpr uint64_t kPow10[] = {1,      10,      100,      1000,      10000,
                               100000, 1000000, 10000000, 100000000,
                               1000000000};

/// 5^0 through 5^11: the product path's scales. 10^s = 5^s * 2^s, so
/// m * 10^s / 2^k is m * 5^s / 2^(k - s) and every shift stays below 64.
constexpr uint64_t kPow5[] = {1,       5,       25,       125,
                              625,     3125,    15625,    78125,
                              390625,  1953125, 9765625,  48828125};

/// floor(q2 * log10(2)) for |q2| < 1000: the decimal exponent of every
/// double in the binade [2^q2, 2^(q2 + 1)) is this or one more.
constexpr int DecimalExponentEstimate(int q2) { return (q2 * 78913) >> 18; }

/// The binades that meet the fast path's range [1e-5, 1e15).
constexpr int kMinBinade = -17;
constexpr int kMaxBinade = 49;

/// Per binade q2, the least 53-bit significand m whose value m * 2^(q2
/// - 52) reaches 10^(E0 + 1), E0 = DecimalExponentEstimate(q2): the
/// decimal exponent is E0 + 1 exactly when m reaches it. The threshold
/// is ceil(10^(E0 + 1) * 2^(52 - q2)) <= 10 * 2^52.
constexpr auto kNextDecade = [] {
  std::array<uint64_t, kMaxBinade - kMinBinade + 1> least{};
  for (int q2 = kMinBinade; q2 <= kMaxBinade; ++q2) {
    const int decade = DecimalExponentEstimate(q2) + 1;
    const unsigned __int128 binade = static_cast<unsigned __int128>(1)
                                     << (52 - q2);
    unsigned __int128 power = 1;
    for (int i = 0; i < (decade < 0 ? -decade : decade); ++i) power *= 10;
    least[q2 - kMinBinade] = static_cast<uint64_t>(
        decade >= 0 ? binade * power : (binade + power - 1) / power);
  }
  return least;
}();

/// "00" through "99": the digits are read two at a time.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// The two characters of `i` < 100, first in the low byte.
uint64_t DigitPair(uint32_t i) {
  uint16_t pair;
  std::memcpy(&pair, kDigitPairs.data() + 2 * i, sizeof(pair));
  return pair;
}

/// Six '0' characters: the zero digits of a six-digit word. The
/// writer builds its text in words whose first character is the low
/// byte, and stores them as they are.
constexpr uint64_t kZeroDigits = 0x303030303030;
static_assert(std::endian::native == std::endian::little,
              "WriteCsvDouble stores little-endian text words");

/// Zeros, subnormals, infinities, NaN and the far exponents: general
/// format at precision 6 is "%.6g" by the standard's definition. Out of
/// line, so the fast path saves no registers for the call.
[[gnu::noinline]] char* WriteCsvDoubleGeneral(char* out, double v) {
  return std::to_chars(out, out + kCsvDoubleMaxBytes, v,
                       std::chars_format::general, 6)
      .ptr;
}

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
    return WriteCsvDoubleGeneral(out, v);
  }
  // |v| = m * 2^-k exactly, 3 <= k <= 69 in this range.
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const int q2 = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  const int k = 52 - q2;
  // E is picked before N is rounded, by one compare and no branch.
  int exponent = DecimalExponentEstimate(q2) +
                 (m >= kNextDecade[q2 - kMinBinade] ? 1 : 0);
  const int scale = 5 - exponent;
  uint64_t n = 0;
  bool round_up = false;
  if (scale >= 0) {
    // |v| < 10^6: N is the quotient of m * 5^s / 2^t, 33 <= t <= 59,
    // and its fraction, top-aligned, is compared with one half.
    const int t = k - scale;
    const unsigned __int128 product =
        static_cast<unsigned __int128>(m) * kPow5[scale];
    const uint64_t high = static_cast<uint64_t>(product >> 64);
    const uint64_t low = static_cast<uint64_t>(product);
    n = (high << (64 - t)) | (low >> t);
    const uint64_t fraction = low << (64 - t);
    // The fraction's low bit is clear, so it can carry N's parity:
    // above one half, or at one half with N odd (half to even).
    round_up = (fraction | (n & 1)) > (uint64_t{1} << 63);
  } else {
    // E >= 6 means k <= 33, so den = 2^k * 10^(E - 5) < 2^63.
    const uint64_t den = kPow10[-scale] << k;
    n = m / den;
    const uint64_t rem = m - n * den;
    round_up = ((rem << 1) | (n & 1)) > den;
  }
  n += round_up;
  if (n == kPow10[6]) {  // 999999.5 rounds to 1e+06
    n = kPow10[5];
    ++exponent;
  }
  // The six digits as one little-endian word, the first in the low
  // byte, from three pairs: N / 10^4 in 32.32 fixed point (429497 is
  // 2^32 / 10^4 rounded up, exact for every N < 10^6), each pair the
  // integer part as the fraction is multiplied by 100. `last` is the
  // last digit kept, trailing zeros dropped (the first is never zero).
  uint64_t scaled = n * 429497;
  const uint64_t first = DigitPair(static_cast<uint32_t>(scaled >> 32));
  scaled = (scaled & 0xffffffff) * 100;
  const uint64_t second = DigitPair(static_cast<uint32_t>(scaled >> 32));
  scaled = (scaled & 0xffffffff) * 100;
  const uint64_t digits =
      first | second << 16 |
      DigitPair(static_cast<uint32_t>(scaled >> 32)) << 32;
  const int last = (63 - std::countl_zero((digits ^ kZeroDigits) | 1)) / 8;
  // Each layout is built in registers and written with at most two
  // word stores. The furthest (negative, E = -4: sign, "0.000", the
  // digits' word) ends at byte 14, within kCsvDoubleMaxBytes.
  char* p = out;
  *p = '-';
  p += bits >> 63;
  if (exponent < -4 || exponent >= 6) {
    // d.ddddde±XX, the point dropped with no digit after it.
    const uint64_t mantissa =
        (digits & 0xff) | uint64_t{'.'} << 8 | (digits >> 8) << 16;
    std::memcpy(p, &mantissa, 8);
    p += last > 0 ? last + 2 : 1;
    const uint32_t e = static_cast<uint32_t>(exponent < 0 ? -exponent
                                                          : exponent);
    const uint32_t tail = uint32_t{'e'} |
                          static_cast<uint32_t>(exponent < 0 ? '-' : '+') << 8 |
                          static_cast<uint32_t>(DigitPair(e)) << 16;
    std::memcpy(p, &tail, 4);
    p += 4;
  } else if (exponent >= 0) {
    // E + 1 integer digits, then the point and the rest, if any.
    const int point = 8 * (exponent + 1);
    const uint64_t fixed = (digits & ((uint64_t{1} << point) - 1)) |
                           uint64_t{'.'} << point |
                           (digits >> point) << (point + 8);
    std::memcpy(p, &fixed, 8);
    p += last > exponent ? last + 2 : exponent + 1;
  } else {
    // "0." and -E - 1 zeros before the digits.
    std::memcpy(p, "0.000000", 8);
    std::memcpy(p + 1 - exponent, &digits, 8);
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
