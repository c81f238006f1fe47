#include "game/report.h"

#include <charconv>

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

void AppendCsvDouble(std::string& out, double v) {
  // General format at precision 6 is printf's "%.6g" in the "C" locale,
  // byte for byte, without parsing a format string.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 6)
                      .ptr);
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
