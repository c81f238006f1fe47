#include "game/report.h"

#include <cstdio>

namespace hsis::game {

namespace {

/// All serializers append into one growing string through these
/// helpers — a stack snprintf buffer for numbers and interned label
/// lookups for equilibrium sets — so a row costs at most the final
/// string growth, never intermediate temporaries.

void AppendInt(std::string& out, long long v) {
  char buf[24];
  int len = std::snprintf(buf, sizeof(buf), "%lld", v);
  out.append(buf, static_cast<size_t>(len));
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

template <typename Row>
std::string RowToCsv(const Row& row) {
  std::string out;
  AppendRowCsv(out, row);
  return out;
}

/// Rough per-row byte budget for the whole-sweep reserves.
constexpr size_t kRowReserve = 48;

template <typename Row>
std::string RowsToCsv(std::string header, std::span<const Row> rows) {
  header.reserve(header.size() + rows.size() * kRowReserve);
  for (const Row& row : rows) AppendRowCsv(header, row);
  return header;
}

}  // namespace

void AppendCsvDouble(std::string& out, double v) {
  char buf[32];
  int len = std::snprintf(buf, sizeof(buf), "%.6g", v);
  out.append(buf, static_cast<size_t>(len));
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

std::string FrequencySweepToCsv(
    std::span<const kernel::FrequencyRowKernel> rows) {
  return RowsToCsv(FrequencySweepCsvHeader(), rows);
}

std::string PenaltySweepToCsv(std::span<const kernel::PenaltyRowKernel> rows) {
  return RowsToCsv(PenaltySweepCsvHeader(), rows);
}

std::string AsymmetricGridToCsv(
    std::span<const kernel::AsymmetricCellKernel> cells) {
  return RowsToCsv(AsymmetricGridCsvHeader(), cells);
}

std::string NPlayerBandsToCsv(
    std::span<const kernel::NPlayerBandRowKernel> rows) {
  return RowsToCsv(NPlayerBandsCsvHeader(), rows);
}

}  // namespace hsis::game
