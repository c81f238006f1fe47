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

void AppendAsymmetricCellCsv(std::string& out, double f1, double f2,
                             AsymmetricRegion region,
                             kernel::ProfileMask2x2 mask, bool matches) {
  AppendCsvDouble(out, f1);
  out += ',';
  AppendCsvDouble(out, f2);
  out += ',';
  out += AsymmetricRegionSlug(region);
  out += ',';
  out += kernel::NashMaskJoined(mask);
  out += ',';
  out += matches ? "1" : "0";
  out += '\n';
}

void AppendNPlayerRowCsv(std::string& out, double penalty, int analytic,
                         kernel::HonestCountMask counts, bool honest_dominant,
                         bool cheat_dominant, bool matches) {
  AppendCsvDouble(out, penalty);
  out += ',';
  AppendInt(out, analytic);
  out += ',';
  AppendJoinedCounts(out, counts);
  out += ',';
  out += honest_dominant ? "1" : "0";
  out += ',';
  out += cheat_dominant ? "1" : "0";
  out += ',';
  out += matches ? "1" : "0";
  out += '\n';
}

/// Rough per-row byte budget for the whole-sweep reserves.
constexpr size_t kRowReserve = 48;

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
  std::string out;
  AppendSymmetricRowCsv(out, row.frequency, row.region, row.nash_mask,
                        row.honest_is_dse, row.matches);
  return out;
}

std::string PenaltyKernelRowToCsv(const kernel::PenaltyRowKernel& row) {
  std::string out;
  AppendSymmetricRowCsv(out, row.penalty, row.region, row.nash_mask,
                        row.honest_is_dse, row.matches);
  return out;
}

std::string AsymmetricKernelCellToCsv(
    const kernel::AsymmetricCellKernel& cell) {
  std::string out;
  AppendAsymmetricCellCsv(out, cell.f1, cell.f2, cell.region, cell.nash_mask,
                          cell.matches);
  return out;
}

std::string NPlayerKernelRowToCsv(const kernel::NPlayerBandRowKernel& row) {
  std::string out;
  AppendNPlayerRowCsv(out, row.penalty, row.analytic_honest_count,
                      row.count_mask, row.honest_is_dominant,
                      row.cheat_is_dominant, row.matches);
  return out;
}

std::string FrequencySweepToCsv(const kernel::FrequencyRowsSoA& rows) {
  std::string out = FrequencySweepCsvHeader();
  out.reserve(out.size() + rows.size() * kRowReserve);
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendSymmetricRowCsv(out, rows.frequency[i], rows.region[i],
                          rows.nash_mask[i], rows.honest_is_dse[i] != 0,
                          rows.matches[i] != 0);
  }
  return out;
}

std::string PenaltySweepToCsv(const kernel::PenaltyRowsSoA& rows) {
  std::string out = PenaltySweepCsvHeader();
  out.reserve(out.size() + rows.size() * kRowReserve);
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendSymmetricRowCsv(out, rows.penalty[i], rows.region[i],
                          rows.nash_mask[i], rows.honest_is_dse[i] != 0,
                          rows.matches[i] != 0);
  }
  return out;
}

std::string AsymmetricGridToCsv(const kernel::AsymmetricCellsSoA& cells) {
  std::string out = AsymmetricGridCsvHeader();
  out.reserve(out.size() + cells.size() * kRowReserve);
  for (size_t i = 0; i < cells.size(); ++i) {
    AppendAsymmetricCellCsv(out, cells.f1[i], cells.f2[i], cells.region[i],
                            cells.nash_mask[i], cells.matches[i] != 0);
  }
  return out;
}

std::string NPlayerBandsToCsv(const kernel::NPlayerBandRowsSoA& rows) {
  std::string out = NPlayerBandsCsvHeader();
  out.reserve(out.size() + rows.size() * kRowReserve);
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendNPlayerRowCsv(out, rows.penalty[i], rows.analytic_honest_count[i],
                        rows.count_mask[i], rows.honest_is_dominant[i] != 0,
                        rows.cheat_is_dominant[i] != 0, rows.matches[i] != 0);
  }
  return out;
}

}  // namespace hsis::game
