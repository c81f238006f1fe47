#ifndef HSIS_GAME_REPORT_H_
#define HSIS_GAME_REPORT_H_

#include <cstddef>
#include <string>

#include "game/kernel.h"

namespace hsis::game {

/// CSV serializers for the landscape sweeps — plot-ready data for the
/// paper's four figures. Each figure has one header and one per-row form
/// over the kernel row struct; a whole sweep is the header followed by
/// every row (core/sweeps.h `LandscapeCsv`, and a merged shard run).
/// Fields containing commas are not produced by these sweeps so no
/// quoting is needed. Equilibrium labels come from the interned bitmask
/// table (kernel::NashMaskJoined): bitmasks stay bitmasks until here.

/// The most bytes `WriteCsvDouble` writes from `out`. The text itself
/// is at most 13 bytes ("-1.23457e-100"); the fast path's word stores
/// may write up to 16, past the returned end.
inline constexpr size_t kCsvDoubleMaxBytes = 16;

/// Writes `v` at `out` in the `%.6g` form ("C" locale) every landscape
/// CSV and every served proof (serve/derivation.h) uses for doubles,
/// and returns the end of the text. `out` must have room for
/// `kCsvDoubleMaxBytes`. Finite |v| in [1e-5, 1e15) is rounded
/// exactly, half to even, in integer arithmetic: the decimal exponent
/// is chosen before rounding, by comparing the significand with its
/// binade's threshold, so one quotient is formed and never corrected,
/// and the six digits are read two at a time from a pair table. Zeros,
/// subnormals, infinities, NaN and the other exponents go through
/// `std::to_chars(general, 6)`.
char* WriteCsvDouble(char* out, double v);

/// Appends `WriteCsvDouble`'s text for `v` to `out`.
void AppendCsvDouble(std::string& out, double v);

/// Columns: frequency, region, nash_equilibria (';'-joined), honest_is_dse,
/// matches_enumeration.
std::string FrequencySweepCsvHeader();
std::string FrequencyKernelRowToCsv(const kernel::FrequencyRowKernel& row);

/// Columns: penalty, region, nash_equilibria, honest_is_dse,
/// matches_enumeration.
std::string PenaltySweepCsvHeader();
std::string PenaltyKernelRowToCsv(const kernel::PenaltyRowKernel& row);

/// Columns: f1, f2, region, nash_equilibria, matches_enumeration.
std::string AsymmetricGridCsvHeader();
std::string AsymmetricKernelCellToCsv(const kernel::AsymmetricCellKernel& cell);

/// Columns: penalty, analytic_honest_count, equilibrium_honest_counts
/// (';'-joined), honest_dominant, cheat_dominant, matches_enumeration.
std::string NPlayerBandsCsvHeader();
std::string NPlayerKernelRowToCsv(const kernel::NPlayerBandRowKernel& row);

}  // namespace hsis::game

#endif  // HSIS_GAME_REPORT_H_
