#ifndef HSIS_GAME_LANDSCAPE_SHARDS_H_
#define HSIS_GAME_LANDSCAPE_SHARDS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/shard.h"

/// \file
/// \brief Sharded forms of the figure landscape sweeps and the named
/// sweep registry.
///
/// Every sweep here runs under the canonical `export_landscapes`
/// parameterization (B = 10, F = 25, L = 8, the asymmetric Figure 3
/// economics, the 8-player Figure 4 band sweep). Each named sweep maps
/// global index `i` to one CSV row, so merging a K-shard run and
/// prepending the header reproduces the serial CSV byte-for-byte.
///
/// Builtin names, in export order: "figure1", "figure2_f02",
/// "figure2_f07", "figure3", "figure4". Additional sweeps join the
/// registry through `RegisterNamedSweep` (e.g. the design-search sweeps
/// below, or the campaign ensemble from core/campaign_shards.h) and are
/// then drivable from `shard_worker` exactly like a figure.
///
/// A results directory goes through one lifecycle, shared by every
/// sharded driver (`shard_worker`, `sweep_service`, `sweep_client`,
/// `export_landscapes`): plan it, run its shards, merge it.
///
/// \par Usage
/// \code
///   HSIS_RETURN_IF_ERROR(PlanLandscapeShards("figure1", 4, dir).status());
///   HSIS_ASSIGN_OR_RETURN(LandscapeShards sweep, OpenLandscapeShards(dir));
///   for (int k = 0; k < sweep.plan.shards; ++k) {
///     HSIS_RETURN_IF_ERROR(sweep.runner.Run(k, dir));  // any process
///   }
///   HSIS_ASSIGN_OR_RETURN(MergedLandscapeCsv merged,
///                         MergeLandscapeShards(dir));
///   // merged.csv == LandscapeCsv("figure1")
/// \endcode

/// \namespace hsis::game
/// \brief The paper's game-theoretic layer: honesty games, equilibrium
/// analysis, figure landscapes, and mechanism design searches.

namespace hsis::game {

/// All currently known sweep names: builtins first, then registered
/// sweeps in registration order.
const std::vector<std::string>& LandscapeSweepNames();

/// Shardable spec for the named sweep: `record(i)` is CSV row `i`
/// (with trailing newline) as bytes. NotFound for unknown names.
Result<common::ShardSweepSpec> LandscapeSweepSpec(const std::string& name);

/// The named sweep's CSV header line (with trailing newline).
Result<std::string> LandscapeCsvHeader(const std::string& name);

/// The filename `export_landscapes` writes the named sweep to, e.g.
/// "figure1_frequency_sweep.csv".
Result<std::string> LandscapeCsvFilename(const std::string& name);

/// Full serial-equivalent CSV (header + all rows) computed in-process
/// with `threads` workers — the single-process reference a sharded run
/// must reproduce byte-for-byte. Figure sweeps render through the
/// allocation-free batch evaluators of game/kernel.h into row vectors
/// (a shard record is the same evaluator over one row); registered
/// sweeps run their per-row records with ordered output slots.
Result<std::string> LandscapeCsv(const std::string& name, int threads = 1);

/// Plans sweep `name` in `shards` shards: creates `dir` and writes its
/// plan manifest (common/shard.h). Returns the plan as written.
Result<common::ShardPlanInfo> PlanLandscapeShards(const std::string& name,
                                                  int shards,
                                                  const std::string& dir);

/// Resumes the plan in `dir`, planning `name` in `shards` shards only
/// when `dir` has no plan and `name` is non-empty; `*planned` (when
/// given) reports whether it planned. InvalidArgument when `dir` has no
/// plan and `name` is empty, or when `name` contradicts the planned
/// sweep. An existing plan manifest is never rewritten.
Result<common::ShardPlanInfo> ResumeOrPlanLandscapeShards(
    const std::string& name, int shards, const std::string& dir,
    bool* planned = nullptr);

/// The sweep planned in a results directory, ready to run shards.
struct LandscapeShards {
  common::ShardPlanInfo plan;   ///< The directory's plan manifest.
  common::ShardRunner runner;   ///< Computes shards of that plan.
};

/// Reads the plan in `dir` and binds a runner to its sweep.
Result<LandscapeShards> OpenLandscapeShards(const std::string& dir);

/// A results directory merged into its CSV.
struct MergedLandscapeCsv {
  common::ShardPlanInfo plan;  ///< The directory's plan manifest.
  std::string csv;  ///< Header + rows, identical to `LandscapeCsv(sweep)`.
};

/// Reads the plan in `dir`, validates and merges every shard
/// (`common::MergeShards` taxonomy) and prepends the sweep's header.
Result<MergedLandscapeCsv> MergeLandscapeShards(const std::string& dir);

/// An externally-registered named sweep.
struct NamedSweep {
  /// Builds the shardable spec; `record(i)` must be CSV row `i` with a
  /// trailing newline so merged shards + `header` reproduce the CSV.
  std::function<Result<common::ShardSweepSpec>()> make_spec;
  /// CSV header line with trailing newline.
  std::string header;
  /// Filename export-style drivers write the sweep to.
  std::string filename;
};

/// Registers `sweep` under `name`, extending the name list, spec,
/// header, filename, and CSV lookups uniformly. InvalidArgument on
/// empty name/fields, AlreadyExists for duplicates (builtin or
/// registered). Registration is not synchronized against concurrent
/// lookups — register during startup, before sweeps run.
Status RegisterNamedSweep(const std::string& name, NamedSweep sweep);

/// Registers the heterogeneous design-search sweeps over the canonical
/// 48-player mixed population: "design_min_penalties" (per-player
/// minimum penalty making all-honest dominant, game/heterogeneous.h
/// MinPenaltiesForAllHonest), "design_min_cost_frequencies" (cheapest
/// per-player audit frequencies, MinCostFrequencies), and
/// "design_budget_deterrence" (greedy budgeted allocation,
/// MaxDeterredUnderBudget). Idempotent: re-registration is a no-op.
Status RegisterHeterogeneousDesignSweeps();

}  // namespace hsis::game

#endif  // HSIS_GAME_LANDSCAPE_SHARDS_H_
