#ifndef HSIS_CORE_SWEEPS_H_
#define HSIS_CORE_SWEEPS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/shard.h"

/// \file
/// \brief The closed catalogue of named sweeps and the results-directory
/// lifecycle every sharded driver shares.
///
/// The catalogue holds nine fixed sweeps, in `shard_worker --list`
/// order:
///  * the paper's figure landscapes "figure1", "figure2_f02",
///    "figure2_f07", "figure3" and "figure4", under the canonical
///    `export_landscapes` parameterization (B = 10, F = 25, L = 8, the
///    asymmetric Figure 3 economics, the 8-player Figure 4 band sweep);
///  * the design searches over a canonical 48-player mixed population:
///    "design_min_penalties" (game/heterogeneous.h
///    `MinPenaltiesForAllHonest`), "design_min_cost_frequencies"
///    (`MinCostFrequencies`) and "design_budget_deterrence"
///    (`MaxDeterredUnderBudget`);
///  * "campaign_ensemble", the policy × replicate grid of full audited
///    sessions (core/campaign.h `RunCampaignEnsembleCell`).
///
/// Each sweep maps global index `i` to one CSV row. `LandscapeCsv` is
/// the header followed by every record in order, which is exactly what a
/// merged K-shard run prepends its header to, so the two are the same
/// bytes by construction.
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

/// \namespace hsis::core
/// \brief The application layer: audited sharing sessions, campaigns,
/// mechanism design and the sweep catalogue.

namespace hsis::core {

/// One entry of the sweep catalogue.
struct Sweep {
  /// Shardable spec; `spec.name` is the sweep's name and `record(i)` is
  /// CSV row `i` with its trailing newline.
  common::ShardSweepSpec spec;
  std::string header;    ///< CSV header line with its trailing newline.
  std::string filename;  ///< File export-style drivers write the CSV to.
  bool figure = false;   ///< One of the paper's Figures 1–4.
};

/// The nine sweeps, in `--list` order: the five figures first.
const std::vector<Sweep>& SweepCatalogue();

/// The catalogue entry named `name`: its `spec`, `header` and
/// `filename`. NotFound, listing the known names, for any other name.
Result<const Sweep*> FindSweep(const std::string& name);

/// The full CSV in-process: the header, then `record(i)` for every `i`
/// computed on `threads` workers into ordered slots. This is the
/// single-process reference a sharded run reproduces byte-for-byte.
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

}  // namespace hsis::core

#endif  // HSIS_CORE_SWEEPS_H_
