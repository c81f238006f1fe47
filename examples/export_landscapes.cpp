// Exports the four figure landscapes as CSV files for plotting —
// plot-ready reproductions of Figures 1–4.
//
// Build & run:  ./build/examples/export_landscapes [--threads=N]
//               [--shards=K] [--schedule] [--workers=N] [--max-retries=R]
//               [--shard-timeout-ms=T] [output-dir]
// (default output dir: current directory; --threads=0 uses hardware
// concurrency — the CSVs are bit-identical for every thread count; any
// other argument starting with "--" is refused with exit status 2)
//
// With --shards=K each sweep runs through the full shard lifecycle of
// common/shard.h — plan, K shard runs, validated merge — under
// <output-dir>/shards/<sweep>/, and the merged CSVs are byte-identical
// to the single-process run. Use examples/shard_worker to split the
// same shards across separate processes or machines.
//
// Adding --schedule hands the K shard runs to the fault-tolerant
// ShardScheduler (common/scheduler.h) on in-process worker threads:
// up to --workers shards run concurrently, failed shards retry up to
// --max-retries times, and shards already committed by an earlier
// (e.g. interrupted) run are skipped. See docs/SHARDING.md.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/scheduler.h"
#include "common/shard.h"
#include "core/sweeps.h"

using namespace hsis;
using namespace hsis::core;

namespace {

/// Computes the named sweep's CSV through a K-shard plan/run/merge
/// cycle in `shard_dir`. With `options` set (--schedule), the shard
/// runs go through the fault-tolerant scheduler instead of a serial
/// loop — resuming committed shards and retrying failed ones.
Result<std::string> ShardedCsv(const std::string& name, int shards,
                               int threads, const std::string& shard_dir,
                               const common::ShardScheduleOptions* options) {
  HSIS_RETURN_IF_ERROR(PlanLandscapeShards(name, shards, shard_dir).status());
  HSIS_ASSIGN_OR_RETURN(LandscapeShards sweep, OpenLandscapeShards(shard_dir));
  if (options != nullptr) {
    common::ShardScheduler scheduler(
        sweep.plan, shard_dir,
        common::MakeRunnerShardExecutor(sweep.runner.spec(),
                                        sweep.runner.plan(), shard_dir,
                                        threads),
        *options);
    HSIS_ASSIGN_OR_RETURN(common::ShardScheduleSummary summary,
                          scheduler.Run());
    if (summary.resumed > 0 || summary.retries > 0) {
      std::printf("  [%s: %d shards, %d resumed, %d retries]\n", name.c_str(),
                  summary.shards, summary.resumed, summary.retries);
    }
  } else {
    for (int k = 0; k < shards; ++k) {
      HSIS_RETURN_IF_ERROR(sweep.runner.Run(k, shard_dir, threads));
    }
  }
  HSIS_ASSIGN_OR_RETURN(MergedLandscapeCsv merged,
                        MergeLandscapeShards(shard_dir));
  return std::move(merged.csv);
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  int shards = 1;
  bool schedule = false;
  common::ShardScheduleOptions options;
  std::vector<common::Flag> flags = common::ScheduleFlags(&options);
  flags.insert(flags.end(), {common::ThreadsFlag(&threads),
                             common::ShardsFlag(&shards),
                             common::SwitchFlag("--schedule", &schedule)});
  const std::vector<std::string> positionals = common::ReadCommandLine(
      argc, argv, flags,
      "usage: export_landscapes [--threads=N] [--shards=K] [--schedule] "
      "[--workers=N]\n"
      "         [--max-retries=R] [--shard-timeout-ms=T] [output-dir]\n",
      SIZE_MAX);
  const std::string dir = positionals.empty() ? "." : positionals.back();
  if (schedule && shards <= 1) {
    std::fprintf(stderr, "--schedule needs --shards=K with K > 1\n");
    return common::kExitUsage;
  }

  if (Status status = CreateDirectories(dir); !status.ok()) {
    return common::Fail(status);
  }
  for (const Sweep& sweep : SweepCatalogue()) {
    if (!sweep.figure) continue;
    const std::string& name = sweep.spec.name;
    Result<std::string> csv =
        shards > 1 ? ShardedCsv(name, shards, threads,
                                dir + "/shards/" + name,
                                schedule ? &options : nullptr)
                   : LandscapeCsv(name, threads);
    if (!csv.ok()) {
      std::printf("FAILED %s: %s\n", name.c_str(),
                  csv.status().ToString().c_str());
      return 1;
    }
    std::string path = dir + "/" + sweep.filename;
    Status status = WriteFile(path, *csv);
    if (!status.ok()) {
      std::printf("FAILED %s: %s\n", path.c_str(), status.ToString().c_str());
      return 1;
    }
    int rows = 0;
    for (char c : *csv) rows += (c == '\n');
    std::printf("wrote %-38s (%d rows)\n", path.c_str(), rows - 1);
  }
  if (shards > 1) {
    std::printf("\nEach CSV was merged from %d shards (plan + payloads under "
                "%s/shards/<sweep>/)\nand is byte-identical to the "
                "single-process run.\n", shards, dir.c_str());
  }
  std::printf("\nEach CSV carries the analytic region, the enumerated\n"
              "equilibria, and the cross-check flag per sample point.\n");
  return 0;
}
