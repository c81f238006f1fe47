// Multi-process worker for sharded landscape sweeps (common/shard.h).
//
// A sweep is split across processes — or machines sharing a results
// directory — in three steps:
//
//   1. Plan (once):
//        shard_worker --plan --sweep=figure1 --shards=4 --out=results
//   2. Run each shard, in any order, concurrently, anywhere:
//        shard_worker --shard=0 --out=results [--threads=N]
//        ... (one invocation per shard; re-run only the failed ones)
//   3. Merge and emit the CSV:
//        shard_worker --merge --out=results [--csv=figure1.csv]
//
// The merge validates every shard manifest (SHA-256, ranges, plan
// membership) and the assembled CSV is byte-identical to the serial
// single-process `export_landscapes` output. `--list` prints the sweep
// names of the catalogue (core/sweeps.h): the figure landscapes, the
// heterogeneous design searches and the campaign ensemble.
//
// Steps 2 and 3 can also be supervised automatically:
//
//        shard_worker --schedule --out=results [--sweep=NAME --shards=K]
//                     [--workers=N] [--max-retries=R] [--shard-timeout-ms=T]
//                     [--summary=FILE] [--csv=FILE] [--threads=N]
//
// which resumes an existing plan (or plans a fresh one when --sweep is
// given), re-executes this binary once per shard attempt under the
// fault-tolerant ShardScheduler (common/scheduler.h), retries crashed,
// corrupt, or hung shards, then merges. Completed shards are never
// recomputed. --summary writes the machine-readable hsis-schedule-v1
// run record; see docs/SHARDING.md for the operator runbook.

#include <signal.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/perf_record.h"
#include "common/scheduler.h"
#include "common/shard.h"
#include "core/sweeps.h"

using namespace hsis;
using namespace hsis::core;
using common::Fail;

namespace {

constexpr char kUsage[] =
    "usage:\n"
    "  shard_worker --plan --sweep=NAME --shards=K --out=DIR\n"
    "  shard_worker --shard=K --out=DIR [--threads=N]\n"
    "  shard_worker --merge --out=DIR [--csv=FILE]\n"
    "  shard_worker --schedule --out=DIR [--sweep=NAME --shards=K]\n"
    "               [--workers=N] [--max-retries=R] [--shard-timeout-ms=T]\n"
    "               [--summary=FILE] [--csv=FILE] [--threads=N]\n"
    "  shard_worker --list [--json]\n";

int Usage() { return common::PrintUsage(kUsage); }

void PrintPlan(const common::ShardPlanInfo& info, const std::string& out) {
  std::printf("planned sweep '%s': %zu indices in %d shards -> %s\n",
              info.sweep.c_str(), info.total, info.shards,
              common::ShardPlanPath(out).c_str());
  common::ShardPlan plan =
      common::ShardPlan::Create(info.total, info.shards).value();
  for (int k = 0; k < plan.shards(); ++k) {
    common::ShardRange range = plan.Range(k);
    std::printf("  shard %-3d [%zu, %zu)  %zu records\n", k, range.begin,
                range.end, range.size());
  }
}

int DoPlan(const std::string& sweep, int shards, const std::string& out) {
  auto info = PlanLandscapeShards(sweep, shards, out);
  if (!info.ok()) return Fail(info.status());
  PrintPlan(*info, out);
  return 0;
}

// Deterministic fault injection for scheduler integration tests: when
// the operator (or CI) touches `<out>/kill-shard-<k>`, the next attempt
// of shard k consumes the marker, leaves a partial payload behind, and
// dies by SIGKILL — exactly what a worker crash mid-write looks like.
// The marker is deleted first, so the retry the scheduler launches runs
// clean.
void MaybeDieAtKillMarker(int shard, const std::string& out) {
  const std::string marker = out + "/kill-shard-" + std::to_string(shard);
  if (!FileExists(marker)) return;
  (void)std::remove(marker.c_str());
  (void)WriteFile(common::ShardPayloadPath(out, shard), "partial write, no ");
  ::raise(SIGKILL);
}

int DoShard(int shard, const std::string& out, int threads) {
  MaybeDieAtKillMarker(shard, out);
  auto sweep = OpenLandscapeShards(out);
  if (!sweep.ok()) return Fail(sweep.status());
  if (Status s = sweep->runner.Run(shard, out, threads); !s.ok()) {
    return Fail(s);
  }
  common::ShardRange range = sweep->runner.plan().Range(shard);
  std::printf("shard %d of '%s' done: %zu records [%zu, %zu) -> %s\n", shard,
              sweep->plan.sweep.c_str(), range.size(), range.begin, range.end,
              common::ShardPayloadPath(out, shard).c_str());
  return 0;
}

int DoMerge(const std::string& out, std::string csv_path) {
  auto merged = MergeLandscapeShards(out);
  if (!merged.ok()) return Fail(merged.status());
  const common::ShardPlanInfo& info = merged->plan;
  if (csv_path.empty()) {
    csv_path = out + "/" + FindSweep(info.sweep).value()->filename;
  }
  if (Status s = WriteFile(csv_path, merged->csv); !s.ok()) return Fail(s);
  int rows = 0;
  for (char c : merged->csv) rows += (c == '\n');
  std::printf("merged %d shards of '%s': %d rows -> %s\n", info.shards,
              info.sweep.c_str(), rows - 1, csv_path.c_str());
  return 0;
}

// Path of this binary for self-re-execution, one process per shard
// attempt. /proc/self/exe survives PATH lookups and directory changes;
// argv[0] is the fallback off Linux.
std::string SelfBinary(const char* argv0) {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<size_t>(n));
  return argv0;
}

int DoSchedule(const std::string& self, const std::string& sweep, int shards,
               const std::string& out, int threads,
               const common::ShardScheduleOptions& options,
               const std::string& summary_path, const std::string& csv) {
  // Resume the plan already committed in `out`; plan fresh only when
  // there is none and --sweep names one.
  bool planned = false;
  auto info = ResumeOrPlanLandscapeShards(sweep, shards, out, &planned);
  if (!info.ok()) {
    // A contradicting --sweep, or neither a plan nor a sweep, is usage.
    Fail(info.status());
    return info.status().code() == StatusCode::kInvalidArgument
               ? common::kExitUsage
               : 1;
  }
  if (planned) PrintPlan(*info, out);

  common::ShardScheduler scheduler(
      *info, out, common::MakeProcessShardExecutor(self, out, threads),
      options);
  auto summary = scheduler.Run();
  if (!summary.ok()) return Fail(summary.status());

  std::printf(
      "scheduled '%s': %d shards done (%d resumed, %d retries, "
      "%d quarantined, %d timeouts) in %.0f ms\n",
      summary->sweep.c_str(), summary->shards, summary->resumed,
      summary->retries, summary->quarantined, summary->timeouts,
      summary->wall_ms);
  if (!summary_path.empty()) {
    std::string json =
        common::ScheduleRecordToJson(common::ToScheduleRecord(*summary));
    if (Status s = WriteFile(summary_path, json); !s.ok()) return Fail(s);
    std::printf("summary -> %s\n", summary_path.c_str());
  }
  return DoMerge(out, csv);
}

}  // namespace

int main(int argc, char** argv) {
  bool plan = false, merge = false, list = false, schedule = false;
  bool json = false;
  int shard = -1, shards = 1, threads = 1;
  std::string sweep, out, csv, summary_path;
  common::ShardScheduleOptions sched;
  std::vector<common::Flag> flags = common::ScheduleFlags(&sched);
  flags.insert(flags.end(),
               {common::SwitchFlag("--plan", &plan),
                common::SwitchFlag("--merge", &merge),
                common::SwitchFlag("--list", &list),
                common::SwitchFlag("--json", &json),
                common::SwitchFlag("--schedule", &schedule),
                common::TextFlag("--sweep", &sweep),
                common::TextFlag("--out", &out),
                common::TextFlag("--csv", &csv),
                common::TextFlag("--summary", &summary_path),
                common::ShardsFlag(&shards), common::ThreadsFlag(&threads),
                common::IntFlag("--shard", 0, INT_MAX, &shard)});
  common::ReadCommandLine(argc, argv, flags, kUsage);

  if (list) {
    // --json emits the machine-readable catalogue snapshot that
    // docs/SHARDING.md §1 cites, so the documented sweep table can be
    // regenerated instead of rotting: one object per sweep with its
    // index count and CSV filename, in catalogue order.
    if (json) {
      std::printf("{\"version\":\"hsis-sweeps-v1\",\"sweeps\":[");
      const char* separator = "";
      for (const Sweep& entry : SweepCatalogue()) {
        std::printf("%s{\"name\":\"%s\",\"total\":%zu,\"csv\":\"%s\"}",
                    separator, entry.spec.name.c_str(), entry.spec.total,
                    entry.filename.c_str());
        separator = ",";
      }
      std::printf("]}\n");
      return 0;
    }
    for (const Sweep& entry : SweepCatalogue()) {
      std::printf("%s\n", entry.spec.name.c_str());
    }
    return 0;
  }
  if (schedule) {
    if (out.empty() || plan || merge || shard >= 0) return Usage();
    return DoSchedule(SelfBinary(argv[0]), sweep, shards, out, threads, sched,
                      summary_path, csv);
  }
  if (plan) {
    if (sweep.empty() || out.empty() || merge || shard >= 0) return Usage();
    return DoPlan(sweep, shards, out);
  }
  if (shard >= 0) {
    if (out.empty() || merge) return Usage();
    return DoShard(shard, out, threads);
  }
  if (merge) {
    if (out.empty()) return Usage();
    return DoMerge(out, csv);
  }
  return Usage();
}
