#ifndef HSIS_BENCH_BENCH_UTIL_H_
#define HSIS_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/file.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/perf_record.h"
#include "common/scheduler.h"
#include "common/shard.h"

/// Shared main() for all reproduction benches: read the bench flags
/// (`ConsumeFlags`, `BenchFlags`), print the paper artifact first
/// (tables/series exactly as DESIGN.md §4 specifies), then run the
/// google-benchmark timings registered by the binary on the arguments
/// the flag table left over. Exits 1 when any reproduction verdict
/// (`bench::Verdict`) failed.
#define HSIS_BENCH_MAIN(print_fn)                                   \
  int main(int argc, char** argv) {                                 \
    ::hsis::bench::ConsumeFlags(&argc, argv);                       \
    print_fn();                                                     \
    ::benchmark::Initialize(&argc, argv);                           \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {     \
      return 1;                                                     \
    }                                                               \
    ::benchmark::RunSpecifiedBenchmarks();                          \
    ::benchmark::Shutdown();                                        \
    return ::hsis::bench::VerdictExitCode();                        \
  }

namespace hsis::bench {

inline void PrintRule(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n\n");
}

/// The flags every bench reads (`ConsumeFlags`).
struct BenchFlags {
  /// `--threads=N` (default 1 = serial; 0 resolves to hardware
  /// concurrency), forwarded into the parallel engine of
  /// common/parallel.h.
  int threads = 1;
  /// `--shards=K` (default 1; 0 resolves to 1), forwarded into the
  /// sharded sweep subsystem of common/shard.h by the benches that
  /// support shard mode.
  int shards = 1;
  /// `--speedup`: benches supporting it time a serial-vs-parallel
  /// comparison instead of the paper reproduction.
  bool speedup = false;
  /// `--schedule`: sharded benches run their shards under the
  /// fault-tolerant `ShardScheduler` (common/scheduler.h) instead of a
  /// serial in-order loop.
  bool schedule = false;
  /// `--workers=N`, `--max-retries=R` and `--shard-timeout-ms=T`
  /// (`common::ScheduleFlags`) for `--schedule` runs.
  common::ShardScheduleOptions schedule_options;
  /// `--min-speedup=X` (default 0 = report only): the floor bench_modexp
  /// and bench_query_service gate their speedup ratio on.
  double min_speedup = 0;
  /// `--json=PATH`, or "" when absent. Benches that measure a headline
  /// throughput write `common::PerfRecord` lines there via
  /// `WriteJsonRecord` so CI and EXPERIMENTS.md tooling can track
  /// cells/sec across commits without scraping stdout.
  std::string json_path;
};

namespace internal {
struct State {
  BenchFlags flags;
  std::string json_lines;  // accumulated records; file rewritten per call
  bool verdict_failed = false;
};
inline State& GetState() {
  static State state;
  return state;
}
}  // namespace internal

/// The bench flags `ConsumeFlags` read.
inline const BenchFlags& Flags() { return internal::GetState().flags; }

/// Records one reproduction verdict and returns `ok`, so a bench prints
/// it as `Verdict(ok) ? "REPRODUCED" : "MISMATCH"`. One failed verdict
/// makes the bench exit 1 (`VerdictExitCode`).
inline bool Verdict(bool ok) {
  if (!ok) internal::GetState().verdict_failed = true;
  return ok;
}

/// The bench's exit status: 0 when every verdict held, else 1.
inline int VerdictExitCode() {
  return internal::GetState().verdict_failed ? 1 : 0;
}

/// Fills `rows` with `row_at(i)` for every i in [0, count), on `threads`
/// workers in 256-row tiles of `common::ParallelForTiles`: the loop the
/// figure benches run around the row kernels of game/kernel.h, slot i
/// holding row i for every thread count.
template <typename Row, typename RowAt>
void KernelRows(size_t count, int threads, std::vector<Row>& rows,
                RowAt row_at) {
  rows.resize(count);
  common::ParallelForTiles(threads, count, 256, [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) rows[k] = row_at(k);
  });
}

/// Aborts the bench with the status message when a library call that
/// the reproduction depends on fails.
inline void CheckOk(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(1);
}

/// `git describe --always --dirty` of the built tree, stamped in by the
/// build (bench/CMakeLists.txt); "unknown" when built outside git.
inline const char* GitDescribe() {
#ifdef HSIS_GIT_DESCRIBE
  return HSIS_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

namespace internal {

/// Stamps `record` with the build's git describe, appends it to
/// `Flags().json_path` and rewrites the file with every record
/// accumulated so far (so the artifact is a complete JSON-lines file
/// after each call, and one bench invocation can emit several records).
/// No-op when `--json` was not passed. Aborts on an invalid record or
/// unwritable path so CI smoke runs fail loudly instead of silently
/// producing no artifact.
inline void AppendJsonRecord(common::PerfRecord record) {
  State& state = GetState();
  if (state.flags.json_path.empty()) return;
  record.git_describe = GitDescribe();
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "--json: %s\n", status.ToString().c_str());
    std::exit(1);
  };
  if (Status s = record.Validate(); !s.ok()) fail(s);
  state.json_lines += common::PerfRecordToJson(record);
  if (Status s = hsis::WriteFile(state.flags.json_path, state.json_lines);
      !s.ok()) {
    fail(s);
  }
  std::printf("wrote perf record -> %s\n", state.flags.json_path.c_str());
}

}  // namespace internal

/// Writes one hsis-bench-v1 record (see `internal::AppendJsonRecord`)
/// with the record's default `lane`, "scalar": the figure kernels have
/// no other lane (DESIGN.md §6.7).
inline void WriteJsonRecord(const char* bench, int threads,
                            double cells_per_sec, double wall_ms) {
  common::PerfRecord record;
  record.bench = bench;
  record.threads = threads;
  record.cells_per_sec = cells_per_sec;
  record.wall_ms = wall_ms;
  internal::AppendJsonRecord(std::move(record));
}

/// `WriteJsonRecord` variant for benches that compare algorithm
/// variants of one code path (e.g. bench_modexp's naive-vs-windowed
/// ladders): stamps the record's optional `algo` field. `lane` names
/// the figure-kernel lane (§6.7), so a modexp batch lane such as
/// "avx512-ifma" goes in `algo`.
inline void WriteJsonRecordAlgo(const char* bench, int threads,
                                const char* algo, double cells_per_sec,
                                double wall_ms) {
  common::PerfRecord record;
  record.bench = bench;
  record.threads = threads;
  record.algo = algo;
  record.cells_per_sec = cells_per_sec;
  record.wall_ms = wall_ms;
  internal::AppendJsonRecord(std::move(record));
}

/// The bench flag table: the `BenchFlags` entries, then a bench's own
/// `extra` entries.
inline std::vector<common::Flag> BenchFlagTable(
    std::vector<common::Flag> extra = {}) {
  BenchFlags& flags = internal::GetState().flags;
  std::vector<common::Flag> table =
      common::ScheduleFlags(&flags.schedule_options);
  table.insert(table.end(),
               {common::ThreadsFlag(&flags.threads),
                common::ShardsFlag(&flags.shards),
                common::SwitchFlag("--speedup", &flags.speedup),
                common::SwitchFlag("--schedule", &flags.schedule),
                common::NumberFlag("--min-speedup", 0,
                                   std::numeric_limits<double>::max(),
                                   &flags.min_speedup),
                common::TextFlag("--json", &flags.json_path)});
  table.insert(table.end(), extra.begin(), extra.end());
  return table;
}

/// Reads the bench flag table (`BenchFlagTable`) in one argv-order pass
/// (common/flags.h) and leaves the arguments it did not consume in argv
/// for google-benchmark; called by HSIS_BENCH_MAIN before anything
/// else. A rejected value prints its InvalidArgument status and exits 2.
inline void ConsumeFlags(int* argc, char** argv,
                         std::vector<common::Flag> extra = {}) {
  int out = 1;
  common::ReadFlags(*argc, argv, BenchFlagTable(std::move(extra)),
                    [&](char* arg) { argv[out++] = arg; });
  *argc = out;
}

}  // namespace hsis::bench

#endif  // HSIS_BENCH_BENCH_UTIL_H_
