#ifndef HSIS_BENCH_BENCH_UTIL_H_
#define HSIS_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/file.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/perf_record.h"
#include "common/shard.h"

/// Shared main() for all reproduction benches: strip the hsis-specific
/// flags (`--threads=N`, `--speedup`, `--shards=K`, `--schedule`,
/// `--workers=N`, `--max-retries=R`, `--shard-timeout-ms=T`,
/// `--min-speedup=X`, `--json=PATH`), print the paper artifact first
/// (tables/series
/// exactly as DESIGN.md §4 specifies), then run the google-benchmark
/// timings registered by the binary. Exits 1 when any reproduction
/// verdict (`bench::Verdict`) failed.
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

namespace internal {
inline int& ThreadsStorage() {
  static int threads = 1;  // serial-compatible default; flags resolve 0
  return threads;
}
inline int& ShardsStorage() {
  static int shards = 1;  // single-shard default
  return shards;
}
inline bool& SpeedupStorage() {
  static bool speedup = false;
  return speedup;
}
inline std::string& JsonPathStorage() {
  static std::string path;  // empty = no machine-readable output requested
  return path;
}
inline std::string& JsonLinesStorage() {
  static std::string lines;  // accumulated records; file rewritten per call
  return lines;
}
inline double& MinSpeedupStorage() {
  static double min_speedup = 0;  // 0 = report only, no enforcement
  return min_speedup;
}
inline bool& ScheduleStorage() {
  static bool schedule = false;
  return schedule;
}
inline int& WorkersStorage() {
  static int workers = 1;
  return workers;
}
inline int& MaxRetriesStorage() {
  static int retries = 2;
  return retries;
}
inline long& ShardTimeoutMsStorage() {
  static long timeout_ms = 0;  // 0 = no per-shard timeout
  return timeout_ms;
}
inline bool& VerdictFailedStorage() {
  static bool failed = false;
  return failed;
}
}  // namespace internal

/// Records one reproduction verdict and returns `ok`, so a bench prints
/// it as `Verdict(ok) ? "REPRODUCED" : "MISMATCH"`. One failed verdict
/// makes the bench exit 1 (`VerdictExitCode`).
inline bool Verdict(bool ok) {
  if (!ok) internal::VerdictFailedStorage() = true;
  return ok;
}

/// The bench's exit status: 0 when every verdict held, else 1.
inline int VerdictExitCode() {
  return internal::VerdictFailedStorage() ? 1 : 0;
}

/// The resolved `--threads=N` flag value (default 1 = serial;
/// `--threads=0` resolves to hardware concurrency at parse time),
/// forwarded by the sweep benches into the parallel engine of
/// common/parallel.h.
inline int Threads() { return internal::ThreadsStorage(); }

/// The resolved `--shards=K` flag value (default 1; `--shards=0`
/// resolves to 1), forwarded into the sharded sweep subsystem of
/// common/shard.h by the benches that support shard mode.
inline int Shards() { return internal::ShardsStorage(); }

/// Whether `--speedup` was passed: benches supporting it time a
/// serial-vs-parallel comparison instead of the paper reproduction.
inline bool SpeedupRequested() { return internal::SpeedupStorage(); }

/// Whether `--schedule` was passed: sharded benches run their shards
/// under the fault-tolerant `ShardScheduler` (common/scheduler.h)
/// instead of a serial in-order loop.
inline bool ScheduleRequested() { return internal::ScheduleStorage(); }

/// The resolved `--workers=N` flag (default 1; 0 resolves to hardware
/// concurrency): concurrent shard jobs for `--schedule` runs.
inline int Workers() { return internal::WorkersStorage(); }

/// The `--max-retries=R` flag (default 2): extra attempts the scheduler
/// grants a failing shard before giving up.
inline int MaxRetries() { return internal::MaxRetriesStorage(); }

/// The `--shard-timeout-ms=T` flag (default 0 = unlimited): wall-clock
/// budget per shard attempt under `--schedule`.
inline long ShardTimeoutMs() { return internal::ShardTimeoutMsStorage(); }

/// The `--json=PATH` flag value, or "" when absent. Benches that
/// measure a headline throughput write `common::PerfRecord` lines there
/// via `WriteJsonRecord` so CI and EXPERIMENTS.md tooling can track
/// cells/sec across commits without scraping stdout.
inline const std::string& JsonPath() { return internal::JsonPathStorage(); }

/// The `--min-speedup=X` flag value (default 0 = report only).
/// bench_modexp gates its windowed-over-naive ratio on it.
inline double MinSpeedup() { return internal::MinSpeedupStorage(); }

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
/// `JsonPath()` and rewrites the file with every record accumulated so
/// far (so the artifact is a complete JSON-lines file after each call,
/// and one bench invocation can emit several records). No-op when
/// `--json` was not passed. Aborts on an invalid record or unwritable
/// path so CI smoke runs fail loudly instead of silently producing no
/// artifact.
inline void AppendJsonRecord(common::PerfRecord record) {
  if (JsonPathStorage().empty()) return;
  record.git_describe = GitDescribe();
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "--json: %s\n", status.ToString().c_str());
    std::exit(1);
  };
  if (Status s = record.Validate(); !s.ok()) fail(s);
  JsonLinesStorage() += common::PerfRecordToJson(record);
  if (Status s = hsis::WriteFile(JsonPathStorage(), JsonLinesStorage());
      !s.ok()) {
    fail(s);
  }
  std::printf("wrote perf record -> %s\n", JsonPathStorage().c_str());
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

/// Removes the hsis flags from argv so google-benchmark never sees
/// them; called by HSIS_BENCH_MAIN before anything else. Flag values
/// go through the one flag reader (common/flags.h): `--threads=0` /
/// `--shards=0` resolve to hardware concurrency / 1 shard, and a
/// rejected value prints its InvalidArgument status and exits 2.
inline void ConsumeFlags(int* argc, char** argv) {
  using hsis::common::FlagOrExit;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      internal::ThreadsStorage() =
          FlagOrExit(hsis::common::ParseThreadsValue(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      internal::ShardsStorage() =
          FlagOrExit(hsis::common::ParseShardsValue(argv[i] + 9));
    } else if (std::strcmp(argv[i], "--speedup") == 0) {
      internal::SpeedupStorage() = true;
    } else if (std::strcmp(argv[i], "--schedule") == 0) {
      internal::ScheduleStorage() = true;
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      internal::WorkersStorage() =
          FlagOrExit(hsis::common::ParseThreadsValue(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--max-retries=", 14) == 0) {
      internal::MaxRetriesStorage() =
          static_cast<int>(FlagOrExit(hsis::common::ParseIntFlag(
              "--max-retries", argv[i] + 14, 0, INT_MAX - 1)));
    } else if (std::strncmp(argv[i], "--shard-timeout-ms=", 19) == 0) {
      internal::ShardTimeoutMsStorage() = FlagOrExit(
          hsis::common::ParseIntFlag("--shard-timeout-ms", argv[i] + 19, 0,
                                     INT_MAX));
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      internal::MinSpeedupStorage() = FlagOrExit(hsis::common::ParseNumberFlag(
          "--min-speedup", argv[i] + 14, 0,
          std::numeric_limits<double>::max()));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      internal::JsonPathStorage() = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

}  // namespace hsis::bench

#endif  // HSIS_BENCH_BENCH_UTIL_H_
