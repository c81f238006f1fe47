#ifndef HSIS_COMMON_PERF_RECORD_H_
#define HSIS_COMMON_PERF_RECORD_H_

#include <string>
#include <string_view>

#include "common/result.h"

/// \file
/// \brief Machine-readable run records: bench throughput samples and
/// shard-schedule summaries.
///
/// Both record types serialize as a single flat JSON object per line so
/// shell tooling and CI checkers can parse them without a JSON library,
/// and both parse strictly (exact schema tag, no duplicate, missing, or
/// unknown keys) so a serialization regression fails loudly instead of
/// producing silently-wrong dashboards.
///
/// Each schema's layout is declared once, as a field table in
/// perf_record.cc: per key its JSON name, its kind (string, int or
/// double, given by the struct member it fills) and its presence —
/// required, optional with the struct's default (`lane`), or omitted
/// when empty (`algo`). One generic writer emits the schema tag and
/// then the table in order (`%.17g` doubles, JSON string escapes), and
/// one generic reader accepts the keys in any order, checks them
/// against the table and ends in the record's `Validate()`.
///
/// \par Usage
/// \code
///   PerfRecord record;
///   record.bench = "figure1_frequency_sweep";
///   record.threads = 8;
///   record.cells_per_sec = 4.2e7;
///   record.wall_ms = 0.48;
///   record.git_describe = "abc1234";
///   std::string line = PerfRecordToJson(record);     // one JSON line
///   PerfRecord back = ParsePerfRecord(line).value();  // strict inverse
/// \endcode

namespace hsis::common {

/// Schema tag stamped into every serialized bench record; bump when
/// fields change so downstream tooling can reject records it does not
/// understand.
inline constexpr const char* kPerfRecordSchema = "hsis-bench-v1";

/// A machine-readable benchmark measurement: one throughput sample of
/// one bench at one thread count, with enough provenance (git describe)
/// to compare runs across commits.
struct PerfRecord {
  std::string bench;        ///< Bench identifier, e.g. "figure1_frequency_sweep".
  int threads = 1;          ///< Worker threads used for the measurement.
  /// SIMD lane of the measured code path (common/simd_dispatch.h lane
  /// name: "scalar", "sse2", "avx2"). Defaults to "scalar" — the only
  /// lane that existed before records carried the field — so archived
  /// pre-lane artifacts parse unchanged.
  std::string lane = "scalar";
  /// Algorithm variant of the measured code path, e.g. "naive" vs
  /// "window4" for the modexp ladder comparison. Empty (the default)
  /// means the bench has a single algorithm and is omitted from the
  /// serialized record, so pre-PR-9 artifacts parse unchanged and
  /// round-trip byte-identically.
  std::string algo;
  double cells_per_sec = 0; ///< Sweep cells evaluated per second.
  double wall_ms = 0;       ///< Wall-clock time of the measured run.
  std::string git_describe; ///< `git describe --always --dirty` at build time.

  /// Checks the record is complete and physically sensible: non-empty
  /// bench, lane and git_describe, threads >= 1, cells_per_sec > 0 and
  /// wall_ms >= 0 (both finite).
  Status Validate() const;
};

/// Serializes to one line of JSON (trailing newline included):
///   {"schema":"hsis-bench-v1","bench":...,"threads":...,"lane":...,
///    "cells_per_sec":...,"wall_ms":...,"git_describe":...}
/// Numbers use %.17g so a parse round-trips bit-exactly.
std::string PerfRecordToJson(const PerfRecord& record);

/// Strict inverse of `PerfRecordToJson`: accepts exactly one flat JSON
/// object with the fields in any order (whitespace tolerated),
/// requires `"schema": "hsis-bench-v1"`, and rejects duplicate,
/// missing, or unknown keys. `lane` (absent in records written before
/// the SIMD lanes existed; defaults to "scalar") and `algo` (absent for
/// single-algorithm benches; defaults to empty) are the two optional
/// keys. The returned record additionally passes `Validate()`.
Result<PerfRecord> ParsePerfRecord(std::string_view json);

/// Schema tag of serialized shard-schedule summaries.
inline constexpr const char* kScheduleRecordSchema = "hsis-schedule-v1";

/// A machine-readable summary of one scheduled sharded run
/// (common/scheduler.h): how many shards resumed, how many attempts
/// each shard took, and what the fault handling did — the artifact CI
/// asserts on after a fault-injection run.
struct ScheduleRecord {
  std::string sweep;    ///< Sweep name from the plan manifest.
  int shards = 0;       ///< Shard count of the plan.
  int resumed = 0;      ///< Shards already committed at startup.
  int retries = 0;      ///< Attempts beyond each shard's first.
  int quarantined = 0;  ///< Corrupt files moved to quarantine.
  int timeouts = 0;     ///< Attempts killed for exceeding the timeout.
  /// Comma-joined attempts per shard in shard order, e.g. "1,2,0,1"
  /// (resumed shards report 0).
  std::string attempts;
  double wall_ms = 0;   ///< Wall-clock time of the scheduled run.

  /// Checks the record is complete and internally consistent: non-empty
  /// sweep, shards >= 1, all counters >= 0, finite wall_ms >= 0, and
  /// `attempts` holding exactly `shards` comma-separated non-negative
  /// integers whose beyond-first total equals `retries`.
  Status Validate() const;
};

/// Serializes to one line of flat JSON, `PerfRecordToJson` conventions
/// (schema tag first, trailing newline, %.17g numbers).
std::string ScheduleRecordToJson(const ScheduleRecord& record);

/// Strict inverse of `ScheduleRecordToJson`, same strictness contract
/// as `ParsePerfRecord`; the returned record additionally passes
/// `Validate()`.
Result<ScheduleRecord> ParseScheduleRecord(std::string_view json);

}  // namespace hsis::common

#endif  // HSIS_COMMON_PERF_RECORD_H_
