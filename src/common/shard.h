#ifndef HSIS_COMMON_SHARD_H_
#define HSIS_COMMON_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/flags.h"
#include "common/result.h"

/// \file
/// \brief Multi-process sharding for `ParallelFor`-shaped sweeps.
///
/// A sweep is a pure function from a global index `i` in `[0, total)`
/// to a record of bytes; a `ShardPlan` partitions the range into K
/// contiguous shards, a `ShardRunner` executes one shard (in any
/// process, on any machine) and serializes its records plus a manifest
/// into a results directory, and `MergeShards` validates the manifests
/// and reassembles the concatenated records **bit-identical** to a
/// single-process serial run. Failed shards are recovered by re-running
/// only that shard; the merge detects missing, overlapping, duplicated,
/// and corrupt shard files with typed `Status` errors (see each
/// function's contract). `common/scheduler.h` automates the
/// detect-and-re-run loop.
///
/// \par Usage
/// \code
///   ShardSweepSpec spec;
///   spec.name = "squares";
///   spec.total = 1000;
///   spec.record = [](size_t i) -> Result<Bytes> {
///     return ToBytes(std::to_string(i * i) + "\n");
///   };
///   ShardPlan plan = ShardPlan::Create(spec.total, /*shards=*/4).value();
///   HSIS_RETURN_IF_ERROR(WriteShardPlan(spec, plan, dir));
///   ShardRunner runner(spec, plan);
///   for (int k = 0; k < plan.shards(); ++k) {     // any process, any order
///     HSIS_RETURN_IF_ERROR(runner.Run(k, dir));
///   }
///   Bytes merged = MergeShards(dir, spec.name).value();  // == serial bytes
/// \endcode

namespace hsis::common {

/// Contiguous half-open slice `[begin, end)` of a global index range.
struct ShardRange {
  size_t begin = 0;  ///< First index of the slice.
  size_t end = 0;    ///< One past the last index of the slice.

  /// Number of indices in the slice.
  size_t size() const { return end - begin; }

  /// Field-wise equality.
  friend bool operator==(const ShardRange& a, const ShardRange& b) {
    return a.begin == b.begin && a.end == b.end;
  }
};

/// Partition of `[0, total)` into `shards` contiguous slices that are
/// pairwise disjoint and cover the range exactly: shard `k` is
/// `[total*k/shards, total*(k+1)/shards)`. When `shards <= total` every
/// slice is non-empty; surplus shards beyond `total` are empty.
class ShardPlan {
 public:
  /// `shards` must be >= 1 (map a user-facing `--shards=0` to 1 via
  /// `ParseShardsValue` first); anything else is InvalidArgument.
  static Result<ShardPlan> Create(size_t total, int shards);

  /// Global index count partitioned by the plan.
  size_t total() const { return total_; }
  /// Number of shards in the partition.
  int shards() const { return shards_; }

  /// Slice of shard `shard` (0-based): `[total*k/K, total*(k+1)/K)`.
  /// Requires `0 <= shard < shards()`.
  ShardRange Range(int shard) const;

 private:
  ShardPlan(size_t total, int shards) : total_(total), shards_(shards) {}

  size_t total_ = 0;
  int shards_ = 1;
};

/// Resolves the value of a user-facing `--shards=` flag: an integer in
/// [0, INT_MAX] read by `ParseIntFlag` (common/flags.h), where "0"
/// selects a single shard; anything else is InvalidArgument. The
/// `--threads=` twin is `ParseThreadsValue` (common/parallel.h).
Result<int> ParseShardsValue(std::string_view value);

/// The `--shards=K` flag (common/flags.h) read by `ParseShardsValue`
/// into `*shards`.
Flag ShardsFlag(int* shards);

/// A sweep in sharded form: `record(i)` serializes the result of global
/// index `i` and must be a pure function of `i` (stochastic sweeps
/// derive their stream from `Rng::ForIndex(seed, i)`), so any partition
/// of the range reassembles to the same bytes.
struct ShardSweepSpec {
  /// Identifies the sweep; recorded in every manifest and validated at
  /// merge time so shards of different sweeps can never be mixed.
  std::string name;
  /// Global index count.
  size_t total = 0;
  /// Base seed recorded in the manifest (0 for deterministic sweeps).
  uint64_t seed = 0;
  /// Serialized record for global index `i`.
  std::function<Result<Bytes>(size_t)> record;
};

/// The plan manifest (`plan.manifest`) written once per results
/// directory before any shard runs; workers and the merge read it as
/// the authoritative description of the sharded sweep.
struct ShardPlanInfo {
  std::string sweep;  ///< Sweep name the directory belongs to.
  size_t total = 0;   ///< Global index count of the sweep.
  int shards = 1;     ///< Number of shards the range is split into.
  uint64_t seed = 0;  ///< Base seed (0 for deterministic sweeps).

  /// Field-wise equality.
  friend bool operator==(const ShardPlanInfo& a, const ShardPlanInfo& b) {
    return a.sweep == b.sweep && a.total == b.total && a.shards == b.shards &&
           a.seed == b.seed;
  }
};

/// Per-shard manifest (`shard-<k>.manifest`) committed after the
/// payload file: a shard without a valid manifest is treated as never
/// having run.
struct ShardManifest {
  std::string sweep;  ///< Sweep name, must match the plan's.
  int shard = 0;      ///< 0-based shard index this manifest commits.
  int shards = 1;     ///< Shard count of the plan the shard belongs to.
  size_t total = 0;   ///< Global index count of the plan.
  size_t begin = 0;   ///< First global index of the shard's range.
  size_t end = 0;     ///< One past the last global index of the range.
  uint64_t seed = 0;  ///< Base seed, must match the plan's.
  size_t records = 0; ///< Record count, must equal `end - begin`.
  /// Lowercase hex SHA-256 of the payload file bytes.
  std::string payload_sha256;

  /// Field-wise equality.
  friend bool operator==(const ShardManifest& a, const ShardManifest& b) {
    return a.sweep == b.sweep && a.shard == b.shard && a.shards == b.shards &&
           a.total == b.total && a.begin == b.begin && a.end == b.end &&
           a.seed == b.seed && a.records == b.records &&
           a.payload_sha256 == b.payload_sha256;
  }
};

/// Canonical location of the plan manifest inside results directory
/// `dir` (`dir/plan.manifest`).
std::string ShardPlanPath(const std::string& dir);

/// Canonical location of shard `shard`'s manifest inside `dir`
/// (`dir/shard-<k>.manifest`).
std::string ShardManifestPath(const std::string& dir, int shard);

/// Canonical location of shard `shard`'s payload inside `dir`
/// (`dir/shard-<k>.bin`).
std::string ShardPayloadPath(const std::string& dir, int shard);

/// Serializes the plan manifest as strict `key=value` text.
std::string SerializeShardPlanInfo(const ShardPlanInfo& info);

/// Strict inverse of `SerializeShardPlanInfo`: the version line must
/// match, every field must appear exactly once, and numbers must parse
/// exactly; violations are IntegrityViolation.
Result<ShardPlanInfo> ParseShardPlanInfo(std::string_view text);

/// Serializes a shard manifest as strict `key=value` text.
std::string SerializeShardManifest(const ShardManifest& manifest);

/// Strict inverse of `SerializeShardManifest`, same strictness contract
/// as `ParseShardPlanInfo`.
Result<ShardManifest> ParseShardManifest(std::string_view text);

/// Serializes a shard payload: magic + version + record count +
/// length-prefixed records.
Bytes SerializeShardPayload(const std::vector<Bytes>& records);

/// Strict inverse of `SerializeShardPayload`; fails with
/// IntegrityViolation on a bad magic, truncation, or trailing bytes.
Result<std::vector<Bytes>> ParseShardPayload(const Bytes& payload);

/// Writes `plan.manifest` for `spec` partitioned by `plan` into `dir`
/// (which must exist). Fails with InvalidArgument if `spec.total !=
/// plan.total()`.
Status WriteShardPlan(const ShardSweepSpec& spec, const ShardPlan& plan,
                      const std::string& dir);

/// Reads and parses `dir`'s plan manifest: NotFound when absent,
/// IntegrityViolation when corrupt.
Result<ShardPlanInfo> ReadShardPlan(const std::string& dir);

/// Computes records `[range.begin, range.end)` of `spec` with `threads`
/// workers (common/parallel.h knob) into ordered slots: slot k holds
/// `record(range.begin + k)`. On failure, the error of the smallest
/// failing index. A shard run and a whole in-process sweep both compute
/// their records here, so they produce the same bytes.
Result<std::vector<Bytes>> ComputeShardRecords(const ShardSweepSpec& spec,
                                               ShardRange range,
                                               int threads);

/// Executes single shards of a sweep. Stateless between calls: one
/// process can run one shard and exit, or loop over several.
class ShardRunner {
 public:
  /// Binds the runner to `spec` partitioned by `plan`; `spec.total`
  /// must equal `plan.total()` (checked at `Run` time).
  ShardRunner(ShardSweepSpec spec, ShardPlan plan);

  /// Computes every record in shard `shard`'s range with `threads`
  /// workers (common/parallel.h knob: 1 = serial, 0 = hardware) and
  /// writes `shard-<k>.bin` then `shard-<k>.manifest` into `dir`. The
  /// manifest is written last so an interrupted run never leaves a
  /// shard that looks complete. Record computation is deterministic per
  /// index, so every thread count yields the same bytes. `written`,
  /// when given, receives the manifest written.
  Status Run(int shard, const std::string& dir, int threads = 1,
             ShardManifest* written = nullptr) const;

  /// The sweep this runner computes.
  const ShardSweepSpec& spec() const { return spec_; }
  /// The partition this runner's shard indices refer to.
  const ShardPlan& plan() const { return plan_; }

 private:
  ShardSweepSpec spec_;
  ShardPlan plan_;
};

/// Reads and fully validates shard `shard` of the plan described by
/// `info` inside `dir`, returning its records in index order. This is
/// the per-shard half of `MergeShards`, exposed so supervisors
/// (`common/scheduler.h`) can classify a shard's state without merging
/// the whole directory; `manifest`, when given, receives the checked
/// manifest. Typed errors:
///
///  * NotFound            — manifest or payload file missing: the shard
///                          never ran (or never committed) — re-run it;
///  * IntegrityViolation  — corrupt manifest text, payload SHA-256
///                          mismatch (truncation / bit flips), bad
///                          payload framing, or record-count mismatch:
///                          quarantine the files and re-run;
///  * InvalidArgument     — a manifest that parses but contradicts the
///                          plan: wrong sweep name, shard count, total,
///                          seed, a duplicated shard file standing in
///                          for another shard, or a range that overlaps
///                          or leaves a gap — an operator error, not a
///                          transient fault; re-running cannot fix it.
Result<std::vector<Bytes>> ReadShardRecords(const ShardPlanInfo& info,
                                            const std::string& dir, int shard,
                                            ShardManifest* manifest = nullptr);

/// Validation-only form of `ReadShardRecords`: the manifest it checked
/// iff shard `shard` is committed in `dir` and consistent with `info`,
/// otherwise the same typed error taxonomy. A shard that passes here
/// contributes exactly its committed bytes to the merge and never needs
/// re-running.
Result<ShardManifest> ValidateShard(const ShardPlanInfo& info,
                                    const std::string& dir, int shard);

/// Validates the plan and every shard in `dir` and returns the record
/// payloads concatenated in global index order — byte-identical to a
/// serial single-process run emitting the same records. Per-shard
/// failures carry the `ReadShardRecords` taxonomy (NotFound /
/// IntegrityViolation / InvalidArgument), each message naming the shard
/// to re-run; a missing or corrupt plan manifest is NotFound /
/// IntegrityViolation respectively.
///
/// `expected_sweep`, when non-empty, must match the plan's sweep name
/// (InvalidArgument otherwise) — callers use it to refuse merging a
/// directory that holds some other sweep's shards.
Result<Bytes> MergeShards(const std::string& dir,
                          const std::string& expected_sweep = "");

}  // namespace hsis::common

#endif  // HSIS_COMMON_SHARD_H_
