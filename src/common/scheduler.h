#ifndef HSIS_COMMON_SCHEDULER_H_
#define HSIS_COMMON_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/perf_record.h"
#include "common/result.h"
#include "common/shard.h"

/// \file
/// \brief The shard supervisor: one fault policy for sharded sweeps
/// (`ShardLeaseTable`) and its in-process driver (`ShardScheduler`).
///
/// `common/shard.h` gives a sharded run crash-safe commit semantics
/// (payload first, manifest last) and a merge that names exactly which
/// shard to re-run. This header closes the loop. `ShardLeaseTable` is
/// the whole fault policy: every attempt of a shard holds a
/// time-bounded lease, and every way an attempt can end — a reported
/// exit, a lease expiry, a completion claim — is classified with the
/// `ValidateShard` taxonomy. It has two drivers:
///
///  * `ShardScheduler` (here) pushes attempts into a bounded pool of
///    workers it starts itself through a pluggable `ShardExecutor`
///    (separate `shard_worker` processes, or in-process threads); a
///    per-attempt timeout is the lease expiry;
///  * `SweepService` (common/sweep_service.h) hands the same leases to
///    pull-based workers over TCP.
///
/// Completed shards are **never recomputed**: the table's startup scan
/// treats every manifest-committed shard as done, so a killed run
/// resumes where it left off, and the final `MergeShards` output stays
/// byte-identical to the serial run.
///
/// Failure policy, by `ValidateShard` status after an attempt (the
/// job's own exit status is advisory — the committed files are the
/// truth). One verdict step maps it wherever a shard is judged: the
/// startup scan, a lease expiry, `Release` and `Complete`:
///
///  * OK                  — shard complete, even if the job crashed
///                          after committing;
///  * NotFound            — the attempt never committed: re-run after
///                          capped exponential backoff;
///  * IntegrityViolation  — corrupt payload or manifest: quarantine the
///                          files under `quarantine/`, then re-run;
///  * InvalidArgument     — the directory contradicts the plan: an
///                          operator error no retry can fix — fail
///                          fast.
///
/// A shard that fails `max_attempts` times fails the whole run.
///
/// \par Usage
/// \code
///   ShardPlanInfo info = ReadShardPlan(dir).value();
///   ShardScheduleOptions options;
///   options.workers = 4;
///   options.max_attempts = 3;
///   options.shard_timeout_ms = 60000;
///   ShardScheduler scheduler(
///       info, dir, MakeProcessShardExecutor(worker_binary, dir), options);
///   ShardScheduleSummary summary = scheduler.Run().value();
///   Bytes merged = MergeShards(dir, info.sweep).value();  // == serial
/// \endcode

namespace hsis::common {

/// Backoff delay before the next attempt after `attempts_so_far`
/// attempts: `initial_ms * 2^(attempts_so_far - 1)` saturated at
/// `max_ms`. Doubling is overflow-safe — once the value passes
/// `max_ms / 2` (or the int64 range would overflow), it saturates to
/// `max_ms` instead of wrapping, so `max_ms` near INT64_MAX is safe.
/// `initial_ms == 0` disables backoff (returns 0).
int64_t BackoffDelayMs(int64_t initial_ms, int64_t max_ms,
                       int attempts_so_far);

/// Path of the quarantine subdirectory inside results directory `dir`;
/// corrupt shard files are moved there as
/// `shard-<k>.q<N>.{bin,manifest}` instead of being deleted, so
/// post-mortems keep their evidence.
std::string ShardQuarantineDir(const std::string& dir);

/// Lease-policy knobs of a `ShardLeaseTable`.
struct SweepLeaseOptions {
  /// Lease duration in milliseconds: the holder must complete or
  /// heartbeat within this budget or the shard is reclaimed. Size it
  /// to a small multiple of one shard's compute time (>= 1). Deadlines
  /// saturate, so INT64_MAX means "never expires".
  int64_t lease_ms = 30000;
  /// Grant cap per shard (first grant + re-grants, >= 1); a shard
  /// whose attempts are exhausted fails the whole run.
  int max_attempts = 3;
  /// Poll delay suggested to workers when every pending shard is
  /// leased or backing off (>= 1).
  int64_t retry_ms = 200;
  /// Backoff before re-granting a shard whose attempt failed:
  /// `BackoffDelayMs(backoff_initial_ms, backoff_max_ms, attempts)`.
  /// 0 disables backoff.
  int64_t backoff_initial_ms = 100;
  /// Upper bound of the re-grant backoff in milliseconds.
  int64_t backoff_max_ms = 5000;
};

/// A granted lease, as the table reports it (the daemon adds the plan
/// identity fields when it serializes the `lease-grant` frame).
struct SweepGrant {
  uint64_t lease_id = 0;  ///< Unique per grant, never reused.
  int shard = 0;          ///< Leased shard index.
  ShardRange range;       ///< Global index range of the shard.
  int attempt = 1;        ///< 1-based grant count for this shard.
};

/// Why no lease was granted: the sweep is drained (exit) or every
/// pending shard is currently leased or backing off (poll again).
struct SweepNoGrant {
  bool drained = false;   ///< True once every shard is committed.
  int64_t retry_ms = 0;   ///< Suggested poll delay when not drained.
};

/// Outcome of a completion report.
struct SweepCompleteOutcome {
  bool duplicate = false;  ///< True when the shard was already committed.
  int committed = 0;       ///< Committed shards after this report.
};

/// Progress counters of a lease table; the scheduler's summary and the
/// daemon's wire-level snapshot (`SweepStatusReply`) are derived from
/// this.
struct SweepServiceStats {
  int shards = 0;       ///< Shard count of the plan.
  int committed = 0;    ///< Shards committed (including resumed).
  int leased = 0;       ///< Shards currently under lease.
  int pending = 0;      ///< Shards waiting (or backing off) for a grant.
  int resumed = 0;      ///< Shards already committed at startup.
  int retries = 0;      ///< Grants beyond each shard's first.
  int expired = 0;      ///< Leases reclaimed at their deadline.
  int quarantined = 0;  ///< Corrupt files moved to quarantine/.
  int failed_reports = 0;  ///< Attempts that ended with a non-OK status.
};

/// The shard fault policy: a pure lease state machine over one results
/// directory. Not thread-safe — the daemon serializes access with a
/// mutex, the scheduler is single-threaded, and tests drive it directly
/// with a fake clock. Every public call takes the caller's clock
/// reading `now_ms` (any monotonic millisecond scale) and internally
/// reclaims expired leases first, so no call ever observes a stale
/// lease.
class ShardLeaseTable {
 public:
  /// Binds a table to the run described by `info` (the parsed
  /// `plan.manifest`) over results directory `dir` and runs the startup
  /// scan: committed shards resume as done, corrupt shards are
  /// quarantined, a shard contradicting the plan refuses service with
  /// InvalidArgument. `on_event` (optional) receives one human-readable
  /// line per state transition — grants, renewals, completions,
  /// expiries, quarantines — for the daemon's event log.
  static Result<ShardLeaseTable> Create(
      ShardPlanInfo info, std::string dir, SweepLeaseOptions options,
      std::function<void(const std::string&)> on_event = nullptr);

  /// Grants the lowest-numbered ready pending shard to `worker`, or
  /// explains why nothing is grantable (`SweepNoGrant`). Errors: the
  /// terminal run status once the run has failed (attempt exhaustion
  /// or a plan contradiction) — pollers learn the run is dead instead
  /// of spinning forever.
  Result<std::variant<SweepGrant, SweepNoGrant>> Acquire(
      const std::string& worker, int64_t now_ms);

  /// Renews lease `lease_id` on `shard`, moving its deadline to
  /// `now_ms + lease_ms`; returns the granted duration. Errors:
  /// NotFound when the lease is unknown or already reclaimed (the
  /// worker must abandon the shard — its next Complete may still be
  /// accepted idempotently), InvalidArgument when `shard` does not
  /// match the lease (a confused worker).
  Result<int64_t> Renew(uint64_t lease_id, int shard, int64_t now_ms);

  /// Accepts a completion report for `shard`: judges its files by the
  /// failure policy above and cross-checks the worker-reported manifest
  /// digest `payload_sha256`. Idempotent: completing an
  /// already-committed shard with a matching digest is acknowledged as
  /// a duplicate (the expected outcome when a lease expired but the
  /// original worker finished anyway — pure sweeps write identical
  /// bytes). `lease_id` may be stale: a claim from a worker without the
  /// lease fails no attempt, and quarantines nothing while another
  /// worker holds it. Errors: NotFound (nothing committed — usually a
  /// worker writing to the wrong `--out`), IntegrityViolation (corrupt
  /// files, or a digest disagreeing with a valid commit, which stands),
  /// InvalidArgument (the files contradict the plan), Internal (the
  /// run already failed).
  Result<SweepCompleteOutcome> Complete(uint64_t lease_id, int shard,
                                        const std::string& payload_sha256,
                                        int64_t now_ms);

  /// Ends the attempt holding lease `lease_id`: releases the lease and
  /// judges `shard` by its files and the failure policy above, whatever
  /// the attempt's own `outcome` says. A non-OK `outcome` counts in
  /// `failed_reports` and becomes the failure's message. Returns
  /// whether the shard will be retried. NotFound when the lease is
  /// unknown or already reclaimed (the expiry sweep got there first —
  /// nothing further to do).
  Result<bool> Release(uint64_t lease_id, int shard, const Status& outcome,
                       int64_t now_ms);

  /// `Release` for a worker-reported failure (the daemon's `fail`
  /// frame): the outcome is `Internal(message)`.
  Result<bool> ReportFailure(uint64_t lease_id, int shard,
                             const std::string& message, int64_t now_ms) {
    return Release(lease_id, shard, Status::Internal(message), now_ms);
  }

  /// Reclaims every lease whose deadline has passed and returns how
  /// many were reclaimed, appending their ids to `reclaimed_ids` when
  /// given (a driver that owns the attempts kills them). Each reclaimed
  /// shard is judged by its files and the failure policy above. Called
  /// internally by every other mutator, and periodically by the drivers
  /// so reclaim latency is bounded by their poll, not by worker traffic.
  int ExpireLeases(int64_t now_ms,
                   std::vector<uint64_t>* reclaimed_ids = nullptr);

  /// True once every shard is committed.
  bool drained() const;

  /// OK while the run is healthy; the terminal InvalidArgument /
  /// Internal status once it has failed. A failed run stops granting
  /// but keeps every committed shard on disk for a later resume.
  const Status& run_status() const { return run_status_; }

  /// Progress counters snapshot (`committed`/`leased`/`pending` are
  /// derived from the current shard states; the rest are monotonic).
  SweepServiceStats stats() const;

  /// The plan this table serves.
  const ShardPlanInfo& info() const { return info_; }

  /// Per-shard grant counts (resumed shards report 0).
  const std::vector<int>& attempts() const { return attempts_; }

 private:
  enum class ShardState { kPending, kLeased, kCommitted, kFailed };

  /// Where a shard is judged: it picks what a verdict other than a
  /// commit does (DESIGN.md §6.4).
  enum class Judging {
    kStartup,      ///< the startup scan: no attempt has run
    kAttemptEnd,   ///< the holder's attempt ended: expiry or `Release`
    kHolderClaim,  ///< the holder's own `Complete`
    kOtherClaim,   ///< a `Complete` from a worker without the lease
  };

  struct Lease {
    int shard = 0;
    std::string worker;
    int64_t deadline_ms = 0;
  };

  ShardLeaseTable(ShardPlanInfo info, std::string dir,
                  SweepLeaseOptions options,
                  std::function<void(const std::string&)> on_event);

  void Emit(const std::string& line);
  /// Moves `shard`'s files to the next free `shard-<k>.q<N>.*` tag,
  /// counting each file moved.
  Status Quarantine(int shard);
  /// Marks `shard` committed, caching its verified manifest's digest.
  void MarkCommitted(int shard, const std::string& digest, const char* how);
  /// One attempt of `shard` ended without a commit: re-queue with
  /// backoff, or fail the run when attempts are exhausted.
  void AttemptFailed(int shard, const Status& why, int64_t now_ms);
  /// The active lease on `shard`, or `leases_.end()`.
  std::map<uint64_t, Lease>::iterator LeaseOn(int shard);
  /// The one verdict step: judges `shard` with `ValidateShard` and makes
  /// the verdict's transition; `why` names how a kAttemptEnd attempt
  /// ended. At kStartup a refusal or a failed quarantine becomes
  /// `run_status_`. Returns the verdict.
  Result<ShardManifest> Judge(int shard, Judging judging,
                              const std::string& why, int64_t now_ms);

  ShardPlanInfo info_;
  std::string dir_;
  SweepLeaseOptions options_;
  std::function<void(const std::string&)> on_event_;
  ShardPlan plan_;

  std::vector<ShardState> states_;
  std::vector<int> attempts_;
  std::vector<int64_t> ready_at_ms_;       // backoff gate per shard
  std::vector<std::string> manifest_sha_;  // cached digest once committed
  std::map<uint64_t, Lease> leases_;       // active leases by id
  uint64_t next_lease_id_ = 1;
  int quarantine_seq_ = 0;
  Status run_status_;
  SweepServiceStats stats_;
};

/// Launches and observes shard jobs on behalf of the scheduler. One
/// executor instance serves one results directory; jobs are identified
/// by the handle `Start` returns. Implementations decide what a "job"
/// is — a forked `shard_worker` process, an in-process thread — but
/// must keep `Poll` non-blocking.
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;

  /// Starts one attempt of shard `shard`; returns an opaque job handle.
  /// Failure to even launch (e.g. fork failure) is an error here; the
  /// scheduler counts it as a failed attempt.
  virtual Result<int> Start(int shard) = 0;

  /// Non-blocking completion check for `job`. Returns false while the
  /// job is still running; once it has finished, returns true and
  /// writes the job's own exit status (OK for a clean exit) to
  /// `status`. A finished handle must not be polled again.
  virtual bool Poll(int job, Status* status) = 0;

  /// Requests termination of a running `job` (timeout enforcement).
  /// `Poll` still reports the job's eventual completion. Process
  /// executors SIGKILL; in-process executors raise the job's
  /// cancellation flag and wait for it to be honored.
  virtual void Kill(int job) = 0;
};

/// Creates an executor that runs each shard attempt as a separate
/// process: `binary --shard=<k> --out=<dir> --threads=<threads>` (the
/// `shard_worker` CLI contract). `Kill` delivers SIGKILL, so hung or
/// runaway workers are reclaimed; the interrupted attempt can never
/// look complete because the manifest is written last.
std::unique_ptr<ShardExecutor> MakeProcessShardExecutor(std::string binary,
                                                        std::string dir,
                                                        int threads = 1);

/// An in-process shard job: computes shard `shard` and returns its
/// status. Must poll `cancelled` at reasonable intervals and return
/// promptly once it is set — that is the in-process analogue of
/// SIGKILL, used for timeout enforcement.
using InProcessShardJob =
    std::function<Status(int shard, const std::atomic<bool>& cancelled)>;

/// Creates an executor that runs each shard attempt as `job` on a
/// dedicated in-process thread. The fault-injection seam for tests, and
/// the executor of choice for single-binary drivers.
std::unique_ptr<ShardExecutor> MakeInProcessShardExecutor(
    InProcessShardJob job);

/// Creates an in-process executor whose jobs run `ShardRunner(spec,
/// plan).Run(shard, dir, threads)` — the single-binary scheduling path
/// used by `export_landscapes --shards=K --schedule`. The jobs ignore
/// cancellation (shard records are finite computations), so `Kill`
/// waits for the attempt to finish; a timed-out attempt still counts
/// as failed and is re-run.
std::unique_ptr<ShardExecutor> MakeRunnerShardExecutor(ShardSweepSpec spec,
                                                       ShardPlan plan,
                                                       std::string dir,
                                                       int threads = 1);

/// Tuning knobs of a scheduled run. The defaults suit in-process use;
/// multi-process drivers usually raise `workers` and set a timeout.
/// `Run` validates `workers` and `shard_timeout_ms` (which becomes
/// `lease_ms`); every other field is the `SweepLeaseOptions` field of
/// the same name and is validated there.
struct ShardScheduleOptions {
  /// Maximum number of concurrently running shard jobs (>= 1).
  int workers = 1;
  /// Per-shard attempt cap (first attempt + retries, >= 1).
  int max_attempts = 3;
  /// Wall-clock limit per attempt in milliseconds; a job running longer
  /// is killed and the attempt counts as failed. 0 = no limit; must be
  /// >= 0.
  int64_t shard_timeout_ms = 0;
  /// Backoff before retry attempt `a` is `backoff_initial_ms *
  /// 2^(a-2)`, capped at `backoff_max_ms` (so the first retry waits
  /// `backoff_initial_ms`). 0 disables backoff.
  int64_t backoff_initial_ms = 100;
  /// Upper bound of the exponential backoff in milliseconds.
  int64_t backoff_max_ms = 5000;
};

/// The `--max-retries=R` flag (common/flags.h): R in [0, INT_MAX - 1]
/// retries, stored as the attempt cap `1 + R` in `*max_attempts`.
Flag MaxRetriesFlag(int* max_attempts);

/// The scheduler's three flags into `*options`: `--workers=N` (read by
/// `ParseThreadsValue`), `--max-retries=R` (`MaxRetriesFlag`) and
/// `--shard-timeout-ms=T` (T in [0, INT_MAX]).
std::vector<Flag> ScheduleFlags(ShardScheduleOptions* options);

/// What a scheduled run did, shard by shard — the machine-readable
/// counterpart is `ToScheduleRecord` + `ScheduleRecordToJson`
/// (common/perf_record.h), which CI asserts on.
struct ShardScheduleSummary {
  std::string sweep;          ///< Sweep name from the plan manifest.
  int shards = 0;             ///< Shard count of the plan.
  int resumed = 0;            ///< Shards already committed at startup.
  int retries = 0;            ///< Attempts beyond each shard's first.
  int quarantined = 0;        ///< Corrupt files moved to `quarantine/`.
  int timeouts = 0;           ///< Attempts killed for exceeding the timeout.
  std::vector<int> attempts;  ///< Attempts per shard this run (resumed = 0).
  double wall_ms = 0;         ///< Wall-clock time of the scheduled run.
};

/// Converts a run summary to its serializable `hsis-schedule-v1` form.
ScheduleRecord ToScheduleRecord(const ShardScheduleSummary& summary);

/// Drives one sharded run to completion through a `ShardLeaseTable`:
/// each executor job holds a lease for its attempt. Single-threaded
/// control loop; all parallelism lives in the executor's jobs. Use
/// once and discard.
class ShardScheduler {
 public:
  /// Binds the scheduler to the run described by `info` (normally the
  /// parsed `plan.manifest`) over results directory `dir`, dispatching
  /// through `executor` under `options`.
  ShardScheduler(ShardPlanInfo info, std::string dir,
                 std::unique_ptr<ShardExecutor> executor,
                 ShardScheduleOptions options);

  /// Drives every shard of the plan to the committed state and returns
  /// the run summary. Resumable and idempotent: committed shards are
  /// detected in the table's startup scan and skipped; corrupt shards
  /// are quarantined and re-run; a clean directory runs everything.
  /// A job that outlives its lease is killed, and holds its worker slot
  /// until it is reaped. Errors:
  ///
  ///  * InvalidArgument — bad options, a plan/`info` contradiction, or
  ///    a shard whose committed files contradict the plan (fail fast —
  ///    no retry can fix an operator error);
  ///  * Internal — some shard exhausted `max_attempts`; the message
  ///    names the shard and the last failure, so the operator can fix
  ///    the cause and re-run the same command to resume.
  ///
  /// On error, running jobs are killed (and reaped) before returning.
  Result<ShardScheduleSummary> Run();

 private:
  ShardPlanInfo info_;
  std::string dir_;
  std::unique_ptr<ShardExecutor> executor_;
  ShardScheduleOptions options_;
};

}  // namespace hsis::common

#endif  // HSIS_COMMON_SCHEDULER_H_
