#include "common/scheduler.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <utility>

#include "common/file.h"
#include "common/parallel.h"

namespace hsis::common {

namespace {

using Clock = std::chrono::steady_clock;

/// Sleep between the scheduler's supervision passes when nothing moved.
constexpr int64_t kPollIntervalMs = 2;

/// `now_ms + delay_ms` for a non-negative delay, saturated at INT64_MAX
/// so "never" (an INT64_MAX lease or backoff) cannot overflow.
int64_t AddSaturating(int64_t now_ms, int64_t delay_ms) {
  constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
  return now_ms > kNever - delay_ms ? kNever : now_ms + delay_ms;
}

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

/// Runs each shard attempt as a forked child process executing
/// `binary --shard=<k> --out=<dir> --threads=<t>`. Poll reaps with
/// WNOHANG; Kill delivers SIGKILL (the child is reaped by a later
/// Poll).
class ProcessShardExecutor final : public ShardExecutor {
 public:
  ProcessShardExecutor(std::string binary, std::string dir, int threads)
      : binary_(std::move(binary)), dir_(std::move(dir)), threads_(threads) {}

  ~ProcessShardExecutor() override {
    // Never leak children: kill and reap anything still running.
    for (auto& [job, pid] : pids_) {
      ::kill(pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
    }
  }

  Result<int> Start(int shard) override {
    std::string shard_arg = "--shard=" + std::to_string(shard);
    std::string out_arg = "--out=" + dir_;
    std::string threads_arg = "--threads=" + std::to_string(threads_);
    char* argv[] = {binary_.data(), shard_arg.data(), out_arg.data(),
                    threads_arg.data(), nullptr};
    pid_t pid = ::fork();
    if (pid < 0) {
      return Status::Internal(std::string("fork failed: ") +
                              std::strerror(errno));
    }
    if (pid == 0) {
      ::execv(binary_.c_str(), argv);
      // Exec failed; exit without running atexit handlers of the
      // half-duplicated parent image.
      std::_Exit(127);
    }
    int job = next_job_++;
    pids_.emplace(job, pid);
    return job;
  }

  bool Poll(int job, Status* status) override {
    auto it = pids_.find(job);
    if (it == pids_.end()) {
      *status = Status::InvalidArgument("unknown job handle " +
                                        std::to_string(job));
      return true;
    }
    int wstatus = 0;
    pid_t reaped = ::waitpid(it->second, &wstatus, WNOHANG);
    if (reaped == 0) return false;
    pids_.erase(it);
    if (reaped < 0) {
      *status = Status::Internal(std::string("waitpid failed: ") +
                                 std::strerror(errno));
    } else if (WIFEXITED(wstatus)) {
      int code = WEXITSTATUS(wstatus);
      *status = code == 0 ? Status::OK()
                          : Status::Internal("worker exited with code " +
                                             std::to_string(code));
    } else if (WIFSIGNALED(wstatus)) {
      *status = Status::Internal("worker killed by signal " +
                                 std::to_string(WTERMSIG(wstatus)));
    } else {
      *status = Status::Internal("worker ended in unknown state");
    }
    return true;
  }

  void Kill(int job) override {
    auto it = pids_.find(job);
    if (it != pids_.end()) ::kill(it->second, SIGKILL);
  }

 private:
  std::string binary_;
  std::string dir_;
  int threads_ = 1;
  int next_job_ = 0;
  std::map<int, pid_t> pids_;
};

/// Runs each shard attempt as `job_` on a dedicated thread. Kill raises
/// the job's cancellation flag and joins — in-process jobs are required
/// to honor cancellation promptly (scheduler.h contract).
class InProcessShardExecutor final : public ShardExecutor {
 public:
  explicit InProcessShardExecutor(InProcessShardJob job)
      : job_(std::move(job)) {}

  ~InProcessShardExecutor() override {
    for (auto& [id, state] : jobs_) {
      state->cancelled.store(true, std::memory_order_relaxed);
      if (state->thread.joinable()) state->thread.join();
    }
  }

  Result<int> Start(int shard) override {
    if (!job_) return Status::InvalidArgument("executor has no job function");
    auto state = std::make_unique<JobState>();
    JobState* raw = state.get();
    raw->thread = std::thread([this, raw, shard] {
      Status result = job_(shard, raw->cancelled);
      raw->status = std::move(result);
      raw->done.store(true, std::memory_order_release);
    });
    int job = next_job_++;
    jobs_.emplace(job, std::move(state));
    return job;
  }

  bool Poll(int job, Status* status) override {
    auto it = jobs_.find(job);
    if (it == jobs_.end()) {
      *status = Status::InvalidArgument("unknown job handle " +
                                        std::to_string(job));
      return true;
    }
    if (!it->second->done.load(std::memory_order_acquire)) return false;
    if (it->second->thread.joinable()) it->second->thread.join();
    *status = it->second->status;
    jobs_.erase(it);
    return true;
  }

  void Kill(int job) override {
    auto it = jobs_.find(job);
    if (it == jobs_.end()) return;
    it->second->cancelled.store(true, std::memory_order_relaxed);
    if (it->second->thread.joinable()) it->second->thread.join();
  }

 private:
  struct JobState {
    std::atomic<bool> done{false};
    std::atomic<bool> cancelled{false};
    Status status;
    std::thread thread;
  };

  InProcessShardJob job_;
  int next_job_ = 0;
  std::map<int, std::unique_ptr<JobState>> jobs_;
};

}  // namespace

std::unique_ptr<ShardExecutor> MakeProcessShardExecutor(std::string binary,
                                                        std::string dir,
                                                        int threads) {
  return std::make_unique<ProcessShardExecutor>(std::move(binary),
                                                std::move(dir), threads);
}

std::unique_ptr<ShardExecutor> MakeInProcessShardExecutor(
    InProcessShardJob job) {
  return std::make_unique<InProcessShardExecutor>(std::move(job));
}

std::unique_ptr<ShardExecutor> MakeRunnerShardExecutor(ShardSweepSpec spec,
                                                       ShardPlan plan,
                                                       std::string dir,
                                                       int threads) {
  ShardRunner runner(std::move(spec), plan);
  return MakeInProcessShardExecutor(
      [runner = std::move(runner), dir = std::move(dir), threads](
          int shard, const std::atomic<bool>&) {
        return runner.Run(shard, dir, threads);
      });
}

ScheduleRecord ToScheduleRecord(const ShardScheduleSummary& summary) {
  ScheduleRecord record;
  record.sweep = summary.sweep;
  record.shards = summary.shards;
  record.resumed = summary.resumed;
  record.retries = summary.retries;
  record.quarantined = summary.quarantined;
  record.timeouts = summary.timeouts;
  for (size_t k = 0; k < summary.attempts.size(); ++k) {
    if (k > 0) record.attempts += ',';
    record.attempts += std::to_string(summary.attempts[k]);
  }
  record.wall_ms = summary.wall_ms;
  return record;
}

std::string ShardQuarantineDir(const std::string& dir) {
  return dir + "/quarantine";
}

int64_t BackoffDelayMs(int64_t initial_ms, int64_t max_ms,
                       int attempts_so_far) {
  if (initial_ms == 0) return 0;
  int64_t ms = initial_ms;
  for (int i = 1; i < attempts_so_far && ms < max_ms; ++i) {
    // Saturate before doubling: past max_ms / 2 the next doubling would
    // exceed the cap anyway, and near INT64_MAX it would overflow (UB)
    // into a negative delay.
    if (ms > max_ms / 2) {
      ms = max_ms;
    } else {
      ms *= 2;
    }
  }
  return ms < max_ms ? ms : max_ms;
}

ShardLeaseTable::ShardLeaseTable(
    ShardPlanInfo info, std::string dir, SweepLeaseOptions options,
    std::function<void(const std::string&)> on_event)
    : info_(std::move(info)),
      dir_(std::move(dir)),
      options_(options),
      on_event_(std::move(on_event)),
      plan_(ShardPlan::Create(info_.total, info_.shards).value()),
      states_(static_cast<size_t>(info_.shards), ShardState::kPending),
      attempts_(static_cast<size_t>(info_.shards), 0),
      ready_at_ms_(static_cast<size_t>(info_.shards), 0),
      manifest_sha_(static_cast<size_t>(info_.shards)) {}

Result<ShardLeaseTable> ShardLeaseTable::Create(
    ShardPlanInfo info, std::string dir, SweepLeaseOptions options,
    std::function<void(const std::string&)> on_event) {
  if (options.lease_ms < 1) {
    return Status::InvalidArgument("lease_ms must be >= 1");
  }
  if (options.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (options.retry_ms < 1) {
    return Status::InvalidArgument("retry_ms must be >= 1");
  }
  if (options.backoff_initial_ms < 0) {
    return Status::InvalidArgument("backoff_initial_ms must be >= 0");
  }
  if (options.backoff_max_ms < 0) {
    return Status::InvalidArgument("backoff_max_ms must be >= 0");
  }
  auto plan = ShardPlan::Create(info.total, info.shards);
  if (!plan.ok()) return plan.status();

  ShardLeaseTable table(std::move(info), std::move(dir), options,
                        std::move(on_event));

  // Startup scan: committed shards resume as done, corrupt shards are
  // quarantined, contradictions refuse service.
  for (int k = 0; k < table.info_.shards; ++k) {
    table.Judge(k, Judging::kStartup, "", 0);
    if (!table.run_status_.ok()) return table.run_status_;
  }
  table.stats_.resumed = table.stats().committed;
  table.Emit("serving sweep=" + table.info_.sweep + " shards=" +
             std::to_string(table.info_.shards) + " resumed=" +
             std::to_string(table.stats_.resumed));
  return table;
}

void ShardLeaseTable::Emit(const std::string& line) {
  if (on_event_) on_event_(line);
}

Status ShardLeaseTable::Quarantine(int shard) {
  const std::string qdir = ShardQuarantineDir(dir_);
  HSIS_RETURN_IF_ERROR(CreateDirectories(qdir));
  std::string tag;
  do {
    tag = qdir + "/shard-" + std::to_string(shard) + ".q" +
          std::to_string(quarantine_seq_++);
  } while (FileExists(tag + ".bin") || FileExists(tag + ".manifest"));
  for (const auto& [from, to] :
       {std::pair{ShardPayloadPath(dir_, shard), tag + ".bin"},
        std::pair{ShardManifestPath(dir_, shard), tag + ".manifest"}}) {
    if (!FileExists(from)) continue;
    HSIS_RETURN_IF_ERROR(RenameFile(from, to));
    ++stats_.quarantined;
  }
  Emit("quarantine shard=" + std::to_string(shard) + " -> " + tag + ".*");
  return Status::OK();
}

void ShardLeaseTable::MarkCommitted(int shard, const std::string& digest,
                                    const char* how) {
  manifest_sha_[static_cast<size_t>(shard)] = digest;
  states_[static_cast<size_t>(shard)] = ShardState::kCommitted;
  SweepServiceStats s = stats();
  Emit(std::string(how) + " shard=" + std::to_string(shard) + " (" +
       std::to_string(s.committed) + "/" + std::to_string(s.shards) +
       " committed)");
  if (drained()) Emit("drained " + std::to_string(s.shards) + " shards");
}

void ShardLeaseTable::AttemptFailed(int shard, const Status& why,
                                    int64_t now_ms) {
  const size_t k = static_cast<size_t>(shard);
  if (attempts_[k] >= options_.max_attempts) {
    states_[k] = ShardState::kFailed;
    run_status_ = Status::Internal(
        "shard " + std::to_string(shard) + " exhausted " +
        std::to_string(options_.max_attempts) +
        " attempts; last failure: " + why.ToString());
    Emit("fail-run shard=" + std::to_string(shard) + ": " + why.ToString());
    return;
  }
  states_[k] = ShardState::kPending;
  int64_t backoff = BackoffDelayMs(options_.backoff_initial_ms,
                                   options_.backoff_max_ms, attempts_[k]);
  ready_at_ms_[k] = AddSaturating(now_ms, backoff);
  Emit("requeue shard=" + std::to_string(shard) + " attempts=" +
       std::to_string(attempts_[k]) + " backoff_ms=" +
       std::to_string(backoff) + ": " + why.ToString());
}

std::map<uint64_t, ShardLeaseTable::Lease>::iterator ShardLeaseTable::LeaseOn(
    int shard) {
  auto it = leases_.begin();
  while (it != leases_.end() && it->second.shard != shard) ++it;
  return it;
}

Result<ShardManifest> ShardLeaseTable::Judge(int shard, Judging judging,
                                             const std::string& why,
                                             int64_t now_ms) {
  Result<ShardManifest> verdict = ValidateShard(info_, dir_, shard);
  const std::string k = std::to_string(shard);
  // At most one lease is active per shard. One still held here belongs
  // to a worker whose attempt did not end with this verdict.
  const auto other = LeaseOn(shard);
  const bool ended =
      judging == Judging::kAttemptEnd || judging == Judging::kHolderClaim;

  if (verdict.ok()) {
    // Committed files are the truth, however the attempt ended and
    // whoever wrote them: any lease on the shard is now meaningless.
    if (other != leases_.end()) leases_.erase(other);
    MarkCommitted(shard, verdict->payload_sha256,
                  judging == Judging::kStartup      ? "resume"
                  : judging == Judging::kAttemptEnd ? "reclaim-commit"
                                                    : "commit");
    return verdict;
  }
  const Status& v = verdict.status();
  switch (v.code()) {
    case StatusCode::kNotFound:  // nothing committed
      if (judging == Judging::kAttemptEnd) {
        AttemptFailed(shard, Status::Internal(why + "; nothing committed"),
                      now_ms);
      } else if (judging == Judging::kHolderClaim) {
        AttemptFailed(shard, v, now_ms);
      }
      break;
    case StatusCode::kIntegrityViolation: {  // corrupt
      // Another worker's in-flight files are not ours to quarantine.
      if (other != leases_.end()) break;
      if (Status q = Quarantine(shard); !q.ok()) {
        if (judging == Judging::kStartup) {
          run_status_ = q;
          break;
        }
        Emit("quarantine-error shard=" + k + ": " + q.ToString());
      }
      if (ended) AttemptFailed(shard, v, now_ms);
      break;
    }
    default:  // InvalidArgument: contradicts the plan, no retry can fix it
      if (other != leases_.end()) leases_.erase(other);
      states_[static_cast<size_t>(shard)] = ShardState::kFailed;
      if (judging == Judging::kStartup) {
        run_status_ = Status::InvalidArgument(
            "results directory contradicts the plan at shard " + k +
            " — refusing to run (fix or clear " + dir_ + "): " + v.message());
        break;
      }
      run_status_ = Status::InvalidArgument(
          "shard " + k + " contradicts the plan: " + v.message());
      Emit("fail-run shard=" + k + ": " + v.message());
  }
  return verdict;
}

int ShardLeaseTable::ExpireLeases(int64_t now_ms,
                                  std::vector<uint64_t>* reclaimed_ids) {
  int reclaimed = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.deadline_ms > now_ms) {
      ++it;
      continue;
    }
    const int shard = it->second.shard;
    Emit("expire lease=" + std::to_string(it->first) + " shard=" +
         std::to_string(shard) + " worker=" + it->second.worker);
    if (reclaimed_ids != nullptr) reclaimed_ids->push_back(it->first);
    it = leases_.erase(it);
    ++stats_.expired;
    Judge(shard, Judging::kAttemptEnd, "lease expired", now_ms);
    ++reclaimed;
  }
  return reclaimed;
}

Result<std::variant<SweepGrant, SweepNoGrant>> ShardLeaseTable::Acquire(
    const std::string& worker, int64_t now_ms) {
  ExpireLeases(now_ms);
  if (!run_status_.ok()) return run_status_;
  if (drained()) return std::variant<SweepGrant, SweepNoGrant>(
      SweepNoGrant{/*drained=*/true, /*retry_ms=*/0});

  int64_t min_wait = -1;
  for (int k = 0; k < info_.shards; ++k) {
    if (states_[static_cast<size_t>(k)] != ShardState::kPending) continue;
    const int64_t wait = ready_at_ms_[static_cast<size_t>(k)] - now_ms;
    if (wait > 0) {
      if (min_wait < 0 || wait < min_wait) min_wait = wait;
      continue;
    }
    const size_t sk = static_cast<size_t>(k);
    ++attempts_[sk];
    if (attempts_[sk] > 1) ++stats_.retries;
    const uint64_t lease_id = next_lease_id_++;
    leases_[lease_id] =
        Lease{k, worker, AddSaturating(now_ms, options_.lease_ms)};
    states_[sk] = ShardState::kLeased;
    Emit("grant shard=" + std::to_string(k) + " lease=" +
         std::to_string(lease_id) + " worker=" + worker + " attempt=" +
         std::to_string(attempts_[sk]));
    return std::variant<SweepGrant, SweepNoGrant>(
        SweepGrant{lease_id, k, plan_.Range(k), attempts_[sk]});
  }

  int64_t retry = options_.retry_ms;
  if (min_wait > 0 && min_wait < retry) retry = min_wait;
  return std::variant<SweepGrant, SweepNoGrant>(
      SweepNoGrant{/*drained=*/false, retry});
}

Result<int64_t> ShardLeaseTable::Renew(uint64_t lease_id, int shard,
                                       int64_t now_ms) {
  ExpireLeases(now_ms);
  auto it = leases_.find(lease_id);
  if (it == leases_.end()) {
    return Status::NotFound("lease " + std::to_string(lease_id) +
                            " is unknown or expired; abandon shard " +
                            std::to_string(shard));
  }
  if (it->second.shard != shard) {
    return Status::InvalidArgument(
        "lease " + std::to_string(lease_id) + " covers shard " +
        std::to_string(it->second.shard) + ", not shard " +
        std::to_string(shard));
  }
  it->second.deadline_ms = AddSaturating(now_ms, options_.lease_ms);
  Emit("renew lease=" + std::to_string(lease_id) + " shard=" +
       std::to_string(shard) + " worker=" + it->second.worker);
  return options_.lease_ms;
}

Result<SweepCompleteOutcome> ShardLeaseTable::Complete(
    uint64_t lease_id, int shard, const std::string& payload_sha256,
    int64_t now_ms) {
  ExpireLeases(now_ms);
  const std::string tag = "shard " + std::to_string(shard);
  if (shard < 0 || shard >= info_.shards) {
    return Status::InvalidArgument("completion for " + tag +
                                   " outside the plan's " +
                                   std::to_string(info_.shards) + " shards");
  }
  if (!run_status_.ok()) return run_status_;
  const size_t sk = static_cast<size_t>(shard);

  // Whether the claimant holds the shard's lease: its attempt ends with
  // this claim. A stale lease_id means a zombie worker racing its
  // replacement — its claim must not disturb the holder.
  const auto holder = LeaseOn(shard);
  const bool claimant_holds =
      holder != leases_.end() && holder->first == lease_id;
  const bool stale = holder != leases_.end() && !claimant_holds;
  if (claimant_holds) leases_.erase(holder);

  if (states_[sk] == ShardState::kCommitted) {
    if (payload_sha256 != manifest_sha_[sk]) {
      return Status::IntegrityViolation(
          tag + " is already committed but the reported payload digest "
                "disagrees with its manifest");
    }
    Emit("duplicate-complete shard=" + std::to_string(shard) + " lease=" +
         std::to_string(lease_id));
    return SweepCompleteOutcome{/*duplicate=*/true, stats().committed};
  }

  Result<ShardManifest> verdict = Judge(
      shard, claimant_holds ? Judging::kHolderClaim : Judging::kOtherClaim,
      "", now_ms);
  if (verdict.ok()) {
    if (payload_sha256 != verdict->payload_sha256) {
      // The files on disk validate, so the shard *is* committed; only
      // the worker's report is wrong. Keep the commit, tell the worker.
      return Status::IntegrityViolation(
          tag + " committed, but the reported payload digest disagrees "
                "with the manifest on disk — the worker is confused");
    }
    return SweepCompleteOutcome{/*duplicate=*/false, stats().committed};
  }
  const Status& v = verdict.status();
  if (v.code() == StatusCode::kNotFound) {
    return Status::NotFound(
        "completion claim for " + tag + " rejected: nothing committed on "
        "disk (" + v.message() +
        "); is the worker writing to the daemon's results directory?");
  }
  if (v.code() != StatusCode::kIntegrityViolation) return run_status_;
  return Status::IntegrityViolation(
      (stale ? "stale completion claim for " + tag + " rejected: "
             : "completion claim for " + tag + " rejected and quarantined: ") +
      v.message());
}

Result<bool> ShardLeaseTable::Release(uint64_t lease_id, int shard,
                                      const Status& outcome, int64_t now_ms) {
  ExpireLeases(now_ms);
  auto it = leases_.find(lease_id);
  if (it == leases_.end()) {
    return Status::NotFound("lease " + std::to_string(lease_id) +
                            " is unknown or already reclaimed");
  }
  if (it->second.shard != shard) {
    return Status::InvalidArgument(
        "lease " + std::to_string(lease_id) + " covers shard " +
        std::to_string(it->second.shard) + ", not shard " +
        std::to_string(shard));
  }
  leases_.erase(it);
  if (!outcome.ok()) {
    Emit("worker-fail shard=" + std::to_string(shard) + " lease=" +
         std::to_string(lease_id) + ": " + outcome.message());
    ++stats_.failed_reports;
  }
  // The files are the truth either way: a failed attempt may have
  // committed first, and a clean exit may have committed nothing.
  Judge(shard, Judging::kAttemptEnd,
        outcome.ok() ? "attempt exited cleanly" : outcome.message(), now_ms);
  return states_[static_cast<size_t>(shard)] == ShardState::kPending;
}

bool ShardLeaseTable::drained() const {
  for (ShardState s : states_) {
    if (s != ShardState::kCommitted) return false;
  }
  return true;
}

SweepServiceStats ShardLeaseTable::stats() const {
  SweepServiceStats s = stats_;
  s.shards = info_.shards;
  s.committed = 0;
  s.pending = 0;
  for (ShardState st : states_) {
    if (st == ShardState::kCommitted) ++s.committed;
    if (st == ShardState::kPending) ++s.pending;
  }
  s.leased = static_cast<int>(leases_.size());
  return s;
}

Flag MaxRetriesFlag(int* max_attempts) {
  return ParsedFlag("--max-retries", max_attempts, [](std::string_view text) {
    Result<int64_t> retries = ParseIntFlag("--max-retries", text, 0,
                                           INT_MAX - 1);
    return retries.ok() ? Result<int64_t>(1 + *retries) : retries;
  });
}

std::vector<Flag> ScheduleFlags(ShardScheduleOptions* options) {
  return {ParsedFlag("--workers", &options->workers,
                     [](std::string_view text) {
                       return ParseThreadsValue(text, "--workers");
                     }),
          MaxRetriesFlag(&options->max_attempts),
          IntFlag("--shard-timeout-ms", 0, INT_MAX,
                  &options->shard_timeout_ms)};
}

ShardScheduler::ShardScheduler(ShardPlanInfo info, std::string dir,
                               std::unique_ptr<ShardExecutor> executor,
                               ShardScheduleOptions options)
    : info_(std::move(info)),
      dir_(std::move(dir)),
      executor_(std::move(executor)),
      options_(options) {}

Result<ShardScheduleSummary> ShardScheduler::Run() {
  if (executor_ == nullptr) {
    return Status::InvalidArgument("scheduler has no executor");
  }
  if (options_.workers < 1) {
    return Status::InvalidArgument("workers must be >= 1, got " +
                                   std::to_string(options_.workers));
  }
  if (options_.shard_timeout_ms < 0) {
    return Status::InvalidArgument(
        "shard_timeout_ms must be >= 0, got " +
        std::to_string(options_.shard_timeout_ms));
  }
  const Clock::time_point run_start = Clock::now();
  SweepLeaseOptions lease;
  lease.lease_ms = options_.shard_timeout_ms == 0
                       ? std::numeric_limits<int64_t>::max()
                       : options_.shard_timeout_ms;
  lease.max_attempts = options_.max_attempts;
  lease.backoff_initial_ms = options_.backoff_initial_ms;
  lease.backoff_max_ms = options_.backoff_max_ms;
  HSIS_ASSIGN_OR_RETURN(ShardLeaseTable table,
                        ShardLeaseTable::Create(info_, dir_, lease));

  struct Job {
    int handle = -1;
    int shard = 0;
    bool killed = false;  // its lease expired; reaped, never reported
  };
  std::map<uint64_t, Job> jobs;  // live jobs by lease id

  auto kill_all = [&] {
    Status ignored;
    for (const auto& [lease_id, job] : jobs) {
      executor_->Kill(job.handle);
      // Bounded reap: SIGKILL'd processes and cancelled threads finish
      // promptly; give up after ~2s rather than hang the error path.
      for (int i = 0; i < 2000 && !executor_->Poll(job.handle, &ignored);
           ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };

  while (!table.drained() || !jobs.empty()) {
    const int64_t now = std::chrono::duration_cast<std::chrono::milliseconds>(
                            Clock::now().time_since_epoch())
                            .count();
    bool progressed = false;

    // A timeout is a lease expiry: the table has already classified
    // the shard; the job only has to die.
    std::vector<uint64_t> expired;
    table.ExpireLeases(now, &expired);
    for (uint64_t lease_id : expired) {
      Job& job = jobs.at(lease_id);
      executor_->Kill(job.handle);
      job.killed = true;
    }

    // Every job end goes through the table, which judges the files.
    for (auto it = jobs.begin(); it != jobs.end();) {
      Status status;
      if (!executor_->Poll(it->second.handle, &status)) {
        ++it;
        continue;
      }
      if (!it->second.killed) {
        table.Release(it->first, it->second.shard, status, now);
      }
      it = jobs.erase(it);
      progressed = true;
    }

    // Killed jobs hold their slots until reaped. One may still be
    // writing the shard its replacement writes; both write the same
    // bytes, and every file lands whole by rename, so neither tears
    // the other.
    while (jobs.size() < static_cast<size_t>(options_.workers)) {
      auto acquired = table.Acquire("scheduler", now);
      if (!acquired.ok()) break;
      const auto* grant = std::get_if<SweepGrant>(&*acquired);
      if (grant == nullptr) break;
      progressed = true;
      Result<int> handle = executor_->Start(grant->shard);
      if (handle.ok()) {
        jobs.emplace(grant->lease_id, Job{*handle, grant->shard});
      } else {
        table.Release(grant->lease_id, grant->shard, handle.status(), now);
      }
    }

    if (!table.run_status().ok()) {
      kill_all();
      return table.run_status();
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollIntervalMs));
    }
  }

  SweepServiceStats stats = table.stats();
  ShardScheduleSummary summary;
  summary.sweep = info_.sweep;
  summary.shards = stats.shards;
  summary.resumed = stats.resumed;
  summary.retries = stats.retries;
  summary.quarantined = stats.quarantined;
  summary.timeouts = stats.expired;
  summary.attempts = table.attempts();
  summary.wall_ms = static_cast<double>(ElapsedMs(run_start));
  return summary;
}

}  // namespace hsis::common
