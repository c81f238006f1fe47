#include "common/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/file.h"
#include "common/random.h"
#include "common/shard.h"

namespace hsis::common {
namespace {

std::string FreshDir(const char* name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);  // committed shards would resume
  EXPECT_TRUE(CreateDirectories(dir).ok());
  return dir;
}

/// Same irregular-record toy sweep as shard_test.cc, so the scheduler
/// suites exercise the exact codec the merge validates.
ShardSweepSpec ToySpec(size_t total) {
  ShardSweepSpec spec;
  spec.name = "toy";
  spec.total = total;
  spec.seed = 7;
  spec.record = [](size_t i) -> Result<Bytes> {
    return ToBytes("r" + std::to_string(i) + std::string(i % 5, 'x') + "\n");
  };
  return spec;
}

Bytes SerialReference(const ShardSweepSpec& spec) {
  Bytes all;
  for (size_t i = 0; i < spec.total; ++i) {
    Bytes record = spec.record(i).value();
    all.insert(all.end(), record.begin(), record.end());
  }
  return all;
}

struct Fixture {
  ShardSweepSpec spec;
  ShardPlan plan;
  ShardPlanInfo info;
  std::string dir;
};

Fixture MakeFixture(const char* name, size_t total, int shards) {
  Fixture f{ToySpec(total), ShardPlan::Create(total, shards).value(), {},
            FreshDir(name)};
  EXPECT_TRUE(WriteShardPlan(f.spec, f.plan, f.dir).ok());
  f.info = ReadShardPlan(f.dir).value();
  return f;
}

/// An in-process job that computes the shard correctly but can be
/// programmed, per shard, to fail (without committing) on the first N
/// attempts — the deterministic fault-injection seam.
class FlakyJob {
 public:
  FlakyJob(ShardSweepSpec spec, ShardPlan plan, std::string dir)
      : spec_(std::move(spec)), plan_(plan), dir_(std::move(dir)) {}

  /// The next `failures` attempts of `shard` exit with an error before
  /// writing anything.
  void FailNext(int shard, int failures) { failures_[shard] = failures; }

  InProcessShardJob AsJob() {
    return [this](int shard, const std::atomic<bool>&) -> Status {
      if (auto it = failures_.find(shard);
          it != failures_.end() && it->second > 0) {
        --it->second;
        return Status::Internal("injected failure for shard " +
                                std::to_string(shard));
      }
      return ShardRunner(spec_, plan_).Run(shard, dir_, 1);
    };
  }

 private:
  ShardSweepSpec spec_;
  ShardPlan plan_;
  std::string dir_;
  std::map<int, int> failures_;  // shard -> remaining injected failures
};

ShardScheduleOptions FastOptions() {
  ShardScheduleOptions options;
  options.workers = 2;
  options.max_attempts = 3;
  options.backoff_initial_ms = 0;  // tests need no pacing
  return options;
}

Bytes MergedBytes(const Fixture& f) {
  return MergeShards(f.dir, f.spec.name).value();
}

// ---------------------------------------------------------------------
// Happy path, options validation
// ---------------------------------------------------------------------

TEST(ShardSchedulerTest, CompletesAllShardsAndMatchesSerial) {
  Fixture f = MakeFixture("sched_happy", 103, 5);
  ShardScheduler scheduler(
      f.info, f.dir, MakeRunnerShardExecutor(f.spec, f.plan, f.dir),
      FastOptions());
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->shards, 5);
  EXPECT_EQ(summary->resumed, 0);
  EXPECT_EQ(summary->retries, 0);
  EXPECT_EQ(summary->attempts, (std::vector<int>{1, 1, 1, 1, 1}));
  EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
}

TEST(ShardSchedulerTest, RejectsBadOptions) {
  Fixture f = MakeFixture("sched_badopt", 10, 2);
  struct Case {
    const char* field;
    void (*mutate)(ShardScheduleOptions*);
  };
  for (const Case& c : std::vector<Case>{
           {"workers", [](ShardScheduleOptions* o) { o->workers = 0; }},
           {"max_attempts",
            [](ShardScheduleOptions* o) { o->max_attempts = 0; }},
           {"shard_timeout_ms",
            [](ShardScheduleOptions* o) { o->shard_timeout_ms = -1; }},
           {"backoff_initial_ms",
            [](ShardScheduleOptions* o) { o->backoff_initial_ms = -5; }},
           {"backoff_max_ms",
            [](ShardScheduleOptions* o) { o->backoff_max_ms = -5; }}}) {
    SCOPED_TRACE(c.field);
    ShardScheduleOptions options = FastOptions();
    c.mutate(&options);
    ShardScheduler scheduler(
        f.info, f.dir, MakeRunnerShardExecutor(f.spec, f.plan, f.dir),
        options);
    Result<ShardScheduleSummary> summary = scheduler.Run();
    ASSERT_FALSE(summary.ok());
    EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(summary.status().message().find(c.field), std::string::npos)
        << summary.status().ToString();
  }
}

// ---------------------------------------------------------------------
// Retry on transient failure
// ---------------------------------------------------------------------

TEST(ShardSchedulerTest, RetriesWorkerThatExitsWithoutCommitting) {
  Fixture f = MakeFixture("sched_retry", 41, 4);
  FlakyJob job(f.spec, f.plan, f.dir);
  job.FailNext(1, 1);  // one transient failure on shard 1
  job.FailNext(3, 2);  // two on shard 3 — still below max_attempts=3
  ShardScheduler scheduler(f.info, f.dir,
                           MakeInProcessShardExecutor(job.AsJob()),
                           FastOptions());
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->retries, 3);
  EXPECT_EQ(summary->attempts, (std::vector<int>{1, 2, 1, 3}));
  EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
}

TEST(ShardSchedulerTest, ExhaustedAttemptsNameTheShard) {
  Fixture f = MakeFixture("sched_exhaust", 20, 2);
  FlakyJob job(f.spec, f.plan, f.dir);
  job.FailNext(1, 99);  // shard 1 never succeeds
  ShardScheduler scheduler(f.info, f.dir,
                           MakeInProcessShardExecutor(job.AsJob()),
                           FastOptions());
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kInternal);
  EXPECT_NE(summary.status().message().find("shard 1"), std::string::npos)
      << summary.status().ToString();
  EXPECT_NE(summary.status().message().find("3 attempts"), std::string::npos)
      << summary.status().ToString();
}

// ---------------------------------------------------------------------
// Resume: committed shards are never recomputed
// ---------------------------------------------------------------------

TEST(ShardSchedulerTest, ResumeSkipsCommittedShards) {
  Fixture f = MakeFixture("sched_resume", 57, 4);
  // A previous (say, killed) run committed shards 0 and 2.
  ShardRunner runner(f.spec, f.plan);
  ASSERT_TRUE(runner.Run(0, f.dir, 1).ok());
  ASSERT_TRUE(runner.Run(2, f.dir, 1).ok());

  // The resumed run must not recompute them: a job that aborts the
  // test if asked for shard 0 or 2 proves it.
  InProcessShardJob job = [&](int shard, const std::atomic<bool>&) -> Status {
    EXPECT_TRUE(shard == 1 || shard == 3)
        << "scheduler recomputed committed shard " << shard;
    return ShardRunner(f.spec, f.plan).Run(shard, f.dir, 1);
  };
  ShardScheduler scheduler(f.info, f.dir, MakeInProcessShardExecutor(job),
                           FastOptions());
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->resumed, 2);
  EXPECT_EQ(summary->attempts, (std::vector<int>{0, 1, 0, 1}));
  EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
}

TEST(ShardSchedulerTest, FullyCommittedDirectoryResumesToNoOp) {
  Fixture f = MakeFixture("sched_noop", 30, 3);
  ShardRunner runner(f.spec, f.plan);
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(runner.Run(k, f.dir, 1).ok());
  InProcessShardJob job = [](int shard, const std::atomic<bool>&) -> Status {
    ADD_FAILURE() << "no shard should run, got " << shard;
    return Status::Internal("unreachable");
  };
  ShardScheduler scheduler(f.info, f.dir, MakeInProcessShardExecutor(job),
                           FastOptions());
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->resumed, 3);
  EXPECT_EQ(summary->retries, 0);
}

// ---------------------------------------------------------------------
// Quarantine: corrupt files are preserved as evidence, then re-run
// ---------------------------------------------------------------------

TEST(ShardSchedulerTest, QuarantinesCorruptPayloadThenRecovers) {
  Fixture f = MakeFixture("sched_qpayload", 44, 4);
  ShardRunner runner(f.spec, f.plan);
  for (int k = 0; k < 4; ++k) ASSERT_TRUE(runner.Run(k, f.dir, 1).ok());
  // Flip a byte in shard 2's committed payload: SHA-256 mismatch.
  std::string payload = ReadFile(ShardPayloadPath(f.dir, 2)).value();
  payload[payload.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFile(ShardPayloadPath(f.dir, 2), payload).ok());

  ShardScheduler scheduler(
      f.info, f.dir, MakeRunnerShardExecutor(f.spec, f.plan, f.dir),
      FastOptions());
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->resumed, 3);
  EXPECT_EQ(summary->quarantined, 2);  // payload + manifest moved
  EXPECT_EQ(summary->attempts, (std::vector<int>{0, 0, 1, 0}));
  // The corrupt evidence is preserved, not deleted.
  EXPECT_TRUE(FileExists(ShardQuarantineDir(f.dir) + "/shard-2.q0.bin"));
  EXPECT_TRUE(FileExists(ShardQuarantineDir(f.dir) + "/shard-2.q0.manifest"));
  EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
}

TEST(ShardSchedulerTest, QuarantinesCorruptManifestThenRecovers) {
  Fixture f = MakeFixture("sched_qmanifest", 31, 3);
  ShardRunner runner(f.spec, f.plan);
  for (int k = 0; k < 3; ++k) ASSERT_TRUE(runner.Run(k, f.dir, 1).ok());
  ASSERT_TRUE(WriteFile(ShardManifestPath(f.dir, 1), "not a manifest").ok());

  ShardScheduler scheduler(
      f.info, f.dir, MakeRunnerShardExecutor(f.spec, f.plan, f.dir),
      FastOptions());
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GE(summary->quarantined, 1);
  EXPECT_EQ(summary->attempts, (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
}

TEST(ShardSchedulerTest, CrashAfterCommitCountsAsDone) {
  // Files are the truth: a job that commits its shard and THEN reports
  // failure (crash between fsync and exit) must not trigger a re-run.
  Fixture f = MakeFixture("sched_crashcommit", 26, 2);
  std::atomic<int> runs{0};
  InProcessShardJob job = [&](int shard, const std::atomic<bool>&) -> Status {
    ++runs;
    Status s = ShardRunner(f.spec, f.plan).Run(shard, f.dir, 1);
    EXPECT_TRUE(s.ok());
    return Status::Internal("crashed after committing");
  };
  ShardScheduler scheduler(f.info, f.dir, MakeInProcessShardExecutor(job),
                           FastOptions());
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(runs.load(), 2);  // one attempt per shard, no retries
  EXPECT_EQ(summary->retries, 0);
  EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
}

TEST(ShardSchedulerTest, RepeatedQuarantineNeverOverwritesEvidence) {
  // Every scheduled run over the same directory starts a new scheduler;
  // a later corruption of the same shard must be filed beside the
  // earlier evidence, never on top of it.
  Fixture f = MakeFixture("sched_qrepeat", 30, 3);
  auto run = [&f] {
    ShardScheduler scheduler(
        f.info, f.dir, MakeRunnerShardExecutor(f.spec, f.plan, f.dir),
        FastOptions());
    Result<ShardScheduleSummary> summary = scheduler.Run();
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
  };
  run();
  ASSERT_TRUE(WriteFile(ShardPayloadPath(f.dir, 1), "FIRST-CORRUPTION").ok());
  run();
  ASSERT_TRUE(WriteFile(ShardPayloadPath(f.dir, 1), "SECOND-CORRUPTION").ok());
  run();

  const std::string evidence = ShardQuarantineDir(f.dir) + "/shard-1.";
  for (const char* tag : {"q0", "q1"}) {
    EXPECT_TRUE(FileExists(evidence + tag + ".bin")) << tag;
    EXPECT_TRUE(FileExists(evidence + tag + ".manifest")) << tag;
  }
  EXPECT_EQ(ReadFile(evidence + "q0.bin").value_or(""), "FIRST-CORRUPTION");
  EXPECT_EQ(ReadFile(evidence + "q1.bin").value_or(""), "SECOND-CORRUPTION");
}

// ---------------------------------------------------------------------
// Fail fast on operator error
// ---------------------------------------------------------------------

TEST(ShardSchedulerTest, ForeignPlanFilesFailFastWithoutRetry) {
  // The directory holds shards of a DIFFERENT plan (other shard count):
  // InvalidArgument, and no attempt may be dispatched.
  Fixture f = MakeFixture("sched_foreign", 40, 4);
  ShardSweepSpec other = ToySpec(40);
  ShardPlan other_plan = ShardPlan::Create(40, 5).value();
  ASSERT_TRUE(ShardRunner(other, other_plan).Run(0, f.dir, 1).ok());

  InProcessShardJob job = [](int, const std::atomic<bool>&) -> Status {
    ADD_FAILURE() << "dispatched despite operator error";
    return Status::Internal("unreachable");
  };
  ShardScheduler scheduler(f.info, f.dir, MakeInProcessShardExecutor(job),
                           FastOptions());
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Timeouts: hung workers are killed and retried
// ---------------------------------------------------------------------

TEST(ShardSchedulerTest, HungWorkerIsKilledAndRetried) {
  Fixture f = MakeFixture("sched_hang", 22, 2);
  std::atomic<int> hangs{1};  // first attempt of shard 1 hangs
  InProcessShardJob job = [&](int shard, const std::atomic<bool>& cancelled)
      -> Status {
    if (shard == 1 && hangs.fetch_sub(1) > 0) {
      while (!cancelled.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::Internal("cancelled while hung");
    }
    return ShardRunner(f.spec, f.plan).Run(shard, f.dir, 1);
  };
  ShardScheduleOptions options = FastOptions();
  options.shard_timeout_ms = 200;
  ShardScheduler scheduler(f.info, f.dir, MakeInProcessShardExecutor(job),
                           options);
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->timeouts, 1);
  EXPECT_EQ(summary->retries, 1);
  EXPECT_EQ(summary->attempts, (std::vector<int>{1, 2}));
  EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
}

/// An executor whose first attempt of shard 0 hangs until killed and
/// then takes a few more polls to die, like a SIGKILLed process not yet
/// reaped; every other attempt commits its shard inside `Start`.
class SlowToDieExecutor final : public ShardExecutor {
 public:
  explicit SlowToDieExecutor(const ShardRunner& runner, std::string dir)
      : runner_(runner), dir_(std::move(dir)) {}

  Result<int> Start(int shard) override {
    EXPECT_EQ(unreaped_, 0) << "attempt started while a job was unreaped";
    ++unreaped_;
    const int job = next_job_++;
    const bool hang = shard == 0 && !hung_once_;
    hung_once_ = hung_once_ || hang;
    if (!hang) {
      EXPECT_TRUE(runner_.Run(shard, dir_, 1).ok());
      polls_left_[job] = 0;
    } else {
      polls_left_[job] = kRunning;
    }
    return job;
  }

  bool Poll(int job, Status* status) override {
    int& left = polls_left_.at(job);
    if (left == kRunning || left-- > 0) return false;
    polls_left_.erase(job);
    --unreaped_;
    *status = Status::OK();
    return true;
  }

  void Kill(int job) override {
    ++kills;
    polls_left_.at(job) = 3;
  }

  int kills = 0;

 private:
  static constexpr int kRunning = -1;
  ShardRunner runner_;
  std::string dir_;
  int next_job_ = 0;
  int unreaped_ = 0;
  bool hung_once_ = false;
  std::map<int, int> polls_left_;  // job -> polls until it reports done
};

TEST(ShardSchedulerTest, TimedOutJobIsReapedBeforeTheNextAttemptStarts) {
  Fixture f = MakeFixture("sched_reap", 22, 2);
  auto executor = std::make_unique<SlowToDieExecutor>(
      ShardRunner(f.spec, f.plan), f.dir);
  SlowToDieExecutor* raw = executor.get();
  ShardScheduleOptions options = FastOptions();
  options.workers = 1;
  options.shard_timeout_ms = 50;
  ShardScheduler scheduler(f.info, f.dir, std::move(executor), options);
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(raw->kills, 1);
  EXPECT_EQ(summary->timeouts, 1);
  EXPECT_EQ(summary->attempts, (std::vector<int>{2, 1}));
  EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
}

/// An executor whose first attempt of shard 0 hangs until its lease
/// times out. Killed, it does not die: it keeps rewriting shard 0 on a
/// thread, as a stale writer does. It is reaped only after the
/// replacement attempt has been polled done and judged, and after 100
/// reads of the committed shard made while it still writes (or after
/// a cap of polls, so a scheduler that waits for the reap cannot hang
/// the test). Every other attempt commits its shard inside `Start`.
class ZombieExecutor final : public ShardExecutor {
 public:
  explicit ZombieExecutor(const Fixture& f)
      : runner_(f.spec, f.plan), info_(f.info), dir_(f.dir) {}
  ~ZombieExecutor() override { Bury(); }

  Result<int> Start(int shard) override {
    const int job = next_job_++;
    if (shard == 0 && zombie_job_ < 0) {
      zombie_job_ = job;
      return job;
    }
    started_beside_zombie = started_beside_zombie || writer_.joinable();
    EXPECT_TRUE(runner_.Run(shard, dir_, 1).ok());
    if (shard == 0) replacement_job_ = job;
    return job;
  }

  bool Poll(int job, Status* status) override {
    *status = Status::OK();
    if (job != zombie_job_) {
      replacement_done_ = replacement_done_ || job == replacement_job_;
      return true;
    }
    if (!writer_.joinable()) return false;  // hung, not yet killed
    // The scheduler judges a job in the pass that polls it done, so
    // the zombie outlives that judgement by at least one pass.
    if (!replacement_done_ && ++zombie_polls_ < 500) return false;
    if (replacement_done_) {
      for (int i = 0; i < 100; ++i) {
        Status read = ValidateShard(info_, dir_, 0).status();
        EXPECT_TRUE(read.ok()) << "read " << i << ": " << read;
        torn_reads += read.ok() ? 0 : 1;
      }
    }
    Bury();
    return true;
  }

  void Kill(int job) override {
    if (job != zombie_job_ || writer_.joinable()) return;
    writer_ = std::thread([this] {
      while (!stop_.load()) EXPECT_TRUE(runner_.Run(0, dir_, 1).ok());
    });
  }

  bool started_beside_zombie = false;
  int torn_reads = 0;

 private:
  void Bury() {
    stop_.store(true);
    if (writer_.joinable()) writer_.join();
  }

  const ShardRunner runner_;
  const ShardPlanInfo info_;
  const std::string dir_;
  int next_job_ = 0;
  int zombie_job_ = -1;
  int replacement_job_ = -1;
  bool replacement_done_ = false;
  int zombie_polls_ = 0;
  std::atomic<bool> stop_{false};
  std::thread writer_;
};

TEST(ShardSchedulerTest, KilledJobStillWritingCannotTearItsReplacement) {
  // No attempt waits for a killed job to be reaped. The replacement of
  // a timed-out shard starts beside its still-writing predecessor, is
  // judged while that predecessor rewrites the same files, commits,
  // and reads whole: every file lands whole by rename.
  Fixture f = MakeFixture("sched_zombie", 64, 2);
  f.spec.record = [](size_t i) -> Result<Bytes> {
    return ToBytes(std::string(4096, static_cast<char>('a' + i % 26)) + "\n");
  };
  auto executor = std::make_unique<ZombieExecutor>(f);
  ZombieExecutor* raw = executor.get();
  ShardScheduleOptions options = FastOptions();
  options.shard_timeout_ms = 50;
  ShardScheduler scheduler(f.info, f.dir, std::move(executor), options);
  Result<ShardScheduleSummary> summary = scheduler.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_TRUE(raw->started_beside_zombie);
  EXPECT_EQ(raw->torn_reads, 0);
  EXPECT_EQ(summary->timeouts, 1);
  EXPECT_EQ(summary->quarantined, 0);
  EXPECT_EQ(summary->attempts, (std::vector<int>{2, 1}));
  EXPECT_EQ(MergedBytes(f), SerialReference(f.spec));
}

// ---------------------------------------------------------------------
// Property test: any failure sequence below the retry cap still ends
// in a byte-identical merge
// ---------------------------------------------------------------------

TEST(ShardSchedulerTest, RandomFailureSequencesBelowCapAlwaysConverge) {
  Rng rng(20260806);
  for (int trial = 0; trial < 15; ++trial) {
    size_t total = 10 + rng.NextUint64() % 80;
    int shards = 1 + static_cast<int>(rng.NextUint64() % 6);
    Fixture f = MakeFixture(
        ("sched_prop_" + std::to_string(trial)).c_str(), total, shards);
    FlakyJob job(f.spec, f.plan, f.dir);
    int injected = 0;
    for (int k = 0; k < shards; ++k) {
      // 0..max_attempts-1 failures per shard: always below the cap.
      int failures = static_cast<int>(rng.NextUint64() % 3);
      job.FailNext(k, failures);
      injected += failures;
    }
    ShardScheduleOptions options = FastOptions();
    options.workers = 1 + static_cast<int>(rng.NextUint64() % 4);
    ShardScheduler scheduler(f.info, f.dir,
                             MakeInProcessShardExecutor(job.AsJob()),
                             options);
    Result<ShardScheduleSummary> summary = scheduler.Run();
    ASSERT_TRUE(summary.ok())
        << "trial " << trial << ": " << summary.status().ToString();
    EXPECT_EQ(summary->retries, injected) << "trial " << trial;
    EXPECT_EQ(MergedBytes(f), SerialReference(f.spec)) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------
// Process executor: real child processes
// ---------------------------------------------------------------------

TEST(ProcessShardExecutorTest, ReportsExitStatusOfRealProcesses) {
  auto ok_exec = MakeProcessShardExecutor("/bin/true", "unused");
  Result<int> ok_job = ok_exec->Start(0);
  ASSERT_TRUE(ok_job.ok());
  Status status = Status::Internal("unset");
  while (!ok_exec->Poll(*ok_job, &status)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(status.ok()) << status.ToString();

  auto fail_exec = MakeProcessShardExecutor("/bin/false", "unused");
  Result<int> fail_job = fail_exec->Start(0);
  ASSERT_TRUE(fail_job.ok());
  while (!fail_exec->Poll(*fail_job, &status)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("exited with code 1"), std::string::npos)
      << status.ToString();
}

TEST(ProcessShardExecutorTest, KillTerminatesARealProcess) {
  // The executor passes --shard/--out/--threads flags; a wrapper script
  // that ignores them stands in for a hung worker.
  std::string script = FreshDir("sched_killer") + "/hang.sh";
  ASSERT_TRUE(WriteFile(script, "#!/bin/sh\nsleep 30\n").ok());
  std::filesystem::permissions(script, std::filesystem::perms::owner_all);
  auto exec = MakeProcessShardExecutor(script, "unused");
  Result<int> job = exec->Start(0);
  ASSERT_TRUE(job.ok());
  exec->Kill(*job);
  Status status;
  while (!exec->Poll(*job, &status)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("signal"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------
// Summary serialization round-trip
// ---------------------------------------------------------------------

TEST(ShardSchedulerTest, SummaryConvertsToValidScheduleRecord) {
  ShardScheduleSummary summary;
  summary.sweep = "toy";
  summary.shards = 4;
  summary.resumed = 1;
  summary.retries = 2;
  summary.quarantined = 2;
  summary.timeouts = 1;
  summary.attempts = {0, 1, 2, 2};
  summary.wall_ms = 12.5;
  ScheduleRecord record = ToScheduleRecord(summary);
  ASSERT_TRUE(record.Validate().ok()) << record.Validate().ToString();
  EXPECT_EQ(record.attempts, "0,1,2,2");
  Result<ScheduleRecord> parsed =
      ParseScheduleRecord(ScheduleRecordToJson(record));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->retries, 2);
  EXPECT_EQ(parsed->attempts, record.attempts);
}

TEST(BackoffDelayMsTest, DoublesThenSaturatesAtCap) {
  EXPECT_EQ(BackoffDelayMs(100, 5000, 1), 100);
  EXPECT_EQ(BackoffDelayMs(100, 5000, 2), 200);
  EXPECT_EQ(BackoffDelayMs(100, 5000, 3), 400);
  EXPECT_EQ(BackoffDelayMs(100, 5000, 7), 5000);   // 6400 capped
  EXPECT_EQ(BackoffDelayMs(100, 5000, 100), 5000);
  EXPECT_EQ(BackoffDelayMs(0, 5000, 50), 0);       // disabled
}

TEST(BackoffDelayMsTest, SaturatesInsteadOfOverflowingNearInt64Max) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // With the cap at INT64_MAX, repeated doubling used to run 100 * 2^k
  // straight past the signed range (UB, and in practice a negative
  // delay). It must saturate at the cap and stay there.
  EXPECT_EQ(BackoffDelayMs(100, kMax, 70), kMax);
  EXPECT_EQ(BackoffDelayMs(100, kMax, 1000), kMax);
  EXPECT_EQ(BackoffDelayMs(kMax / 2 + 1, kMax, 2), kMax);
  EXPECT_EQ(BackoffDelayMs(1, kMax, 63), int64_t{1} << 62);
  // Every attempt count must produce a non-negative delay <= the cap.
  for (int attempts = 1; attempts <= 200; ++attempts) {
    int64_t delay = BackoffDelayMs(100, kMax, attempts);
    EXPECT_GE(delay, 0) << "attempts " << attempts;
    EXPECT_LE(delay, kMax) << "attempts " << attempts;
  }
}

}  // namespace
}  // namespace hsis::common
