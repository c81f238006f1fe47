// The shard fault policy as one matrix: every way an attempt can leave
// the results directory, judged at every point the lease table judges a
// shard — the scheduler's and the daemon's `Release` (a job exit, a
// `fail` frame, a launch failure), a lease expiry (a timeout, a silent
// worker), the holder's own `Complete`, and the startup scan of a fresh
// table over the same directory — on a first and on a final attempt.
// Fake clock throughout.

#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/file.h"
#include "common/scheduler.h"
#include "common/shard.h"

namespace hsis::common {
namespace {

/// What the attempt left in the results directory.
enum class Disk {
  kNothing,          // never wrote a byte
  kPartialPayload,   // died mid-payload: no manifest
  kCommitted,        // payload + manifest, consistent
  kCorruptPayload,   // committed, then a payload byte flipped
  kCorruptManifest,  // committed, then the manifest overwritten
  kForeignPlan,      // committed for a plan with another shard count
};

/// The policy's verdict on the shard once the attempt has ended.
enum class Verdict { kRetry, kCommitted, kFailRun };

struct FaultCase {
  const char* name;
  Disk disk;
  Status outcome;   // what the attempt itself reported to `Release`
  int quarantined;  // files the table must move to quarantine/
  Verdict verdict;  // on an attempt that is not the last
};

void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

const std::vector<FaultCase>& Cases() {
  static const std::vector<FaultCase> cases = {
      {"CleanExitWithoutCommit", Disk::kNothing, Status::OK(), 0,
       Verdict::kRetry},
      {"FailureAfterCommit", Disk::kCommitted,
       Status::Internal("crashed after committing"), 0, Verdict::kCommitted},
      {"CorruptPayload", Disk::kCorruptPayload, Status::OK(), 2,
       Verdict::kRetry},
      {"CorruptManifest", Disk::kCorruptManifest, Status::OK(), 2,
       Verdict::kRetry},
      {"ForeignPlanFiles", Disk::kForeignPlan, Status::OK(), 0,
       Verdict::kFailRun},
      {"NothingCommittedBeforeDeadline", Disk::kPartialPayload,
       Status::Internal("worker killed by signal 9"), 0, Verdict::kRetry},
      {"LaunchFailure", Disk::kNothing,
       Status::Internal("fork failed: Resource temporarily unavailable"), 0,
       Verdict::kRetry},
  };
  return cases;
}

enum class End { kRelease, kExpiry, kComplete, kScan };

const char* EndName(End end) {
  switch (end) {
    case End::kRelease:
      return "Release";
    case End::kExpiry:
      return "Expiry";
    case End::kComplete:
      return "Complete";
    case End::kScan:
      return "Scan";
  }
  return "?";
}

void PrintTo(End end, std::ostream* os) { *os << EndName(end); }

/// What the holder's completion claim returns for a verdict.
StatusCode ClaimCode(const FaultCase& c) {
  switch (c.verdict) {
    case Verdict::kCommitted:
      return StatusCode::kOk;
    case Verdict::kFailRun:
      return StatusCode::kInvalidArgument;
    case Verdict::kRetry:
      break;
  }
  return c.quarantined > 0 ? StatusCode::kIntegrityViolation
                           : StatusCode::kNotFound;
}

/// The digest a worker reports: its manifest's, when it has one.
std::string ReportedDigest(const std::string& dir) {
  auto manifest =
      ParseShardManifest(ReadFile(ShardManifestPath(dir, 0)).value_or(""));
  return manifest.ok() ? manifest->payload_sha256 : "";
}

constexpr size_t kTotal = 20;
constexpr int kShards = 2;
constexpr int64_t kLeaseMs = 1000;
constexpr int64_t kBackoffMs = 100;

ShardSweepSpec ToySpec() {
  ShardSweepSpec spec;
  spec.name = "toy";
  spec.total = kTotal;
  spec.seed = 7;
  spec.record = [](size_t i) -> Result<Bytes> {
    return ToBytes("r" + std::to_string(i) + std::string(i % 5, 'x') + "\n");
  };
  return spec;
}

/// Leaves shard 0 of the plan in `dir` in the state `disk` describes.
void Leave(Disk disk, const std::string& dir) {
  const ShardPlan plan = ShardPlan::Create(kTotal, kShards).value();
  switch (disk) {
    case Disk::kNothing:
      return;
    case Disk::kPartialPayload:
      ASSERT_TRUE(WriteFile(ShardPayloadPath(dir, 0), "r0\nr1x").ok());
      return;
    case Disk::kForeignPlan: {
      const ShardPlan foreign = ShardPlan::Create(kTotal, kShards + 1).value();
      ASSERT_TRUE(ShardRunner(ToySpec(), foreign).Run(0, dir, 1).ok());
      return;
    }
    default:
      break;
  }
  ASSERT_TRUE(ShardRunner(ToySpec(), plan).Run(0, dir, 1).ok());
  if (disk == Disk::kCorruptPayload) {
    std::string payload = ReadFile(ShardPayloadPath(dir, 0)).value();
    payload.back() ^= 1;
    ASSERT_TRUE(WriteFile(ShardPayloadPath(dir, 0), payload).ok());
  } else if (disk == Disk::kCorruptManifest) {
    ASSERT_TRUE(WriteFile(ShardManifestPath(dir, 0), "not a manifest").ok());
  }
}

SweepGrant GrantOf(Result<std::variant<SweepGrant, SweepNoGrant>> acquired) {
  EXPECT_TRUE(acquired.ok()) << acquired.status();
  EXPECT_TRUE(std::holds_alternative<SweepGrant>(*acquired));
  return std::get<SweepGrant>(*acquired);
}

class SupervisorFaultMatrix
    : public ::testing::TestWithParam<std::tuple<FaultCase, End, bool>> {};

TEST_P(SupervisorFaultMatrix, AttemptEndIsJudgedByTheFiles) {
  const auto& [fault, end, last_attempt] = GetParam();
  const std::string dir = std::string(::testing::TempDir()) + "/matrix_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(CreateDirectories(dir).ok());
  ASSERT_TRUE(WriteShardPlan(ToySpec(),
                             ShardPlan::Create(kTotal, kShards).value(), dir)
                  .ok());
  const ShardPlanInfo info = ReadShardPlan(dir).value();

  SweepLeaseOptions options;
  options.lease_ms = kLeaseMs;
  options.max_attempts = last_attempt ? 1 : 2;
  options.backoff_initial_ms = kBackoffMs;
  options.backoff_max_ms = kBackoffMs;
  auto created = ShardLeaseTable::Create(info, dir, options);
  ASSERT_TRUE(created.ok()) << created.status();
  ShardLeaseTable table = std::move(created).value();

  const SweepGrant grant = GrantOf(table.Acquire("w", 0));
  ASSERT_EQ(grant.shard, 0);
  Leave(fault.disk, dir);
  if (HasFatalFailure()) return;

  const Verdict verdict = fault.verdict;
  // A fresh table's scan counts no attempt of its own: nothing it finds
  // is exhausted or backs off.
  const bool scan = end == End::kScan;
  const bool exhausted = verdict == Verdict::kRetry && last_attempt && !scan;
  int64_t now = 0;
  switch (end) {
    case End::kRelease: {
      now = 10;
      Result<bool> will_retry =
          table.Release(grant.lease_id, 0, fault.outcome, now);
      ASSERT_TRUE(will_retry.ok()) << will_retry.status();
      EXPECT_EQ(*will_retry, verdict == Verdict::kRetry && !exhausted);
      break;
    }
    case End::kExpiry: {
      now = kLeaseMs - 1;
      EXPECT_EQ(table.ExpireLeases(now), 0);  // the deadline is inclusive
      now = kLeaseMs;
      std::vector<uint64_t> reclaimed;
      EXPECT_EQ(table.ExpireLeases(now, &reclaimed), 1);
      EXPECT_EQ(reclaimed, std::vector<uint64_t>{grant.lease_id});
      break;
    }
    case End::kComplete: {
      now = 10;
      Result<SweepCompleteOutcome> claim =
          table.Complete(grant.lease_id, 0, ReportedDigest(dir), now);
      EXPECT_EQ(claim.status().code(), ClaimCode(fault)) << claim.status();
      if (claim.ok()) {
        EXPECT_FALSE(claim->duplicate);
        EXPECT_EQ(claim->committed, 1);
      }
      break;
    }
    case End::kScan: {
      auto rescanned = ShardLeaseTable::Create(info, dir, options);
      if (verdict == Verdict::kFailRun) {
        // A contradiction refuses service and moves nothing.
        EXPECT_EQ(rescanned.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(rescanned.status().message().find(
                      "contradicts the plan at shard 0"),
                  std::string::npos)
            << rescanned.status();
        EXPECT_TRUE(FileExists(ShardManifestPath(dir, 0)));
        EXPECT_FALSE(std::filesystem::exists(ShardQuarantineDir(dir)));
        return;
      }
      ASSERT_TRUE(rescanned.ok()) << rescanned.status();
      table = std::move(rescanned).value();
      break;
    }
  }

  // Counters: the same verdict, whichever way the attempt ended.
  const SweepServiceStats stats = table.stats();
  EXPECT_EQ(stats.leased, 0);
  EXPECT_EQ(stats.committed, verdict == Verdict::kCommitted ? 1 : 0);
  EXPECT_EQ(stats.pending, verdict == Verdict::kRetry && !exhausted ? 2 : 1);
  EXPECT_EQ(stats.resumed, scan ? stats.committed : 0);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.expired, end == End::kExpiry ? 1 : 0);
  EXPECT_EQ(stats.failed_reports,
            end == End::kRelease && !fault.outcome.ok() ? 1 : 0);
  EXPECT_EQ(stats.quarantined, fault.quarantined);
  EXPECT_EQ(table.attempts(), (std::vector<int>{scan ? 0 : 1, 0}));

  // Quarantine: both files moved under the first free tag, none left.
  const std::string evidence = ShardQuarantineDir(dir) + "/shard-0.q0";
  EXPECT_EQ(FileExists(evidence + ".bin"), fault.quarantined > 0);
  EXPECT_EQ(FileExists(evidence + ".manifest"), fault.quarantined > 0);
  if (fault.quarantined > 0) {
    EXPECT_FALSE(FileExists(ShardPayloadPath(dir, 0)));
    EXPECT_FALSE(FileExists(ShardManifestPath(dir, 0)));
  }

  // Run status, and what the table grants next.
  if (verdict == Verdict::kFailRun) {
    EXPECT_EQ(table.run_status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(table.run_status().message().find("shard 0"), std::string::npos);
    EXPECT_EQ(table.Acquire("w", now).status().code(),
              StatusCode::kInvalidArgument);
    return;
  }
  if (exhausted) {
    EXPECT_EQ(table.run_status().code(), StatusCode::kInternal);
    EXPECT_NE(table.run_status().message().find("shard 0 exhausted 1 attempts"),
              std::string::npos)
        << table.run_status();
    if (end == End::kRelease && !fault.outcome.ok()) {
      EXPECT_NE(table.run_status().message().find(fault.outcome.message()),
                std::string::npos)
          << table.run_status();
    }
    EXPECT_EQ(table.Acquire("w", now).status().code(), StatusCode::kInternal);
    return;
  }
  EXPECT_TRUE(table.run_status().ok()) << table.run_status();
  if (scan && verdict == Verdict::kRetry) {
    // Pending, not backing off: shard 0 is granted first, as attempt 1.
    const SweepGrant first = GrantOf(table.Acquire("w", now));
    EXPECT_EQ(first.shard, 0);
    EXPECT_EQ(first.attempt, 1);
    return;
  }
  EXPECT_EQ(GrantOf(table.Acquire("w", now)).shard, 1);
  if (verdict == Verdict::kRetry) {
    // Shard 0 is backing off: nothing until the backoff has passed.
    auto waiting = table.Acquire("w", now);
    ASSERT_TRUE(waiting.ok()) << waiting.status();
    EXPECT_LE(std::get<SweepNoGrant>(waiting.value()).retry_ms, kBackoffMs);
    const SweepGrant retry = GrantOf(table.Acquire("w", now + kBackoffMs));
    EXPECT_EQ(retry.shard, 0);
    EXPECT_EQ(retry.attempt, 2);
    EXPECT_EQ(table.stats().retries, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Faults, SupervisorFaultMatrix,
    ::testing::Combine(::testing::ValuesIn(Cases()),
                       ::testing::Values(End::kRelease, End::kExpiry,
                                         End::kComplete, End::kScan),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<SupervisorFaultMatrix::ParamType>&
           param) {
      return std::string(std::get<0>(param.param).name) +
             EndName(std::get<1>(param.param)) +
             (std::get<2>(param.param) ? "LastAttempt" : "");
    });

}  // namespace
}  // namespace hsis::common
