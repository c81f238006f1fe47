#include "common/sweep_service.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/file.h"
#include "common/scheduler.h"
#include "common/shard.h"

namespace hsis::common {
namespace {

std::string FreshDir(const char* name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);  // committed shards would resume
  EXPECT_TRUE(CreateDirectories(dir).ok());
  return dir;
}

/// Same irregular-record toy sweep as shard_test.cc / scheduler_test.cc,
/// so the lease table exercises the exact codec the merge validates.
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

/// The merge of `f`'s shard directory equals the serial sweep. A failed
/// merge fails the test and lets the binary go on to the next one.
void ExpectMergeEqualsSerial(const Fixture& f) {
  Result<Bytes> merged = MergeShards(f.dir, "toy");
  ASSERT_TRUE(merged.ok()) << f.dir << ": " << merged.status();
  EXPECT_EQ(*merged, SerialReference(f.spec)) << f.dir;
}

SweepLeaseOptions FastLease() {
  SweepLeaseOptions options;
  options.lease_ms = 1000;
  options.max_attempts = 3;
  options.retry_ms = 10;
  options.backoff_initial_ms = 0;  // table tests pace with the fake clock
  return options;
}

ShardLeaseTable MakeTable(const Fixture& f,
                          SweepLeaseOptions options = FastLease()) {
  auto table = ShardLeaseTable::Create(f.info, f.dir, options);
  EXPECT_TRUE(table.ok()) << table.status();
  return std::move(table).value();
}

void RunShard(const Fixture& f, int shard) {
  ASSERT_TRUE(ShardRunner(f.spec, f.plan).Run(shard, f.dir, 1).ok());
}

/// The committed manifest's payload digest, or "" (after a recorded
/// failure) when shard `shard` has no readable manifest.
std::string ShaOf(const Fixture& f, int shard) {
  auto text = ReadFile(ShardManifestPath(f.dir, shard));
  EXPECT_TRUE(text.ok()) << text.status();
  if (!text.ok()) return "";
  auto manifest = ParseShardManifest(*text);
  EXPECT_TRUE(manifest.ok()) << manifest.status();
  return manifest.ok() ? manifest->payload_sha256 : "";
}

/// The grant `acquired` holds, or a default grant (after a recorded
/// failure) when it holds none.
SweepGrant GrantOf(Result<std::variant<SweepGrant, SweepNoGrant>> acquired) {
  EXPECT_TRUE(acquired.ok()) << acquired.status();
  if (!acquired.ok()) return {};
  EXPECT_TRUE(std::holds_alternative<SweepGrant>(*acquired));
  const SweepGrant* grant = std::get_if<SweepGrant>(&*acquired);
  return grant != nullptr ? *grant : SweepGrant{};
}

// ---------------------------------------------------------------------
// Lease table: grant / complete lifecycle (fake clock throughout)
// ---------------------------------------------------------------------

TEST(ShardLeaseTableTest, GrantsInShardOrderAndDrains) {
  Fixture f = MakeFixture("lease_drain", 40, 4);
  ShardLeaseTable table = MakeTable(f);

  for (int k = 0; k < 4; ++k) {
    SweepGrant grant = GrantOf(table.Acquire("w", 0));
    EXPECT_EQ(grant.shard, k);
    EXPECT_EQ(grant.range, f.plan.Range(k));
    EXPECT_EQ(grant.attempt, 1);
    RunShard(f, k);
    auto outcome = table.Complete(grant.lease_id, k, ShaOf(f, k), 1);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_FALSE(outcome->duplicate);
    EXPECT_EQ(outcome->committed, k + 1);
  }
  EXPECT_TRUE(table.drained());
  EXPECT_TRUE(table.run_status().ok());

  auto drained = table.Acquire("w", 2);
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(std::get<SweepNoGrant>(*drained).drained);

  ExpectMergeEqualsSerial(f);
}

TEST(ShardLeaseTableTest, ConcurrentLeasesAndNoWorkRetryHint) {
  Fixture f = MakeFixture("lease_nowork", 20, 2);
  ShardLeaseTable table = MakeTable(f);

  SweepGrant a = GrantOf(table.Acquire("w1", 0));
  SweepGrant b = GrantOf(table.Acquire("w2", 0));
  EXPECT_NE(a.shard, b.shard);

  auto none = table.Acquire("w3", 0);
  ASSERT_TRUE(none.ok());
  const auto& no_grant = std::get<SweepNoGrant>(*none);
  EXPECT_FALSE(no_grant.drained);
  EXPECT_GT(no_grant.retry_ms, 0);
  EXPECT_EQ(table.stats().leased, 2);
}

TEST(ShardLeaseTableTest, ExpiredLeaseIsRegranted) {
  Fixture f = MakeFixture("lease_expiry", 20, 2);
  ShardLeaseTable table = MakeTable(f);

  SweepGrant first = GrantOf(table.Acquire("slow", 0));
  EXPECT_EQ(first.shard, 0);

  // One tick before the deadline the lease still holds.
  EXPECT_EQ(table.ExpireLeases(999), 0);
  // At the deadline the shard is reclaimed and re-granted.
  SweepGrant second = GrantOf(table.Acquire("fresh", 1000));
  EXPECT_EQ(second.shard, 0);
  EXPECT_EQ(second.attempt, 2);
  EXPECT_NE(second.lease_id, first.lease_id);
  EXPECT_EQ(table.stats().expired, 1);
  EXPECT_EQ(table.stats().retries, 1);
}

TEST(ShardLeaseTableTest, HeartbeatKeepsASlowWorkerAlive) {
  Fixture f = MakeFixture("lease_heartbeat", 20, 2);
  ShardLeaseTable table = MakeTable(f);

  SweepGrant grant = GrantOf(table.Acquire("slow", 0));
  for (int64_t now = 800; now <= 4000; now += 800) {
    auto renewed = table.Renew(grant.lease_id, grant.shard, now);
    ASSERT_TRUE(renewed.ok()) << renewed.status();
    EXPECT_EQ(*renewed, 1000);
  }
  // Well past the original deadline, the lease survives...
  EXPECT_EQ(table.ExpireLeases(4500), 0);
  RunShard(f, grant.shard);
  auto outcome =
      table.Complete(grant.lease_id, grant.shard, ShaOf(f, grant.shard), 4600);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->duplicate);
  EXPECT_EQ(table.stats().expired, 0);

  // ...but without renewal it would not have: the renewed deadline
  // still expires eventually.
  SweepGrant other = GrantOf(table.Acquire("slow", 4600));
  EXPECT_EQ(table.ExpireLeases(5600), 1);
  auto renewed = table.Renew(other.lease_id, other.shard, 5700);
  EXPECT_EQ(renewed.status().code(), StatusCode::kNotFound);
}

TEST(ShardLeaseTableTest, DuplicateCompletionIsIdempotent) {
  Fixture f = MakeFixture("lease_duplicate", 20, 2);
  ShardLeaseTable table = MakeTable(f);

  SweepGrant grant = GrantOf(table.Acquire("w", 0));
  RunShard(f, grant.shard);
  const std::string sha = ShaOf(f, grant.shard);
  ASSERT_TRUE(table.Complete(grant.lease_id, grant.shard, sha, 1).ok());

  auto again = table.Complete(grant.lease_id, grant.shard, sha, 2);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->duplicate);
  EXPECT_EQ(table.stats().committed, 1);

  // A duplicate with a contradicting digest is not acknowledged.
  auto wrong =
      table.Complete(grant.lease_id, grant.shard, std::string(64, '0'), 3);
  EXPECT_EQ(wrong.status().code(), StatusCode::kIntegrityViolation);
}

TEST(ShardLeaseTableTest, WorkerDeadAfterCommitIsReclaimedAsCommitted) {
  Fixture f = MakeFixture("lease_dead_commit", 20, 2);
  ShardLeaseTable table = MakeTable(f);

  SweepGrant grant = GrantOf(table.Acquire("doomed", 0));
  RunShard(f, grant.shard);  // committed, but the worker dies unreported

  EXPECT_EQ(table.ExpireLeases(1000), 1);
  EXPECT_EQ(table.stats().committed, 1);
  EXPECT_EQ(table.stats().expired, 1);

  // The zombie's late claim over the dead lease is a duplicate, not an
  // error — records are pure functions of the index.
  auto late =
      table.Complete(grant.lease_id, grant.shard, ShaOf(f, grant.shard), 2000);
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_TRUE(late->duplicate);
}

TEST(ShardLeaseTableTest, CompletionClaimWithoutFilesIsRejected) {
  Fixture f = MakeFixture("lease_phantom", 20, 2);
  ShardLeaseTable table = MakeTable(f);

  SweepGrant grant = GrantOf(table.Acquire("liar", 0));
  auto claim =
      table.Complete(grant.lease_id, grant.shard, std::string(64, 'a'), 1);
  EXPECT_EQ(claim.status().code(), StatusCode::kNotFound);

  // The attempt is consumed and the shard goes back to pending.
  SweepGrant retry = GrantOf(table.Acquire("honest", 2));
  EXPECT_EQ(retry.shard, grant.shard);
  EXPECT_EQ(retry.attempt, 2);
}

TEST(ShardLeaseTableTest, CorruptCompletionQuarantinesThenRecovers) {
  Fixture f = MakeFixture("lease_corrupt", 20, 2);
  ShardLeaseTable table = MakeTable(f);

  SweepGrant grant = GrantOf(table.Acquire("w", 0));
  RunShard(f, grant.shard);
  const std::string sha = ShaOf(f, grant.shard);
  // Corrupt the payload after the manifest was written.
  auto payload = ReadFile(ShardPayloadPath(f.dir, grant.shard));
  ASSERT_TRUE(payload.ok());
  std::string corrupted = *payload;
  corrupted.back() ^= 1;
  ASSERT_TRUE(WriteFile(ShardPayloadPath(f.dir, grant.shard), corrupted).ok());

  auto claim = table.Complete(grant.lease_id, grant.shard, sha, 1);
  EXPECT_EQ(claim.status().code(), StatusCode::kIntegrityViolation);
  EXPECT_EQ(table.stats().quarantined, 2);  // payload + manifest moved
  EXPECT_TRUE(FileExists(ShardQuarantineDir(f.dir) + "/shard-" +
                         std::to_string(grant.shard) + ".q0.bin"));

  // The shard re-grants, re-runs clean, and the merge is still serial.
  SweepGrant retry = GrantOf(table.Acquire("w", 2));
  EXPECT_EQ(retry.shard, grant.shard);
  RunShard(f, retry.shard);
  ASSERT_TRUE(
      table.Complete(retry.lease_id, retry.shard, ShaOf(f, retry.shard), 3)
          .ok());
  SweepGrant other = GrantOf(table.Acquire("w", 4));
  RunShard(f, other.shard);
  ASSERT_TRUE(
      table.Complete(other.lease_id, other.shard, ShaOf(f, other.shard), 5)
          .ok());
  EXPECT_TRUE(table.drained());
  ExpectMergeEqualsSerial(f);
}

TEST(ShardLeaseTableTest, AttemptExhaustionFailsTheRun) {
  Fixture f = MakeFixture("lease_exhaust", 20, 2);
  SweepLeaseOptions options = FastLease();
  options.max_attempts = 2;
  ShardLeaseTable table = MakeTable(f, options);

  int64_t now = 0;
  for (int attempt = 1; attempt <= 2; ++attempt) {
    SweepGrant grant = GrantOf(table.Acquire("crashy", now));
    EXPECT_EQ(grant.shard, 0);
    EXPECT_EQ(grant.attempt, attempt);
    now += options.lease_ms;  // worker dies, lease expires
  }
  table.ExpireLeases(now);
  EXPECT_EQ(table.run_status().code(), StatusCode::kInternal);
  EXPECT_NE(table.run_status().message().find("shard 0"), std::string::npos);

  auto refused = table.Acquire("w", now + 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kInternal);
}

TEST(ShardLeaseTableTest, WorkerFailureReportRequeuesWithBackoff) {
  Fixture f = MakeFixture("lease_fail_report", 20, 2);
  SweepLeaseOptions options = FastLease();
  options.backoff_initial_ms = 100;
  options.backoff_max_ms = 400;
  ShardLeaseTable table = MakeTable(f, options);

  SweepGrant grant = GrantOf(table.Acquire("w", 0));
  auto will_retry = table.ReportFailure(grant.lease_id, grant.shard,
                                        "injected failure", 10);
  ASSERT_TRUE(will_retry.ok()) << will_retry.status();
  EXPECT_TRUE(*will_retry);
  EXPECT_EQ(table.stats().failed_reports, 1);

  // Shard 0 is backing off: the next grant is shard 1, and the no-work
  // hint for a third worker is bounded by the remaining backoff.
  SweepGrant other = GrantOf(table.Acquire("w2", 10));
  EXPECT_EQ(other.shard, 1);
  auto none = table.Acquire("w3", 10);
  ASSERT_TRUE(none.ok());
  EXPECT_LE(std::get<SweepNoGrant>(*none).retry_ms, 100);

  // After the backoff the shard re-grants.
  SweepGrant retry = GrantOf(table.Acquire("w3", 110));
  EXPECT_EQ(retry.shard, 0);
  EXPECT_EQ(retry.attempt, 2);

  // Reporting a reclaimed lease is NotFound, not a crash.
  auto stale = table.ReportFailure(grant.lease_id, grant.shard, "late", 200);
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
}

TEST(ShardLeaseTableTest, RenewRejectsShardMismatch) {
  Fixture f = MakeFixture("lease_mismatch", 20, 2);
  ShardLeaseTable table = MakeTable(f);
  SweepGrant grant = GrantOf(table.Acquire("w", 0));
  auto renewed = table.Renew(grant.lease_id, grant.shard + 1, 1);
  EXPECT_EQ(renewed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardLeaseTableTest, StartupScanResumesCommittedShards) {
  Fixture f = MakeFixture("lease_resume", 30, 3);
  RunShard(f, 0);
  RunShard(f, 2);

  ShardLeaseTable table = MakeTable(f);
  SweepServiceStats stats = table.stats();
  EXPECT_EQ(stats.resumed, 2);
  EXPECT_EQ(stats.committed, 2);
  EXPECT_EQ(stats.pending, 1);

  SweepGrant grant = GrantOf(table.Acquire("w", 0));
  EXPECT_EQ(grant.shard, 1);
  RunShard(f, 1);
  ASSERT_TRUE(table.Complete(grant.lease_id, 1, ShaOf(f, 1), 1).ok());
  EXPECT_TRUE(table.drained());
  ExpectMergeEqualsSerial(f);
}

TEST(ShardLeaseTableTest, StartupScanQuarantinesCorruptShards) {
  Fixture f = MakeFixture("lease_scan_corrupt", 30, 3);
  RunShard(f, 1);
  ASSERT_TRUE(
      WriteFile(ShardPayloadPath(f.dir, 1), "truncated garbage").ok());

  ShardLeaseTable table = MakeTable(f);
  EXPECT_EQ(table.stats().quarantined, 2);  // payload + manifest moved
  EXPECT_EQ(table.stats().resumed, 0);
  EXPECT_EQ(table.stats().pending, 3);
}

TEST(ShardLeaseTableTest, StartupScanRefusesContradictingDirectory) {
  Fixture f = MakeFixture("lease_scan_contradiction", 30, 3);
  RunShard(f, 0);
  // Stand shard 0's files in for shard 1: parses fine, contradicts the
  // plan — an operator error, not a transient fault.
  ASSERT_TRUE(std::filesystem::copy_file(
      ShardPayloadPath(f.dir, 0), ShardPayloadPath(f.dir, 1)));
  ASSERT_TRUE(std::filesystem::copy_file(
      ShardManifestPath(f.dir, 0), ShardManifestPath(f.dir, 1)));

  auto table = ShardLeaseTable::Create(f.info, f.dir, FastLease());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardLeaseTableTest, ValidatesOptions) {
  Fixture f = MakeFixture("lease_options", 10, 1);
  SweepLeaseOptions bad = FastLease();
  bad.lease_ms = 0;
  EXPECT_EQ(ShardLeaseTable::Create(f.info, f.dir, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = FastLease();
  bad.max_attempts = 0;
  EXPECT_EQ(ShardLeaseTable::Create(f.info, f.dir, bad).status().code(),
            StatusCode::kInvalidArgument);
}

/// Re-runs `shards` on a thread, as a worker whose lease expired does,
/// until destroyed. Construction returns once one rewrite has landed,
/// so whatever follows overlaps the rewrites.
class StaleWriter {
 public:
  StaleWriter(const Fixture& f, std::vector<int> shards)
      : thread_([this, &f, shards = std::move(shards)] {
          const ShardRunner runner(f.spec, f.plan);
          while (!stop_.load()) {
            for (int k : shards) EXPECT_TRUE(runner.Run(k, f.dir, 1).ok());
            rewrites_.fetch_add(1);
          }
        }) {
    while (rewrites_.load() == 0) std::this_thread::yield();
  }

  ~StaleWriter() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> rewrites_{0};
  std::thread thread_;
};

TEST(ShardLeaseTableTest, StaleWriterCannotTearACommittedShard) {
  // A worker whose lease expired keeps rewriting its shard while the
  // re-grantee's completion is judged and while the drain merges.
  // Duplicate runs write identical bytes, and a commit is a rename, so
  // every judgement and every merge must read a whole shard.
  constexpr int kShards = 8;
  Fixture f = MakeFixture("lease_stale_writer", 512, kShards);
  f.spec.record = [](size_t i) -> Result<Bytes> {
    return ToBytes(std::string(1024, static_cast<char>('a' + i % 26)) + "\n");
  };
  ShardLeaseTable table = MakeTable(f);
  int64_t now = 0;
  for (int k = 0; k < kShards; ++k) {
    SweepGrant stale = GrantOf(table.Acquire("stale", now));
    ASSERT_EQ(stale.shard, k);
    now += FastLease().lease_ms;  // never renewed: reclaimed, re-granted
    SweepGrant fresh = GrantOf(table.Acquire("fresh", now));
    ASSERT_EQ(fresh.shard, k);
    RunShard(f, k);
    const std::string sha = ShaOf(f, k);
    StaleWriter writer(f, {k});
    auto outcome = table.Complete(fresh.lease_id, k, sha, now);
    ASSERT_TRUE(outcome.ok()) << "shard " << k << ": " << outcome.status();
  }
  EXPECT_TRUE(table.drained());
  EXPECT_EQ(table.stats().quarantined, 0);

  StaleWriter writer(f, {0, 1, 2, 3, 4, 5, 6, 7});
  const Bytes reference = SerialReference(f.spec);
  for (int i = 0; i < 20; ++i) {
    auto merged = MergeShards(f.dir, "toy");
    ASSERT_TRUE(merged.ok()) << "merge " << i << ": " << merged.status();
    EXPECT_EQ(*merged, reference);
  }
}

TEST(ShardLeaseTableTest, LeftoverTemporariesAreIgnored) {
  // A writer killed between writing its temporary and renaming it
  // leaves `<file>.tmp.<pid>.<n>` behind. The startup scan, the
  // quarantine and the merge name shard files exactly, so none of them
  // reads, moves or counts one.
  Fixture f = MakeFixture("lease_leftover_tmp", 30, 3);
  RunShard(f, 0);
  RunShard(f, 1);
  ASSERT_TRUE(WriteFile(ShardPayloadPath(f.dir, 1), "truncated garbage").ok());
  std::vector<std::string> leftovers;
  for (int k = 0; k < 3; ++k) {
    for (const std::string& file :
         {ShardPayloadPath(f.dir, k), ShardManifestPath(f.dir, k)}) {
      leftovers.push_back(file + ".tmp.99999." + std::to_string(k));
      ASSERT_TRUE(WriteFile(leftovers.back(), "leftover").ok());
    }
  }

  ShardLeaseTable table = MakeTable(f);
  EXPECT_EQ(table.stats().resumed, 1);
  EXPECT_EQ(table.stats().quarantined, 2);  // shard 1's pair, nothing else
  for (int k = 1; k < 3; ++k) {
    SweepGrant grant = GrantOf(table.Acquire("w", 0));
    EXPECT_EQ(grant.shard, k);
    RunShard(f, k);
    ASSERT_TRUE(table.Complete(grant.lease_id, k, ShaOf(f, k), 1).ok());
  }
  EXPECT_TRUE(table.drained());
  ExpectMergeEqualsSerial(f);
  for (const std::string& leftover : leftovers) {
    EXPECT_EQ(ReadFile(leftover).value(), "leftover") << leftover;
  }
}

// ---------------------------------------------------------------------
// The TCP daemon + client (real sockets, loopback, short real leases)
// ---------------------------------------------------------------------

std::unique_ptr<SweepService> StartService(const Fixture& f,
                                           int64_t lease_ms = 60000) {
  SweepServiceOptions options;
  options.lease.lease_ms = lease_ms;
  options.lease.backoff_initial_ms = 0;
  options.lease.retry_ms = 5;
  options.expiry_poll_ms = 5;
  auto service = SweepService::Start(f.info, f.dir, options);
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(service).value();
}

std::unique_ptr<SweepServiceClient> Connect(const SweepService& service) {
  auto client = SweepServiceClient::Connect("127.0.0.1", service.port());
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(client).value();
}

// The library's worker loop over the RPC client, until drained.
void DrainWith(const Fixture& f, SweepServiceClient& client,
               const std::string& name,
               const std::function<void(const SweepFrame&)>& on_reply = {}) {
  LeaseWorkerOptions options;
  options.worker = name;
  auto end = RunLeaseWorker(client, f.info, ShardRunner(f.spec, f.plan), f.dir,
                            options, on_reply);
  ASSERT_TRUE(end.ok()) << end.status();
  EXPECT_EQ(end->kind, LeaseWorkerEnd::Kind::kDrained);
}

void DrainWorker(const Fixture& f, const SweepService& service,
                 const std::string& name) {
  auto client = SweepServiceClient::Connect("127.0.0.1", service.port());
  ASSERT_TRUE(client.ok()) << client.status();
  DrainWith(f, **client, name);
}

/// Bounds a real-daemon drain: unless destroyed within `kDrainDeadline`,
/// records a failure and stops the service, so a drain that never ends
/// (a completion the daemon keeps refusing) fails the test instead of
/// hanging it: the workers see the daemon gone and `WaitUntilDone`
/// returns. Declare it after the service it guards.
class DrainDeadline {
 public:
  static constexpr std::chrono::seconds kDrainDeadline{30};

  explicit DrainDeadline(SweepService& service)
      : thread_([this, &service] {
          std::unique_lock<std::mutex> lock(mu_);
          if (cv_.wait_for(lock, kDrainDeadline, [this] { return done_; })) {
            return;
          }
          lock.unlock();
          ADD_FAILURE() << "the drain did not finish within "
                        << kDrainDeadline.count() << " s; stopping the daemon";
          service.Stop();
        }) {}

  DrainDeadline(const DrainDeadline&) = delete;
  DrainDeadline& operator=(const DrainDeadline&) = delete;

  ~DrainDeadline() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

template <typename T>
bool Is(const SweepFrame& frame) {
  return std::holds_alternative<T>(frame);
}

/// Asserts that `Start` rejects `options` with an InvalidArgument naming
/// `field`. The status is checked before anything else touches the
/// daemon; a daemon that was wrongly started is leaked, not stopped, so
/// a service loop stuck in an unbounded poll cannot hang the test.
void ExpectStartRejects(const Fixture& f, const SweepServiceOptions& options,
                        const std::string& field) {
  auto service = SweepService::Start(f.info, f.dir, options);
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument) << field;
  EXPECT_NE(service.status().message().find(field), std::string::npos)
      << service.status();
  if (service.ok()) (void)std::move(service).value().release();
}

TEST(SweepServiceTest, StartRejectsOutOfRangePollAndPort) {
  Fixture f = MakeFixture("svc_bad_options", 4, 2);
  for (int64_t poll_ms :
       {int64_t{0}, int64_t{1} << 31, (int64_t{1} << 32) - 1}) {
    SweepServiceOptions options;
    options.expiry_poll_ms = poll_ms;
    ExpectStartRejects(f, options, "expiry_poll_ms");
  }
  for (int port : {-1, 65536}) {
    SweepServiceOptions options;
    options.port = port;
    ExpectStartRejects(f, options, "port");
  }
}

TEST(SweepServiceTest, BadHostIsRejectedBeforeTheStartupScan) {
  // The startup scan quarantines corrupt shards; a start rejected for
  // its host must not have run it.
  Fixture f = MakeFixture("svc_bad_host", 30, 3);
  RunShard(f, 0);
  ASSERT_TRUE(WriteFile(ShardPayloadPath(f.dir, 0), "truncated garbage").ok());
  for (const char* host : {"localhost", "256.0.0.1"}) {
    SweepServiceOptions options;
    options.host = host;
    ExpectStartRejects(f, options, "host");
    EXPECT_FALSE(FileExists(ShardQuarantineDir(f.dir))) << host;
    Result<std::string> payload = ReadFile(ShardPayloadPath(f.dir, 0));
    ASSERT_TRUE(payload.ok()) << host << ": " << payload.status();
    EXPECT_EQ(*payload, "truncated garbage") << host;
    EXPECT_TRUE(FileExists(ShardManifestPath(f.dir, 0))) << host;
  }
}

TEST(SweepServiceTest, StartRejectsEachBadLeaseOption) {
  Fixture f = MakeFixture("svc_bad_lease", 4, 2);
  struct Case {
    const char* field;
    void (*spoil)(SweepLeaseOptions&);
  };
  const Case cases[] = {
      {"lease_ms", [](SweepLeaseOptions& o) { o.lease_ms = 0; }},
      {"max_attempts", [](SweepLeaseOptions& o) { o.max_attempts = 0; }},
      {"retry_ms", [](SweepLeaseOptions& o) { o.retry_ms = 0; }},
      {"backoff_initial_ms",
       [](SweepLeaseOptions& o) { o.backoff_initial_ms = -1; }},
      {"backoff_max_ms", [](SweepLeaseOptions& o) { o.backoff_max_ms = -1; }},
  };
  for (const Case& c : cases) {
    SweepServiceOptions options;
    c.spoil(options.lease);
    ExpectStartRejects(f, options, c.field);
  }
}

TEST(SweepServiceTest, ConcurrentWorkersDrainByteIdentical) {
  Fixture f = MakeFixture("svc_drain", 60, 6);
  auto service = StartService(f);
  DrainDeadline deadline(*service);

  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back(
        [&f, &service, w] {
          DrainWorker(f, *service, std::string("w").append(std::to_string(w)));
        });
  }
  for (auto& t : workers) t.join();

  EXPECT_TRUE(service->WaitUntilDone().ok());
  EXPECT_TRUE(service->drained());
  service->Stop();
  ExpectMergeEqualsSerial(f);
}

TEST(SweepServiceTest, AbandonedLeaseExpiresAndRegrants) {
  Fixture f = MakeFixture("svc_expiry", 20, 2);
  auto service = StartService(f, /*lease_ms=*/100);
  DrainDeadline deadline(*service);

  {
    // This client takes a lease and vanishes without completing — the
    // daemon's own expiry poll must reclaim it.
    auto doomed = Connect(*service);
    auto lease = doomed->RequestLease("doomed");
    ASSERT_TRUE(lease.ok()) << lease.status();
    ASSERT_TRUE(std::holds_alternative<SweepLeaseGrant>(*lease));
  }

  DrainWorker(f, *service, "survivor");
  EXPECT_TRUE(service->WaitUntilDone().ok());
  SweepStatusReply snap = service->Snapshot();
  EXPECT_GE(snap.expired, 1u);
  EXPECT_GE(snap.retries, 1u);
  service->Stop();
  ExpectMergeEqualsSerial(f);
}

TEST(SweepServiceTest, DaemonRestartResumesCommittedShards) {
  Fixture f = MakeFixture("svc_restart", 40, 4);
  {
    auto first = StartService(f);
    auto client = Connect(*first);
    ShardRunner runner(f.spec, f.plan);
    for (int i = 0; i < 2; ++i) {
      auto lease = client->RequestLease("w");
      ASSERT_TRUE(lease.ok());
      const auto& grant = std::get<SweepLeaseGrant>(*lease);
      const int shard = static_cast<int>(grant.shard);
      ASSERT_TRUE(runner.Run(shard, f.dir, 1).ok());
      auto manifest = ParseShardManifest(
          ReadFile(ShardManifestPath(f.dir, shard)).value());
      ASSERT_TRUE(
          client->Complete(grant.lease_id, shard, manifest->payload_sha256)
              .ok());
    }
    first->Stop();  // daemon dies with 2 of 4 shards committed
  }

  auto second = StartService(f);
  DrainDeadline deadline(*second);
  SweepStatusReply snap = second->Snapshot();
  EXPECT_EQ(snap.resumed, 2u);
  EXPECT_EQ(snap.committed, 2u);

  DrainWorker(f, *second, "w");
  EXPECT_TRUE(second->WaitUntilDone().ok());
  second->Stop();
  ExpectMergeEqualsSerial(f);
}

TEST(SweepServiceTest, FailRpcRetriesTheShardAndTheDrainMergesByteIdentical) {
  Fixture f = MakeFixture("svc_fail_rpc", 30, 3);
  auto service = StartService(f);
  DrainDeadline deadline(*service);
  auto client = Connect(*service);

  auto lease = client->RequestLease("flaky");
  ASSERT_TRUE(lease.ok()) << lease.status();
  ASSERT_TRUE(std::holds_alternative<SweepLeaseGrant>(*lease));
  const SweepLeaseGrant failed = std::get<SweepLeaseGrant>(*lease);
  auto ack = client->ReportFailure(failed.lease_id,
                                   static_cast<int>(failed.shard),
                                   "injected failure");
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->shard, failed.shard);
  EXPECT_EQ(ack->will_retry, 1);

  // Drain on the same connection, noting every shard granted.
  std::vector<uint32_t> granted;
  DrainWith(f, *client, "flaky", [&](const SweepFrame& reply) {
    if (const auto* grant = std::get_if<SweepLeaseGrant>(&reply)) {
      granted.push_back(grant->shard);
    }
  });
  EXPECT_EQ(std::count(granted.begin(), granted.end(), failed.shard), 1)
      << "the failed shard must be granted again, once";
  EXPECT_EQ(granted.size(), 3u);

  EXPECT_TRUE(service->WaitUntilDone().ok());
  EXPECT_GE(service->Snapshot().retries, 1u);
  service->Stop();
  ExpectMergeEqualsSerial(f);
}

TEST(SweepServiceTest, LongFailureMessageIsReportedWithinTheWireCap) {
  // A shard failure whose message is longer than the wire's string cap
  // still reaches the daemon as a `fail` report, cut to the cap, and
  // the worker drains on once the shard's next attempt succeeds.
  Fixture f = MakeFixture("svc_long_failure", 20, 2);
  auto service = StartService(f);
  auto client = Connect(*service);
  std::atomic<int> failures{1};
  ShardSweepSpec flaky = f.spec;
  flaky.record = [&f, &failures](size_t i) -> Result<Bytes> {
    if (i == 0 && failures.fetch_sub(1) > 0) {
      return Status::Internal(std::string(kSweepWireMaxString + 1, 'x'));
    }
    return f.spec.record(i);
  };
  LeaseWorkerOptions options;
  options.worker = "w";
  std::vector<SweepFrame> replies;
  auto end = RunLeaseWorker(
      *client, f.info, ShardRunner(flaky, f.plan), f.dir, options,
      [&](const SweepFrame& reply) { replies.push_back(reply); });
  ASSERT_TRUE(end.ok()) << end.status();
  ASSERT_EQ(end->kind, LeaseWorkerEnd::Kind::kDrained);
  EXPECT_EQ(std::count_if(replies.begin(), replies.end(), Is<SweepFailAck>),
            1);
  EXPECT_TRUE(service->WaitUntilDone().ok());
  service->Stop();
  ExpectMergeEqualsSerial(f);
}

TEST(SweepServiceTest, StatusAndShutdownRpcs) {
  Fixture f = MakeFixture("svc_status", 20, 2);
  auto service = StartService(f);
  auto client = Connect(*service);

  auto status = client->QueryStatus();
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(status->sweep, "toy");
  EXPECT_EQ(status->shards, 2u);
  EXPECT_EQ(status->committed, 0u);
  EXPECT_EQ(status->drained, 0u);

  auto ack = client->RequestShutdown();
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->shards, 2u);

  Status done = service->WaitUntilDone();
  EXPECT_EQ(done.code(), StatusCode::kFailedPrecondition);
  service->Stop();
}

TEST(SweepServiceTest, HeartbeatRpcRenewsAndExpiredLeaseIsNotFound) {
  Fixture f = MakeFixture("svc_heartbeat", 20, 2);
  auto service = StartService(f, /*lease_ms=*/150);
  auto client = Connect(*service);

  auto lease = client->RequestLease("w");
  ASSERT_TRUE(lease.ok());
  const auto& grant = std::get<SweepLeaseGrant>(*lease);
  EXPECT_EQ(grant.lease_ms, 150u);

  // Renew a few times across what would have been the deadline.
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    auto ack = client->Heartbeat(grant.lease_id, static_cast<int>(grant.shard));
    ASSERT_TRUE(ack.ok()) << ack.status();
    EXPECT_EQ(ack->lease_ms, 150u);
  }
  // Stop renewing: the daemon's expiry poll reclaims the lease.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto stale = client->Heartbeat(grant.lease_id, static_cast<int>(grant.shard));
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
  service->Stop();
}

TEST(SweepServiceTest, MalformedFrameGetsTypedErrorAndPoisonedConnection) {
  Fixture f = MakeFixture("svc_malformed", 20, 2);
  auto service = StartService(f);
  auto client = Connect(*service);

  // The RPC surface cannot send a reply-type frame; the raw-socket
  // test below does. This one drives a malformed complete (a short
  // digest) through the client, which the daemon's strict codec
  // rejects with a typed ProtocolViolation before closing.
  SweepServiceClient* raw = client.get();
  auto bogus = raw->Complete(1, 0, std::string(63, 'a'));  // short digest
  EXPECT_EQ(bogus.status().code(), StatusCode::kProtocolViolation);

  // The connection was poisoned client-side too (strict codec): a new
  // connection still works.
  auto fresh = Connect(*service);
  EXPECT_TRUE(fresh->QueryStatus().ok());
  service->Stop();
}

// ---------------------------------------------------------------------
// Raw sockets against the live daemon: framing defects, and the poll
// loop's bounds (one thread, connection cap, mid-exchange deadline)
// ---------------------------------------------------------------------

/// A blocking loopback socket connected to the daemon, with a receive
/// timeout so a daemon that never answers fails the test instead of
/// hanging it. `buffer_bytes` > 0 shrinks both socket buffers.
int RawConnect(const SweepService& service, int64_t timeout_ms = 5000,
               int buffer_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (buffer_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer_bytes,
                 sizeof(buffer_bytes));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buffer_bytes,
                 sizeof(buffer_bytes));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(service.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void SendRaw(int fd, const Bytes& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

Bytes Framed(const Bytes& body) {
  Bytes wire;
  AppendUint32BE(wire, static_cast<uint32_t>(body.size()));
  Append(wire, body);
  return wire;
}

TEST(SweepServiceTest, RawFramingDefectsGetViolationThenEof) {
  Fixture f = MakeFixture("svc_raw_defects", 20, 2);
  auto service = StartService(f);
  SweepStatusReply reply_type;
  reply_type.sweep = "toy";
  Bytes zero_prefix, oversized_prefix;
  AppendUint32BE(zero_prefix, 0);
  AppendUint32BE(oversized_prefix, kSweepWireMaxFrame + 1);
  for (const Bytes& sent :
       {Framed(SerializeSweepFrame(SweepFrame(reply_type))), zero_prefix,
        oversized_prefix}) {
    int fd = RawConnect(*service);
    SendRaw(fd, sent);
    // One error frame with code 8 (ProtocolViolation), then a clean EOF.
    auto body = ReadSweepFrame(fd);
    ASSERT_TRUE(body.ok()) << body.status();
    auto reply = ParseSweepFrame(*body);
    ASSERT_TRUE(reply.ok()) << reply.status();
    const auto* err = std::get_if<SweepErrorReply>(&*reply);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, 8);
    EXPECT_EQ(ReadSweepFrame(fd).status().code(), StatusCode::kNotFound);
    ::close(fd);
  }
  EXPECT_TRUE(Connect(*service)->QueryStatus().ok());
  service->Stop();
}

int TaskCount() {
  int n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SweepServiceTest, OneServiceThreadForManyIdleConnections) {
  Fixture f = MakeFixture("svc_threads", 20, 2);
  const int base = TaskCount();
  auto service = StartService(f);
  EXPECT_EQ(TaskCount(), base + 1);

  std::vector<std::unique_ptr<SweepServiceClient>> idle;
  for (int i = 0; i < 64; ++i) {
    idle.push_back(Connect(*service));
    ASSERT_TRUE(idle.back()->QueryStatus().ok());  // accepted and served
  }
  EXPECT_EQ(TaskCount(), base + 1);
  // Idle connections are never timed out.
  for (auto& client : idle) EXPECT_TRUE(client->QueryStatus().ok());
  service->Stop();
}

TEST(SweepServiceTest, SlowLorisIsClosedWhileADrainFinishes) {
  Fixture f = MakeFixture("svc_slow_loris", 60, 6);
  constexpr int64_t kLeaseMs = 300;
  auto service = StartService(f, kLeaseMs);
  DrainDeadline deadline(*service);

  // Half a length prefix, then silence.
  int loris = RawConnect(*service, /*timeout_ms=*/kLeaseMs + 5 + 3000);
  const auto sent_at = std::chrono::steady_clock::now();
  SendRaw(loris, Bytes{0, 0});
  std::thread worker([&] { DrainWorker(f, *service, "w"); });

  // The daemon closes the stalled connection once it has made no
  // progress for lease_ms (checked on each expiry_poll_ms tick).
  uint8_t byte = 0;
  EXPECT_EQ(::recv(loris, &byte, 1, 0), 0);
  const int64_t waited_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - sent_at)
          .count();
  EXPECT_GE(waited_ms, kLeaseMs - 1);
  ::close(loris);

  worker.join();
  EXPECT_TRUE(service->WaitUntilDone().ok());
  service->Stop();
  ExpectMergeEqualsSerial(f);
}

TEST(SweepServiceTest, FloodBeyondCapGetsTypedRejection) {
  Fixture f = MakeFixture("svc_flood", 40, 4);
  auto service = StartService(f);
  DrainDeadline deadline(*service);

  std::vector<std::unique_ptr<SweepServiceClient>> held;
  for (int i = 0; i < kSweepServiceMaxConnections; ++i) {
    held.push_back(Connect(*service));
    ASSERT_TRUE(held.back()->QueryStatus().ok()) << i;
  }
  for (int i = 0; i < 3; ++i) {
    auto extra = Connect(*service);
    auto status = extra->QueryStatus();
    EXPECT_EQ(status.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(status.status().message().find(
                  std::to_string(kSweepServiceMaxConnections)),
              std::string::npos)
        << status.status();
  }

  // The served connections are unaffected: one of them drains.
  DrainWith(f, *held.back(), "w");
  EXPECT_TRUE(service->WaitUntilDone().ok());
  EXPECT_TRUE(held.front()->QueryStatus().ok());
  service->Stop();
  ExpectMergeEqualsSerial(f);
}

TEST(SweepServiceTest, ClientThatNeverReadsIsClosed) {
  Fixture f = MakeFixture("svc_non_reader", 40, 4);
  constexpr int64_t kLeaseMs = 300;
  auto service = StartService(f, kLeaseMs);
  DrainDeadline deadline(*service);

  // Small buffers so the reply direction fills quickly.
  int hog = RawConnect(*service, /*timeout_ms=*/5000, /*buffer_bytes=*/4096);

  // Pipeline status requests without reading a single reply, until the
  // daemon stops reading: its replies back up until one no longer fits
  // its send buffer, and it reads nothing more while that reply is
  // owed. An unwritable socket alone does not show that: a slowed
  // daemon (a sanitizer build on a loaded machine) still reading the
  // backlog leaves it unwritable too, then answers the whole backlog
  // into its send buffer and goes idle, which is rightly never closed.
  // So the loop ends only once the unsent bytes have stopped draining
  // for two seconds.
  Bytes batch;
  const Bytes request = Framed(SerializeSweepFrame(SweepStatusRequest{}));
  for (int i = 0; i < 1024; ++i) Append(batch, request);
  size_t off = 0;
  int unsent = -1;
  int idle_polls = 0;
  for (;;) {
    ssize_t w = ::send(hog, batch.data() + off, batch.size() - off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      off = (off + static_cast<size_t>(w)) % batch.size();
      continue;
    }
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;  // closed
    pollfd writable{hog, POLLOUT, 0};
    if (::poll(&writable, 1, 500) != 0) continue;
    int queued = 0;
    ASSERT_EQ(::ioctl(hog, SIOCOUTQ, &queued), 0);
    idle_polls = queued == unsent ? idle_polls + 1 : 0;
    unsent = queued;
    if (idle_polls == 4) break;  // the daemon has stopped reading
  }

  // Other clients are served meanwhile, and a drain completes.
  EXPECT_TRUE(Connect(*service)->QueryStatus().ok());
  DrainWorker(f, *service, "w");
  EXPECT_TRUE(service->WaitUntilDone().ok());

  // The hog is closed (RST or FIN) once its reply has made no progress
  // for lease_ms.
  pollfd hup{hog, POLLRDHUP, 0};
  ASSERT_EQ(::poll(&hup, 1, static_cast<int>(kLeaseMs) + 5000), 1);
  EXPECT_NE(hup.revents & (POLLRDHUP | POLLHUP | POLLERR), 0);
  ::close(hog);
  service->Stop();
  ExpectMergeEqualsSerial(f);
}

// ---------------------------------------------------------------------
// The RPC client against a scripted fake daemon (raw loopback socket):
// every transport failure or protocol violation poisons the connection,
// so no later RPC reads a late or partial reply as its answer.
// ---------------------------------------------------------------------

/// A one-connection daemon on loopback: `script(fd)` runs on its own
/// thread against the accepted connection, which is closed afterwards.
/// `receive_buffer` > 0 shrinks the connection's receive buffer.
class FakeDaemon {
 public:
  explicit FakeDaemon(std::function<void(int)> script,
                      int receive_buffer = 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    if (receive_buffer > 0) {  // set before listen: accepted sockets inherit
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                   sizeof(receive_buffer));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script)] {
      pollfd ready{listen_fd_, POLLIN, 0};
      if (::poll(&ready, 1, 5000) != 1) return;  // no client: give up
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      SetReceiveTimeout(fd, 5000);
      script(fd);
      ::close(fd);
    });
  }

  ~FakeDaemon() {
    Join();
    ::close(listen_fd_);
  }

  FakeDaemon(const FakeDaemon&) = delete;
  FakeDaemon& operator=(const FakeDaemon&) = delete;

  int port() const { return port_; }

  /// Waits for the script to finish.
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  static void SetReceiveTimeout(int fd, int64_t timeout_ms) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

 private:
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

/// Reads one request frame; false when none arrives.
bool ReadRequest(int fd) { return ReadSweepFrame(fd).ok(); }

void Reply(int fd, const SweepFrame& frame) {
  ASSERT_TRUE(WriteSweepFrame(fd, SerializeSweepFrame(frame)).ok());
}

/// Bytes the client sends within `window_ms` (0 on EOF or silence).
ssize_t BytesWithin(int fd, int64_t window_ms) {
  FakeDaemon::SetReceiveTimeout(fd, window_ms);
  uint8_t byte = 0;
  return std::max<ssize_t>(::recv(fd, &byte, 1, 0), 0);
}

std::unique_ptr<SweepServiceClient> ConnectTo(const FakeDaemon& daemon,
                                              int64_t timeout_ms = 5000) {
  auto client =
      SweepServiceClient::Connect("127.0.0.1", daemon.port(), timeout_ms);
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(client).value();
}

TEST(SweepServiceClientTest, LateReplyIsNeverReadAsTheNextAnswer) {
  constexpr int64_t kTimeoutMs = 100;
  ssize_t after_late_reply = -1;
  FakeDaemon daemon([&](int fd) {
    if (!ReadRequest(fd)) return;  // the heartbeat
    std::this_thread::sleep_for(std::chrono::milliseconds(kTimeoutMs + 200));
    Reply(fd, SweepFrame(SweepHeartbeatAck{7, 1000}));
    after_late_reply = BytesWithin(fd, 600);
  });
  auto client = ConnectTo(daemon, kTimeoutMs);

  auto heartbeat = client->Heartbeat(7, 0);
  EXPECT_EQ(heartbeat.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(IsSweepTransportError(heartbeat.status())) << heartbeat.status();

  // The late ack is in the socket buffer by now; the next RPC must not
  // take it for the completion's answer, nor send anything.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto complete = client->Complete(7, 0, std::string(64, 'a'));
  EXPECT_EQ(complete.status(), heartbeat.status());
  EXPECT_EQ(client->QueryStatus().status(), heartbeat.status());
  daemon.Join();
  EXPECT_EQ(after_late_reply, 0);
}

TEST(SweepServiceClientTest, CloseMidFrameIsATransportViolation) {
  FakeDaemon daemon([](int fd) {
    if (!ReadRequest(fd)) return;
    Bytes partial;
    AppendUint32BE(partial, 10);
    Append(partial, Bytes{1, 2, 3});
    SendRaw(fd, partial);
  });
  auto client = ConnectTo(daemon);
  auto status = client->QueryStatus();
  EXPECT_EQ(status.status().code(), StatusCode::kProtocolViolation);
  EXPECT_TRUE(IsSweepTransportError(status.status())) << status.status();
  daemon.Join();
  EXPECT_EQ(client->RequestLease("w").status(), status.status());
}

TEST(SweepServiceClientTest, CloseBeforeReplyingIsATransportNotFound) {
  FakeDaemon daemon([](int fd) { (void)ReadRequest(fd); });
  auto client = ConnectTo(daemon);
  auto lease = client->RequestLease("w");
  EXPECT_EQ(lease.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(IsSweepTransportError(lease.status())) << lease.status();
  daemon.Join();
  EXPECT_EQ(client->Heartbeat(1, 0).status(), lease.status());
}

TEST(SweepServiceClientTest, WrongReplyTypeIsAViolationThatPoisons) {
  ssize_t after_wrong_reply = -1;
  FakeDaemon daemon([&](int fd) {
    if (!ReadRequest(fd)) return;  // the completion
    Reply(fd, SweepFrame(SweepHeartbeatAck{7, 1000}));
    after_wrong_reply = BytesWithin(fd, 300);
  });
  auto client = ConnectTo(daemon);
  auto complete = client->Complete(7, 0, std::string(64, 'a'));
  EXPECT_EQ(complete.status().code(), StatusCode::kProtocolViolation);
  EXPECT_EQ(complete.status().message(),
            "unexpected heartbeat-ack reply to complete");
  // A daemon that answers the wrong question is not a vanished daemon:
  // the worker must fail, not assume the sweep drained.
  EXPECT_FALSE(IsSweepTransportError(complete.status()));
  EXPECT_EQ(client->QueryStatus().status(), complete.status());
  daemon.Join();
  EXPECT_EQ(after_wrong_reply, 0);
}

TEST(SweepServiceClientTest, DaemonErrorReplyDoesNotPoison) {
  FakeDaemon daemon([](int fd) {
    if (!ReadRequest(fd)) return;
    SweepErrorReply error;
    error.code = static_cast<uint8_t>(StatusCode::kNotFound);
    error.message = "lease 7 expired";
    Reply(fd, SweepFrame(error));
    if (!ReadRequest(fd)) return;
    SweepStatusReply status;
    status.sweep = "toy";
    Reply(fd, SweepFrame(status));
  });
  auto client = ConnectTo(daemon);
  auto heartbeat = client->Heartbeat(7, 0);
  EXPECT_EQ(heartbeat.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(IsSweepTransportError(heartbeat.status()));
  auto status = client->QueryStatus();
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(status->sweep, "toy");
}

// ---------------------------------------------------------------------
// The lease worker loop against a scripted daemon: every way a drain
// ends, and every daemon answer the loop must survive or refuse.
// ---------------------------------------------------------------------

/// Answers each request through `answer` until it returns nullopt (the
/// fake daemon then hangs up) or the client goes. Every request read is
/// appended to `requests`.
void Serve(
    int fd, std::vector<SweepFrame>& requests,
    const std::function<std::optional<SweepFrame>(const SweepFrame&)>&
        answer) {
  for (;;) {
    auto body = ReadSweepFrame(fd);
    if (!body.ok()) return;
    auto request = ParseSweepFrame(*body);
    ASSERT_TRUE(request.ok()) << request.status();
    requests.push_back(*request);
    std::optional<SweepFrame> reply = answer(*request);
    if (!reply) return;
    Reply(fd, *reply);
  }
}

/// The grant the daemon of `f`'s plan would send for `shard`.
SweepLeaseGrant PlanGrant(const Fixture& f, int shard,
                          uint64_t lease_ms = 60000) {
  SweepLeaseGrant grant;
  grant.lease_id = 100 + static_cast<uint64_t>(shard);
  grant.shard = static_cast<uint32_t>(shard);
  grant.begin = f.plan.Range(shard).begin;
  grant.end = f.plan.Range(shard).end;
  grant.lease_ms = lease_ms;
  grant.sweep = f.info.sweep;
  grant.total = f.info.total;
  grant.shards = static_cast<uint32_t>(f.info.shards);
  grant.seed = f.info.seed;
  return grant;
}

SweepNoWork Notice(const Fixture& f, bool drained, uint64_t retry_ms,
                   uint32_t committed = 0) {
  SweepNoWork notice;
  notice.drained = drained ? 1 : 0;
  notice.retry_ms = retry_ms;
  notice.committed = committed;
  notice.shards = static_cast<uint32_t>(f.info.shards);
  return notice;
}

SweepCompleteAck CompleteAckOf(const SweepComplete& complete,
                               uint32_t committed, uint32_t shards) {
  SweepCompleteAck ack;
  ack.shard = complete.shard;
  ack.committed = committed;
  ack.shards = shards;
  return ack;
}

struct WorkerRun {
  Result<LeaseWorkerEnd> end = Status::Internal("not run");
  std::vector<SweepFrame> replies;  // every frame `on_reply` saw
};

/// Runs the worker loop for `f` against `daemon` on a fresh client.
WorkerRun RunWorkerAgainst(const FakeDaemon& daemon, const Fixture& f,
                           LeaseWorkerOptions options = {},
                           int64_t timeout_ms = 5000) {
  if (options.worker.empty()) options.worker = "w";
  WorkerRun run;
  auto client = ConnectTo(daemon, timeout_ms);
  run.end = RunLeaseWorker(
      *client, f.info, ShardRunner(f.spec, f.plan), f.dir, options,
      [&run](const SweepFrame& reply) { run.replies.push_back(reply); });
  return run;
}

TEST(LeaseWorkerTest, RunsEveryGrantAndEndsOnTheDrainedNotice) {
  Fixture f = MakeFixture("worker_drained", 20, 2);
  std::vector<SweepFrame> requests;
  FakeDaemon daemon([&](int fd) {
    int next = 0;
    Serve(fd, requests, [&](const SweepFrame& request) -> std::optional<SweepFrame> {
      if (const auto* done = std::get_if<SweepComplete>(&request)) {
        return SweepFrame(CompleteAckOf(*done, done->shard + 1, 2));
      }
      if (next < 2) return SweepFrame(PlanGrant(f, next++));
      return SweepFrame(Notice(f, /*drained=*/true, 0, 2));
    });
  });
  WorkerRun run = RunWorkerAgainst(daemon, f);
  daemon.Join();

  ASSERT_TRUE(run.end.ok()) << run.end.status();
  EXPECT_EQ(run.end->kind, LeaseWorkerEnd::Kind::kDrained);
  EXPECT_EQ(run.end->notice.committed, 2u);
  ASSERT_EQ(run.replies.size(), 4u);
  EXPECT_TRUE(Is<SweepLeaseGrant>(run.replies[0]));
  EXPECT_TRUE(Is<SweepCompleteAck>(run.replies[1]));
  EXPECT_TRUE(Is<SweepLeaseGrant>(run.replies[2]));
  EXPECT_TRUE(Is<SweepCompleteAck>(run.replies[3]));
  // Each completion carries its manifest's payload digest.
  ASSERT_EQ(requests.size(), 5u);
  for (int k = 0; k < 2; ++k) {
    const auto& complete = std::get<SweepComplete>(requests[2 * k + 1]);
    EXPECT_EQ(complete.lease_id, PlanGrant(f, k).lease_id);
    EXPECT_EQ(complete.payload_sha256, ShaOf(f, k));
  }
  ExpectMergeEqualsSerial(f);
}

TEST(LeaseWorkerTest, GivesUpAfterMaxIdleOfRetryHints) {
  Fixture f = MakeFixture("worker_idle", 10, 1);
  std::vector<SweepFrame> requests;
  FakeDaemon daemon([&](int fd) {
    Serve(fd, requests, [&](const SweepFrame&) {
      return std::optional<SweepFrame>(Notice(f, /*drained=*/false, 10));
    });
  });
  LeaseWorkerOptions options;
  options.max_idle_ms = 30;
  WorkerRun run = RunWorkerAgainst(daemon, f, options);
  daemon.Join();

  ASSERT_TRUE(run.end.ok()) << run.end.status();
  EXPECT_EQ(run.end->kind, LeaseWorkerEnd::Kind::kIdle);
  EXPECT_EQ(run.end->idle_ms, 30);
  EXPECT_EQ(requests.size(), 3u);
  EXPECT_TRUE(run.replies.empty());
}

TEST(LeaseWorkerTest, GrantContradictingThePlanFailsBeforeAnythingIsWritten) {
  Fixture f = MakeFixture("worker_foreign_grant", 10, 1);
  std::vector<SweepFrame> requests;
  FakeDaemon daemon([&](int fd) {
    Serve(fd, requests, [&](const SweepFrame&) {
      SweepLeaseGrant grant = PlanGrant(f, 0);
      ++grant.seed;  // another plan's grant
      return std::optional<SweepFrame>(grant);
    });
  });
  WorkerRun run = RunWorkerAgainst(daemon, f);
  daemon.Join();

  EXPECT_EQ(run.end.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.end.status().message().find("contradicts the plan"),
            std::string::npos)
      << run.end.status();
  EXPECT_TRUE(run.replies.empty());
  EXPECT_EQ(requests.size(), 1u);
  EXPECT_FALSE(FileExists(ShardPayloadPath(f.dir, 0)));
  EXPECT_FALSE(FileExists(ShardManifestPath(f.dir, 0)));
}

TEST(LeaseWorkerTest, FailedRunIsReportedAndTheLoopGoesOn) {
  Fixture f = MakeFixture("worker_fail_report", 10, 1);
  f.spec.record = [](size_t i) -> Result<Bytes> {
    return Status::Internal("record " + std::to_string(i) + " is broken");
  };
  std::vector<SweepFrame> requests;
  FakeDaemon daemon([&](int fd) {
    bool granted = false;
    Serve(fd, requests, [&](const SweepFrame& request) -> std::optional<SweepFrame> {
      if (const auto* fail = std::get_if<SweepFail>(&request)) {
        return SweepFrame(SweepFailAck{fail->shard, /*will_retry=*/1});
      }
      if (!granted) {
        granted = true;
        return SweepFrame(PlanGrant(f, 0));
      }
      return SweepFrame(Notice(f, /*drained=*/true, 0, 1));
    });
  });
  WorkerRun run = RunWorkerAgainst(daemon, f);
  daemon.Join();

  ASSERT_TRUE(run.end.ok()) << run.end.status();
  EXPECT_EQ(run.end->kind, LeaseWorkerEnd::Kind::kDrained);
  ASSERT_EQ(run.replies.size(), 2u);
  EXPECT_TRUE(Is<SweepLeaseGrant>(run.replies[0]));
  EXPECT_TRUE(Is<SweepFailAck>(run.replies[1]));
  ASSERT_EQ(requests.size(), 3u);
  const auto& fail = std::get<SweepFail>(requests[1]);
  EXPECT_EQ(fail.lease_id, PlanGrant(f, 0).lease_id);
  EXPECT_NE(fail.message.find("record 0 is broken"), std::string::npos)
      << fail.message;
  EXPECT_FALSE(FileExists(ShardManifestPath(f.dir, 0)));
}

TEST(LeaseWorkerTest, RefusedFailReportIsLoggedAndTheLoopGoesOn) {
  // The lease expired before the failure was reported: the daemon
  // refuses the report, and the worker asks for the next lease.
  Fixture f = MakeFixture("worker_fail_refused", 10, 1);
  f.spec.record = [](size_t) -> Result<Bytes> {
    return Status::Internal("broken record");
  };
  std::vector<SweepFrame> requests;
  FakeDaemon daemon([&](int fd) {
    Serve(fd, requests, [&](const SweepFrame& request) -> std::optional<SweepFrame> {
      if (std::holds_alternative<SweepFail>(request)) {
        return SweepFrame(ToSweepError(Status::NotFound("lease 100 expired")));
      }
      if (requests.size() == 1) return SweepFrame(PlanGrant(f, 0));
      return SweepFrame(Notice(f, /*drained=*/true, 0, 1));
    });
  });
  WorkerRun run = RunWorkerAgainst(daemon, f);
  daemon.Join();

  ASSERT_TRUE(run.end.ok()) << run.end.status();
  EXPECT_EQ(run.end->kind, LeaseWorkerEnd::Kind::kDrained);
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_TRUE(Is<SweepFail>(requests[1]));
  ASSERT_EQ(run.replies.size(), 1u);  // the grant; no ack for the report
}

TEST(LeaseWorkerTest, TransportLossAfterOneRpcMeansTheDaemonIsGone) {
  Fixture f = MakeFixture("worker_gone", 10, 1);
  std::vector<SweepFrame> requests;
  FakeDaemon daemon([&](int fd) {
    Serve(fd, requests, [&](const SweepFrame&) -> std::optional<SweepFrame> {
      if (requests.size() == 1) return SweepFrame(Notice(f, false, 1));
      return std::nullopt;  // merged and exited
    });
  });
  WorkerRun run = RunWorkerAgainst(daemon, f);
  daemon.Join();

  ASSERT_TRUE(run.end.ok()) << run.end.status();
  EXPECT_EQ(run.end->kind, LeaseWorkerEnd::Kind::kDaemonGone);
  EXPECT_EQ(run.end->transport.code(), StatusCode::kNotFound);
  EXPECT_TRUE(IsSweepTransportError(run.end->transport))
      << run.end->transport;
}

TEST(LeaseWorkerTest, TransportLossBeforeAnyRpcIsAnError) {
  Fixture f = MakeFixture("worker_never_spoke", 10, 1);
  std::vector<SweepFrame> requests;
  FakeDaemon daemon([&](int fd) {
    Serve(fd, requests, [](const SweepFrame&) {
      return std::optional<SweepFrame>();
    });
  });
  WorkerRun run = RunWorkerAgainst(daemon, f);
  daemon.Join();

  EXPECT_EQ(run.end.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(IsSweepTransportError(run.end.status())) << run.end.status();
}

TEST(LeaseWorkerTest, CompleteRejectedWithNotFoundIsFatal) {
  Fixture f = MakeFixture("worker_claim_rejected", 10, 1);
  std::vector<SweepFrame> requests;
  FakeDaemon daemon([&](int fd) {
    Serve(fd, requests, [&](const SweepFrame& request) -> std::optional<SweepFrame> {
      if (std::holds_alternative<SweepComplete>(request)) {
        return SweepFrame(ToSweepError(Status::NotFound(
            "completion claim for shard 0 rejected: nothing committed")));
      }
      return SweepFrame(PlanGrant(f, 0));
    });
  });
  WorkerRun run = RunWorkerAgainst(daemon, f);
  daemon.Join();

  EXPECT_EQ(run.end.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(IsSweepTransportError(run.end.status())) << run.end.status();
  EXPECT_EQ(requests.size(), 2u);  // no lease is requested after it
  ASSERT_EQ(run.replies.size(), 1u);
  EXPECT_TRUE(Is<SweepLeaseGrant>(run.replies[0]));
}

TEST(LeaseWorkerTest, SendTimeoutAfterOneRpcMeansTheDaemonIsGone) {
  // A daemon that answers but never reads: the worker's lease requests
  // (each carrying a worker name at the wire's string cap) fill the
  // socket buffers until one send times out.
  Fixture f = MakeFixture("worker_send_timeout", 10, 1);
  std::atomic<bool> done{false};
  FakeDaemon daemon(
      [&](int fd) {
        Bytes batch;
        const Bytes notice =
            Framed(SerializeSweepFrame(SweepFrame(Notice(f, false, 0))));
        for (int i = 0; i < 64; ++i) Append(batch, notice);
        size_t off = 0;
        while (!done.load()) {
          ssize_t w = ::send(fd, batch.data() + off, batch.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
          if (w > 0) {
            off = (off + static_cast<size_t>(w)) % batch.size();
            continue;
          }
          if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return;
          pollfd writable{fd, POLLOUT, 0};
          ::poll(&writable, 1, 10);
        }
      },
      /*receive_buffer=*/4096);
  LeaseWorkerOptions options;
  options.worker = std::string(kSweepWireMaxString, 'w');
  WorkerRun run = RunWorkerAgainst(daemon, f, options, /*timeout_ms=*/200);
  done.store(true);
  daemon.Join();

  ASSERT_TRUE(run.end.ok()) << run.end.status();
  EXPECT_EQ(run.end->kind, LeaseWorkerEnd::Kind::kDaemonGone);
  EXPECT_EQ(run.end->transport.message(), "sweepd send timed out");
}

TEST(LeaseWorkerTest, LostLeaseIsLoggedAndTheRunGoesOn) {
  // The heartbeat thread shares the client with the loop (run under
  // TSan in CI). A renewal the daemon refuses does not stop the run:
  // the shard still commits and is reported.
  Fixture f = MakeFixture("worker_lost_lease", 8, 1);
  f.spec.record = [](size_t i) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    return ToBytes("r" + std::to_string(i) + std::string(i % 5, 'x') + "\n");
  };
  std::vector<SweepFrame> requests;
  FakeDaemon daemon([&](int fd) {
    int heartbeats = 0;
    Serve(fd, requests, [&](const SweepFrame& request) -> std::optional<SweepFrame> {
      if (const auto* beat = std::get_if<SweepHeartbeat>(&request)) {
        if (heartbeats++ == 0) {
          return SweepFrame(SweepHeartbeatAck{beat->lease_id, 150});
        }
        return SweepFrame(ToSweepError(Status::NotFound("lease expired")));
      }
      if (const auto* done = std::get_if<SweepComplete>(&request)) {
        return SweepFrame(CompleteAckOf(*done, 1, 1));
      }
      if (requests.size() == 1) return SweepFrame(PlanGrant(f, 0, 150));
      return SweepFrame(Notice(f, /*drained=*/true, 0, 1));
    });
  });
  WorkerRun run = RunWorkerAgainst(daemon, f);
  daemon.Join();

  ASSERT_TRUE(run.end.ok()) << run.end.status();
  EXPECT_EQ(run.end->kind, LeaseWorkerEnd::Kind::kDrained);
  EXPECT_GE(std::count_if(requests.begin(), requests.end(),
                          Is<SweepHeartbeat>),
            2);
  ASSERT_EQ(run.replies.size(), 2u);
  EXPECT_TRUE(Is<SweepCompleteAck>(run.replies[1]));
  ExpectMergeEqualsSerial(f);
}

}  // namespace
}  // namespace hsis::common
