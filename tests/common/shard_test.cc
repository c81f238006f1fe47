#include "common/shard.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/file.h"
#include "common/parallel.h"
#include "common/random.h"

namespace hsis::common {
namespace {

std::string FreshDir(const char* name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  EXPECT_TRUE(CreateDirectories(dir).ok());
  return dir;
}

/// A tiny sweep whose records have irregular lengths, so framing bugs
/// cannot hide behind fixed-size records.
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

// ---------------------------------------------------------------------
// ShardPlan: randomized partition properties
// ---------------------------------------------------------------------

TEST(ShardPlanTest, RandomizedPartitionProperties) {
  // ~200 random (total, shards) pairs: the shards must be contiguous,
  // pairwise disjoint, covering, and non-empty whenever shards <= total.
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    size_t total = rng.NextUint64() % 10000;
    int shards = 1 + static_cast<int>(rng.NextUint64() % 64);
    Result<ShardPlan> plan = ShardPlan::Create(total, shards);
    ASSERT_TRUE(plan.ok()) << "total=" << total << " shards=" << shards;

    size_t covered = 0;
    size_t cursor = 0;
    for (int k = 0; k < shards; ++k) {
      ShardRange range = plan->Range(k);
      // Contiguity + disjointness: each shard starts where the
      // previous one ended.
      EXPECT_EQ(range.begin, cursor) << "total=" << total << " k=" << k;
      EXPECT_LE(range.begin, range.end);
      cursor = range.end;
      covered += range.size();
      if (shards <= static_cast<int>(total)) {
        EXPECT_GT(range.size(), 0u) << "total=" << total << " k=" << k;
      }
      // Balance: the partition never skews by more than 1.
      size_t lo = total / static_cast<size_t>(shards);
      EXPECT_GE(range.size(), lo);
      EXPECT_LE(range.size(), lo + 1);
    }
    EXPECT_EQ(cursor, total);
    EXPECT_EQ(covered, total);
  }
}

TEST(ShardPlanTest, SingleShardIsWholeRange) {
  ShardPlan plan = ShardPlan::Create(17, 1).value();
  EXPECT_EQ(plan.Range(0), (ShardRange{0, 17}));
}

TEST(ShardPlanTest, MoreShardsThanIndices) {
  // K > total: the partition still covers, surplus shards are empty.
  ShardPlan plan = ShardPlan::Create(3, 7).value();
  size_t cursor = 0;
  size_t nonempty = 0;
  for (int k = 0; k < 7; ++k) {
    ShardRange range = plan.Range(k);
    EXPECT_EQ(range.begin, cursor);
    cursor = range.end;
    nonempty += range.size() > 0;
  }
  EXPECT_EQ(cursor, 3u);
  EXPECT_EQ(nonempty, 3u);
}

TEST(ShardPlanTest, EmptyRange) {
  ShardPlan plan = ShardPlan::Create(0, 4).value();
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(plan.Range(k).size(), 0u);
  }
}

TEST(ShardPlanTest, RejectsNonPositiveShardCounts) {
  EXPECT_EQ(ShardPlan::Create(10, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardPlan::Create(10, -2).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Uniform CLI flag parsing
// ---------------------------------------------------------------------

TEST(ParseShardsValueTest, ZeroResolvesToOneShard) {
  EXPECT_EQ(ParseShardsValue("0").value(), 1);
  EXPECT_EQ(ParseShardsValue("1").value(), 1);
  EXPECT_EQ(ParseShardsValue("7").value(), 7);
}

TEST(ParseShardsValueTest, RejectsNegativesAndJunk) {
  for (const char* bad : {"-1", "-7", "", "abc", "3x", "1.5", " 4", "4 "}) {
    Result<int> parsed = ParseShardsValue(bad);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << "value: '" << bad << "'";
  }
}

TEST(ParseThreadsValueTest, ZeroResolvesToHardwareConcurrency) {
  EXPECT_EQ(ParseThreadsValue("0").value(), HardwareConcurrency());
  EXPECT_GE(ParseThreadsValue("0").value(), 1);
  EXPECT_EQ(ParseThreadsValue("3").value(), 3);
}

TEST(ParseThreadsValueTest, RejectsNegativesAndJunk) {
  for (const char* bad : {"-1", "", "many", "2.0", "+2 "}) {
    Result<int> parsed = ParseThreadsValue(bad);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << "value: '" << bad << "'";
  }
}

// ---------------------------------------------------------------------
// Manifest and payload round-trips
// ---------------------------------------------------------------------

TEST(ShardManifestTest, PlanInfoRoundTrip) {
  ShardPlanInfo info;
  info.sweep = "figure1";
  info.total = 201;
  info.shards = 4;
  info.seed = 0xdeadbeef;
  Result<ShardPlanInfo> back = ParseShardPlanInfo(SerializeShardPlanInfo(info));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, info);
}

TEST(ShardManifestTest, ManifestRoundTrip) {
  ShardManifest m;
  m.sweep = "toy";
  m.shard = 2;
  m.shards = 5;
  m.total = 100;
  m.begin = 40;
  m.end = 60;
  m.seed = 7;
  m.records = 20;
  m.payload_sha256 = std::string(64, 'a');
  Result<ShardManifest> back = ParseShardManifest(SerializeShardManifest(m));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, m);
}

TEST(ShardManifestTest, StrictParsingRejectsMalformedText) {
  ShardManifest m;
  m.sweep = "toy";
  m.shard = 0;
  m.shards = 1;
  m.total = 4;
  m.begin = 0;
  m.end = 4;
  m.records = 4;
  m.payload_sha256 = std::string(64, '0');
  std::string good = SerializeShardManifest(m);
  ASSERT_TRUE(ParseShardManifest(good).ok());

  // Wrong magic line.
  EXPECT_EQ(ParseShardManifest("not-a-manifest\n").status().code(),
            StatusCode::kIntegrityViolation);
  // A dropped field.
  std::string missing = good;
  size_t pos = missing.find("records=");
  missing.erase(pos, missing.find('\n', pos) - pos + 1);
  EXPECT_EQ(ParseShardManifest(missing).status().code(),
            StatusCode::kIntegrityViolation);
  // A duplicated field.
  EXPECT_EQ(ParseShardManifest(good + "shard=0\n").status().code(),
            StatusCode::kIntegrityViolation);
  // A number that is not a number.
  std::string junk = good;
  pos = junk.find("total=4");
  junk.replace(pos, 7, "total=x");
  EXPECT_EQ(ParseShardManifest(junk).status().code(),
            StatusCode::kIntegrityViolation);
  // Internally inconsistent ranges (records != end - begin).
  ShardManifest bad = m;
  bad.records = 3;
  EXPECT_EQ(ParseShardManifest(SerializeShardManifest(bad)).status().code(),
            StatusCode::kIntegrityViolation);
}

TEST(ShardPayloadTest, RoundTripPreservesRecordBoundaries) {
  std::vector<Bytes> records = {ToBytes("alpha"), ToBytes(""),
                                ToBytes(std::string("\x00\xff\n", 3)),
                                ToBytes("tail")};
  Result<std::vector<Bytes>> back =
      ParseShardPayload(SerializeShardPayload(records));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, records);
}

TEST(ShardPayloadTest, RejectsBadFraming) {
  Bytes good = SerializeShardPayload({ToBytes("one"), ToBytes("two")});
  // Bad magic.
  Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(ParseShardPayload(bad_magic).status().code(),
            StatusCode::kIntegrityViolation);
  // Every truncation must fail, never read out of bounds.
  for (size_t len = 0; len < good.size(); ++len) {
    Bytes truncated(good.begin(), good.begin() + len);
    EXPECT_EQ(ParseShardPayload(truncated).status().code(),
              StatusCode::kIntegrityViolation)
        << "truncated to " << len;
  }
  // Trailing garbage.
  Bytes padded = good;
  padded.push_back(0);
  EXPECT_EQ(ParseShardPayload(padded).status().code(),
            StatusCode::kIntegrityViolation);
}

// ---------------------------------------------------------------------
// Runner + merge lifecycle
// ---------------------------------------------------------------------

TEST(ShardRunnerTest, MergeMatchesSerialForSeveralShardCounts) {
  ShardSweepSpec spec = ToySpec(97);
  Bytes serial = SerialReference(spec);
  for (int shards : {1, 2, 3, 7, 97, 120}) {
    std::string dir =
        FreshDir(("shard_merge_" + std::to_string(shards)).c_str());
    ShardPlan plan = ShardPlan::Create(spec.total, shards).value();
    ASSERT_TRUE(WriteShardPlan(spec, plan, dir).ok());
    ShardRunner runner(spec, plan);
    for (int k = 0; k < shards; ++k) {
      ASSERT_TRUE(runner.Run(k, dir).ok()) << "shard " << k;
    }
    Result<Bytes> merged = MergeShards(dir, "toy");
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(*merged, serial) << shards << " shards";
  }
}

TEST(ShardRunnerTest, ThreadCountDoesNotChangeShardBytes) {
  ShardSweepSpec spec = ToySpec(60);
  ShardPlan plan = ShardPlan::Create(spec.total, 2).value();
  std::string serial_dir = FreshDir("shard_threads_1");
  std::string parallel_dir = FreshDir("shard_threads_3");
  ASSERT_TRUE(WriteShardPlan(spec, plan, serial_dir).ok());
  ASSERT_TRUE(WriteShardPlan(spec, plan, parallel_dir).ok());
  ShardRunner runner(spec, plan);
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(runner.Run(k, serial_dir, /*threads=*/1).ok());
    ASSERT_TRUE(runner.Run(k, parallel_dir, /*threads=*/3).ok());
  }
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(*ReadFile(ShardPayloadPath(serial_dir, k)),
              *ReadFile(ShardPayloadPath(parallel_dir, k)));
    EXPECT_EQ(*ReadFile(ShardManifestPath(serial_dir, k)),
              *ReadFile(ShardManifestPath(parallel_dir, k)));
  }
}

TEST(ShardRunnerTest, RejectsOutOfRangeShard) {
  ShardSweepSpec spec = ToySpec(10);
  ShardPlan plan = ShardPlan::Create(spec.total, 2).value();
  ShardRunner runner(spec, plan);
  std::string dir = FreshDir("shard_oob");
  EXPECT_EQ(runner.Run(-1, dir).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(runner.Run(2, dir).code(), StatusCode::kInvalidArgument);
}

TEST(ShardRunnerTest, RecordErrorPropagatesSmallestIndex) {
  ShardSweepSpec spec = ToySpec(10);
  spec.record = [](size_t i) -> Result<Bytes> {
    if (i >= 4) return Status::Internal("index " + std::to_string(i));
    return ToBytes("ok");
  };
  ShardPlan plan = ShardPlan::Create(spec.total, 1).value();
  std::string dir = FreshDir("shard_record_error");
  ASSERT_TRUE(WriteShardPlan(spec, plan, dir).ok());
  Status status = ShardRunner(spec, plan).Run(0, dir, /*threads=*/4);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("index 4"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------
// Typed merge failures
// ---------------------------------------------------------------------

class ShardMergeErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = ToySpec(30);
    dir_ = FreshDir(
        (std::string("shard_err_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name())
            .c_str());
    ShardPlan plan = ShardPlan::Create(spec_.total, 3).value();
    ASSERT_TRUE(WriteShardPlan(spec_, plan, dir_).ok());
    ShardRunner runner(spec_, plan);
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(runner.Run(k, dir_).ok());
    }
    ASSERT_TRUE(MergeShards(dir_, "toy").ok());
  }

  ShardSweepSpec spec_;
  std::string dir_;
};

TEST_F(ShardMergeErrorTest, MissingPlanIsNotFound) {
  std::string empty = FreshDir("shard_err_no_plan");
  EXPECT_EQ(MergeShards(empty).status().code(), StatusCode::kNotFound);
}

TEST_F(ShardMergeErrorTest, MissingManifestNamesShardToReRun) {
  ASSERT_TRUE(RemoveFileIfExists(ShardManifestPath(dir_, 1)).ok());
  Status status = MergeShards(dir_).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.ToString().find("shard 1"), std::string::npos)
      << status.ToString();
}

TEST_F(ShardMergeErrorTest, MissingPayloadIsNotFound) {
  ASSERT_TRUE(RemoveFileIfExists(ShardPayloadPath(dir_, 2)).ok());
  Status status = MergeShards(dir_).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.ToString().find("shard 2"), std::string::npos);
}

TEST_F(ShardMergeErrorTest, ReRunningOnlyTheMissingShardRecovers) {
  Bytes reference = MergeShards(dir_).value();
  ASSERT_TRUE(RemoveFileIfExists(ShardManifestPath(dir_, 1)).ok());
  ASSERT_TRUE(RemoveFileIfExists(ShardPayloadPath(dir_, 1)).ok());
  ASSERT_FALSE(MergeShards(dir_).ok());
  ShardPlan plan = ShardPlan::Create(spec_.total, 3).value();
  ASSERT_TRUE(ShardRunner(spec_, plan).Run(1, dir_).ok());
  EXPECT_EQ(MergeShards(dir_).value(), reference);
}

TEST_F(ShardMergeErrorTest, WrongExpectedSweepIsInvalidArgument) {
  EXPECT_EQ(MergeShards(dir_, "some_other_sweep").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardMergeErrorTest, DuplicatedShardFileIsInvalidArgument) {
  // shard-0's files standing in for shard-1: parses fine, but the
  // manifest says "shard 0" and its range collides with the plan's
  // slot, so the merge must refuse rather than duplicate records.
  ASSERT_TRUE(
      WriteFile(ShardManifestPath(dir_, 1),
                *ReadFile(ShardManifestPath(dir_, 0)))
          .ok());
  ASSERT_TRUE(WriteFile(ShardPayloadPath(dir_, 1),
                        *ReadFile(ShardPayloadPath(dir_, 0)))
                  .ok());
  EXPECT_EQ(MergeShards(dir_).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardMergeErrorTest, TruncatedPayloadIsIntegrityViolation) {
  std::string payload = *ReadFile(ShardPayloadPath(dir_, 0));
  ASSERT_TRUE(
      WriteFile(ShardPayloadPath(dir_, 0),
                payload.substr(0, payload.size() / 2))
          .ok());
  EXPECT_EQ(MergeShards(dir_).status().code(),
            StatusCode::kIntegrityViolation);
}

TEST_F(ShardMergeErrorTest, BitFlippedPayloadIsIntegrityViolation) {
  std::string payload = *ReadFile(ShardPayloadPath(dir_, 2));
  payload[payload.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFile(ShardPayloadPath(dir_, 2), payload).ok());
  EXPECT_EQ(MergeShards(dir_).status().code(),
            StatusCode::kIntegrityViolation);
}

TEST_F(ShardMergeErrorTest, CorruptManifestTextIsIntegrityViolation) {
  ASSERT_TRUE(WriteFile(ShardManifestPath(dir_, 0), "garbage\n").ok());
  EXPECT_EQ(MergeShards(dir_).status().code(),
            StatusCode::kIntegrityViolation);
}

TEST_F(ShardMergeErrorTest, PlanMismatchedManifestIsInvalidArgument) {
  // A manifest from a different partitioning of the same sweep: valid
  // on its own, but it contradicts plan.manifest.
  ShardManifest m =
      ParseShardManifest(*ReadFile(ShardManifestPath(dir_, 0))).value();
  m.shards = 4;
  ASSERT_TRUE(
      WriteFile(ShardManifestPath(dir_, 0), SerializeShardManifest(m)).ok());
  EXPECT_EQ(MergeShards(dir_).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hsis::common
