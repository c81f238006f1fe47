// Cross-shard golden pins for every sweep of the catalogue (the figure
// landscapes, the design searches and the campaign ensemble): the
// serial CSVs are frozen by SHA-256 (any drift in sweep arithmetic or
// formatting trips them), and merging a 1-, 2-, 3-, or 7-shard run
// must reproduce those exact bytes — IEEE-754 bit patterns included,
// since the CSV text is the `%.6g` image of the computed doubles. Also
// pins the recovery contract: a deleted shard is detected by name and
// the sweep completes after re-running only that shard.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/file.h"
#include "common/shard.h"
#include "core/sweeps.h"
#include "crypto/sha256.h"

namespace hsis::core {
namespace {

/// Frozen SHA-256 of each serial sweep CSV (header + rows), computed
/// from the single-process `LandscapeCsv` output. These change only if
/// the sweep arithmetic, sampling grid, or CSV formatting changes —
/// which must be a deliberate, reviewed act.
struct GoldenSweep {
  const char* name;
  const char* csv_sha256;
};

constexpr GoldenSweep kGoldenSweeps[] = {
    {"figure1",
     "69360b788a2b2c3aee9d8b819cfdb1401715f4df741d8106fadf4c50ff55cbe1"},
    {"figure2_f02",
     "ec2995c0cd9fc0d5525c9353299c1647bc50fcb3c82988f4eabfef0537e55f6b"},
    {"figure2_f07",
     "2e3e33061b80a4303f64638dd6751828342a4967e174a6ff8acd327149fd1d39"},
    {"figure3",
     "19f1b300c56be061b38d843d3e7e9b376e810e984a90f8ee128bb59286eeeac2"},
    {"figure4",
     "b5445df15e50679b369b5d2a85bb1c46554291a704ee90be3d09917fdda82753"},
    {"design_min_penalties",
     "e49b00353923d288f89fb523de602882f8cf03e9d5f5d94d18fcd96922e52cf8"},
    {"design_min_cost_frequencies",
     "37ed3b8432f0cf870108fa9d7939b64666497df1f6c2b4e4cdf90cf11febd5a0"},
    {"design_budget_deterrence",
     "779c710a792f3e17426b103f0ff0eede36a7836e97924bdf5e765bc1307c556a"},
    {"campaign_ensemble",
     "0b3936a5e0aee25b4bb78b15e78c3d1144f02565300762972a0f5d466e9a991a"},
};

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  EXPECT_TRUE(CreateDirectories(dir).ok());
  return dir;
}

/// Full plan → K runs → validated merge lifecycle, returning the CSV.
Result<std::string> ShardedCsv(const std::string& name, int shards,
                               const std::string& dir) {
  HSIS_ASSIGN_OR_RETURN(const Sweep* sweep, FindSweep(name));
  const common::ShardSweepSpec& spec = sweep->spec;
  HSIS_ASSIGN_OR_RETURN(common::ShardPlan plan,
                        common::ShardPlan::Create(spec.total, shards));
  HSIS_RETURN_IF_ERROR(common::WriteShardPlan(spec, plan, dir));
  common::ShardRunner runner(spec, plan);
  for (int k = 0; k < shards; ++k) {
    HSIS_RETURN_IF_ERROR(runner.Run(k, dir));
  }
  HSIS_ASSIGN_OR_RETURN(Bytes merged, common::MergeShards(dir, name));
  return sweep->header + BytesToString(merged);
}

TEST(ShardGoldenTest, SerialCsvsMatchFrozenDigests) {
  for (const GoldenSweep& golden : kGoldenSweeps) {
    Result<std::string> csv = LandscapeCsv(golden.name);
    ASSERT_TRUE(csv.ok()) << csv.status().ToString();
    EXPECT_EQ(HexEncode(crypto::Sha256::Hash(*csv)), golden.csv_sha256)
        << golden.name << " drifted from its frozen golden CSV";
  }
}

TEST(ShardGoldenTest, MergedShardsReproduceSerialBytes) {
  for (const GoldenSweep& golden : kGoldenSweeps) {
    Result<std::string> serial = LandscapeCsv(golden.name);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int shards : {1, 2, 3, 7}) {
      std::string dir = FreshDir(std::string("shard_golden_") + golden.name +
                                 "_" + std::to_string(shards));
      Result<std::string> merged = ShardedCsv(golden.name, shards, dir);
      ASSERT_TRUE(merged.ok())
          << golden.name << " x" << shards << ": " << merged.status().ToString();
      // Byte-for-byte: every IEEE-754 bit pattern the sweep computed
      // renders to the same %.6g text regardless of the partition.
      ASSERT_EQ(*merged, *serial) << golden.name << " with " << shards
                                  << " shards is not bit-identical to serial";
      EXPECT_EQ(HexEncode(crypto::Sha256::Hash(*merged)), golden.csv_sha256);
    }
  }
}

TEST(ShardGoldenTest, ThreadedShardsReproduceSerialBytes) {
  // Threads inside a shard compose with sharding across processes; the
  // bytes must not care about either knob.
  Result<std::string> serial = LandscapeCsv("figure1");
  ASSERT_TRUE(serial.ok());
  std::string dir = FreshDir("shard_golden_threads");
  const Sweep* sweep = FindSweep("figure1").value();
  const common::ShardSweepSpec& spec = sweep->spec;
  common::ShardPlan plan = common::ShardPlan::Create(spec.total, 3).value();
  ASSERT_TRUE(common::WriteShardPlan(spec, plan, dir).ok());
  common::ShardRunner runner(spec, plan);
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(runner.Run(k, dir, /*threads=*/k + 1).ok());
  }
  Bytes merged = common::MergeShards(dir, "figure1").value();
  EXPECT_EQ(sweep->header + BytesToString(merged), *serial);
}

TEST(ShardGoldenTest, DeletedShardIsDetectedAndRecoverable) {
  std::string dir = FreshDir("shard_golden_recovery");
  Result<std::string> first = ShardedCsv("figure2_f02", 3, dir);
  ASSERT_TRUE(first.ok());

  // Losing shard 1 (say, a worker machine died) must surface as a
  // NotFound naming the shard, not as a wrong merge.
  ASSERT_TRUE(RemoveFileIfExists(common::ShardManifestPath(dir, 1)).ok());
  ASSERT_TRUE(RemoveFileIfExists(common::ShardPayloadPath(dir, 1)).ok());
  Status missing = common::MergeShards(dir, "figure2_f02").status();
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_NE(missing.ToString().find("shard 1"), std::string::npos)
      << missing.ToString();

  // Re-running only the lost shard completes the sweep bit-identically.
  const Sweep* sweep = FindSweep("figure2_f02").value();
  const common::ShardSweepSpec& spec = sweep->spec;
  common::ShardPlan plan = common::ShardPlan::Create(spec.total, 3).value();
  ASSERT_TRUE(common::ShardRunner(spec, plan).Run(1, dir).ok());
  Result<Bytes> merged = common::MergeShards(dir, "figure2_f02");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(sweep->header + BytesToString(*merged), *first);
}

TEST(ShardGoldenTest, SweepRegistryIsConsistent) {
  for (const Sweep& sweep : SweepCatalogue()) {
    EXPECT_EQ(FindSweep(sweep.spec.name).value(), &sweep);
    EXPECT_GT(sweep.spec.total, 0u);
    EXPECT_FALSE(sweep.header.empty()) << sweep.spec.name;
    EXPECT_FALSE(sweep.filename.empty()) << sweep.spec.name;
  }
  EXPECT_EQ(FindSweep("no_such_sweep").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace hsis::core
