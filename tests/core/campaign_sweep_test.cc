// The non-figure sweeps of the catalogue (core/sweeps.h): the campaign
// ensemble, a full policy x replicate session grid, and the three
// design searches run through the same plan and merge machinery as the
// figure landscapes — so their CSVs must be byte-identical across
// thread counts and across shard partitions.

#include "core/sweeps.h"

#include <gtest/gtest.h>

#include <string>

#include "common/shard.h"

namespace hsis::core {
namespace {

TEST(CampaignShardsTest, IsListedWithItsHeaderAndFilename) {
  bool listed = false;
  for (const Sweep& sweep : SweepCatalogue()) {
    listed |= (sweep.spec.name == "campaign_ensemble");
  }
  EXPECT_TRUE(listed);

  const Sweep* sweep = FindSweep("campaign_ensemble").value();
  EXPECT_EQ(sweep->spec.name, "campaign_ensemble");
  EXPECT_EQ(sweep->spec.total, 48u);  // 3 policy pairs x 16 replicates
  EXPECT_EQ(sweep->filename, "campaign_ensemble.csv");
  EXPECT_EQ(sweep->header,
            "policy,replicate,session_seed,payoff_a,payoff_b,"
            "detections_a,detections_b\n");
}

TEST(CampaignShardsTest, CsvIsDeterministicAcrossThreadCounts) {
  Result<std::string> serial = LandscapeCsv("campaign_ensemble", 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  int rows = 0;
  for (char c : *serial) rows += (c == '\n');
  EXPECT_EQ(rows, 49);  // header + 48 grid cells
  EXPECT_EQ(serial->find("policy,replicate"), 0u);
  EXPECT_NE(serial->find("honest/honest,0,"), std::string::npos);
  EXPECT_NE(serial->find("opportunist/honest,15,"), std::string::npos);

  Result<std::string> threaded = LandscapeCsv("campaign_ensemble", 4);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(*serial, *threaded)
      << "campaign ensemble must be bit-identical across thread counts";
}

TEST(CampaignShardsTest, RecordIndexOutOfRangeFails) {
  const common::ShardSweepSpec& spec =
      FindSweep("campaign_ensemble").value()->spec;
  EXPECT_TRUE(spec.record(0).ok());
  EXPECT_TRUE(spec.record(47).ok());
  EXPECT_FALSE(spec.record(48).ok());
}

TEST(DesignSweepsTest, AreListedAndBitIdenticalAcrossThreadCounts) {
  int design_names = 0;
  for (const Sweep& sweep : SweepCatalogue()) {
    design_names += (sweep.spec.name.rfind("design_", 0) == 0);
  }
  EXPECT_EQ(design_names, 3);

  for (const char* name : {"design_min_penalties",
                           "design_min_cost_frequencies",
                           "design_budget_deterrence"}) {
    const common::ShardSweepSpec& spec = FindSweep(name).value()->spec;
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(spec.total, 48u);
    Result<std::string> csv = LandscapeCsv(name, 2);
    ASSERT_TRUE(csv.ok()) << name << ": " << csv.status().ToString();
    int rows = 0;
    for (char c : *csv) rows += (c == '\n');
    EXPECT_EQ(rows, 49) << name;  // header + one row per player
    // Thread count must not change a byte.
    EXPECT_EQ(*csv, LandscapeCsv(name, 1).value()) << name;
  }
}

}  // namespace
}  // namespace hsis::core
