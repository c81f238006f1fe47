// The sweep catalogue and the results-directory lifecycle every sharded
// driver shares (core/sweeps.h): the nine entries in list order, plan,
// run every shard, merge — and the resume-or-plan rules the daemon and
// the scheduler start from.

#include "core/sweeps.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/shard.h"

namespace hsis::core {
namespace {

/// A results directory path with nothing at it (a rerun starts clean).
std::string UnusedDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/lifecycle_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(LandscapeShardsTest, PlanRunMergeReproducesTheSerialCsv) {
  for (const char* name : {"figure1", "figure4"}) {
    const std::string dir = UnusedDir(std::string("merge_") + name);
    auto planned = PlanLandscapeShards(name, 3, dir);
    ASSERT_TRUE(planned.ok()) << planned.status();
    EXPECT_EQ(planned->sweep, name);
    EXPECT_EQ(planned->shards, 3);
    EXPECT_EQ(*planned, common::ReadShardPlan(dir).value());

    auto sweep = OpenLandscapeShards(dir);
    ASSERT_TRUE(sweep.ok()) << sweep.status();
    EXPECT_EQ(sweep->plan, *planned);
    for (int k = 0; k < sweep->plan.shards; ++k) {
      ASSERT_TRUE(sweep->runner.Run(k, dir).ok()) << name << " shard " << k;
    }

    auto merged = MergeLandscapeShards(dir);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(merged->plan, *planned);
    EXPECT_EQ(merged->csv, LandscapeCsv(name).value()) << name;
  }
}

TEST(LandscapeShardsTest, MergeOfAMissingShardIsNotFound) {
  const std::string dir = UnusedDir("missing_shard");
  ASSERT_TRUE(PlanLandscapeShards("figure1", 2, dir).ok());
  ASSERT_TRUE(OpenLandscapeShards(dir)->runner.Run(0, dir).ok());
  auto merged = MergeLandscapeShards(dir);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kNotFound);
}

TEST(LandscapeShardsTest, ResumeOrPlanNeedsAPlanOrASweep) {
  const std::string dir = UnusedDir("neither");
  bool planned = true;
  auto info = ResumeOrPlanLandscapeShards("", 4, dir, &planned);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(info.status().message().find("no plan in " + dir),
            std::string::npos)
      << info.status();
  EXPECT_FALSE(FileExists(common::ShardPlanPath(dir)));
}

TEST(LandscapeShardsTest, ResumeOrPlanPlansAnEmptyDirectoryOnce) {
  const std::string dir = UnusedDir("plan_once");
  bool planned = false;
  auto first = ResumeOrPlanLandscapeShards("figure1", 4, dir, &planned);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(planned);
  EXPECT_EQ(first->shards, 4);
  const std::string manifest = ReadFile(common::ShardPlanPath(dir)).value();

  // Resuming — with or without the sweep named, with any --shards —
  // leaves the plan manifest byte-identical.
  for (const char* name : {"", "figure1"}) {
    auto again = ResumeOrPlanLandscapeShards(name, 9, dir, &planned);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_FALSE(planned);
    EXPECT_EQ(*again, *first);
    EXPECT_EQ(ReadFile(common::ShardPlanPath(dir)).value(), manifest);
  }
}

TEST(LandscapeShardsTest, ResumeOrPlanRejectsAContradictingSweep) {
  const std::string dir = UnusedDir("contradiction");
  ASSERT_TRUE(PlanLandscapeShards("figure1", 2, dir).ok());
  const std::string manifest = ReadFile(common::ShardPlanPath(dir)).value();
  auto info = ResumeOrPlanLandscapeShards("figure3", 2, dir);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(info.status().message().find("--sweep=figure3 contradicts"),
            std::string::npos)
      << info.status();
  EXPECT_EQ(ReadFile(common::ShardPlanPath(dir)).value(), manifest);
}

TEST(SweepCatalogueTest, NineSweepsInListOrderFiguresFirst) {
  const std::vector<std::string> expected = {
      "figure1",
      "figure2_f02",
      "figure2_f07",
      "figure3",
      "figure4",
      "design_min_penalties",
      "design_min_cost_frequencies",
      "design_budget_deterrence",
      "campaign_ensemble"};
  const std::vector<Sweep>& catalogue = SweepCatalogue();
  ASSERT_EQ(catalogue.size(), expected.size());
  for (size_t i = 0; i < catalogue.size(); ++i) {
    EXPECT_EQ(catalogue[i].spec.name, expected[i]);
    // export_landscapes writes exactly the paper's figures.
    EXPECT_EQ(catalogue[i].figure, i < 5) << expected[i];
    EXPECT_EQ(FindSweep(expected[i]).value(), &catalogue[i]);
  }
  Status unknown = FindSweep("figure2").status();
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  // The NotFound lists every catalogue name, in order.
  std::string known;
  for (const std::string& name : expected) {
    known += (known.empty() ? "" : ", ") + name;
  }
  EXPECT_NE(unknown.message().find("(known: " + known + ")"),
            std::string::npos)
      << unknown;
}

TEST(LandscapeShardsTest, UnknownSweepIsNotFound) {
  const std::string dir = UnusedDir("unknown");
  EXPECT_EQ(PlanLandscapeShards("no_such_sweep", 2, dir).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(OpenLandscapeShards(dir).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace hsis::core
