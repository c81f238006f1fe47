#include "sim/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sovereign/dataset.h"

namespace hsis::sim {
namespace {

TEST(TwoFirmWorkloadTest, SizesAndOverlap) {
  Rng rng(1);
  TwoFirmWorkload w = MakeTwoFirmWorkload(30, 20, 10, rng);
  EXPECT_EQ(w.firm_a.size(), 40u);
  EXPECT_EQ(w.firm_b.size(), 30u);
  EXPECT_EQ(w.common.size(), 10u);
  EXPECT_EQ(w.a_private.size(), 30u);
  EXPECT_EQ(w.b_private.size(), 20u);

  sovereign::Dataset da = sovereign::Dataset::FromStrings(w.firm_a);
  sovereign::Dataset db = sovereign::Dataset::FromStrings(w.firm_b);
  sovereign::Dataset expected = sovereign::Dataset::FromStrings(w.common);
  EXPECT_EQ(da.Intersect(db), expected);
}

TEST(TwoFirmWorkloadTest, IdentifiersUnique) {
  Rng rng(2);
  TwoFirmWorkload w = MakeTwoFirmWorkload(50, 50, 25, rng);
  std::set<std::string> all(w.firm_a.begin(), w.firm_a.end());
  all.insert(w.firm_b.begin(), w.firm_b.end());
  EXPECT_EQ(all.size(), 50u + 50u + 25u);
}

TEST(TwoFirmWorkloadTest, EmptyOverlapSupported) {
  Rng rng(3);
  TwoFirmWorkload w = MakeTwoFirmWorkload(5, 5, 0, rng);
  sovereign::Dataset da = sovereign::Dataset::FromStrings(w.firm_a);
  sovereign::Dataset db = sovereign::Dataset::FromStrings(w.firm_b);
  EXPECT_TRUE(da.Intersect(db).empty());
}

TEST(SupplyChainWorkloadTest, RespectsHoldProbability) {
  Rng rng(4);
  auto parties = MakeSupplyChainWorkload(4, 1000, 0.3, rng);
  ASSERT_EQ(parties.size(), 4u);
  for (const auto& stock : parties) {
    EXPECT_NEAR(static_cast<double>(stock.size()) / 1000, 0.3, 0.06);
  }
}

TEST(SupplyChainWorkloadTest, PartsComeFromCatalog) {
  Rng rng(5);
  auto parties = MakeSupplyChainWorkload(2, 50, 0.5, rng);
  for (const auto& stock : parties) {
    for (const std::string& part : stock) {
      EXPECT_EQ(part.rfind("part-", 0), 0u) << part;
    }
  }
}

TEST(SupplyChainWorkloadTest, RejectsHoldProbabilityOutsideUnitInterval) {
  Rng rng(12);
  EXPECT_DEATH(MakeSupplyChainWorkload(2, 10, -0.1, rng), "hold_probability");
  EXPECT_DEATH(MakeSupplyChainWorkload(2, 10, 1.5, rng), "hold_probability");
}

TEST(SupplyChainWorkloadTest, AcceptsUnitIntervalEndpoints) {
  Rng rng(13);
  auto none = MakeSupplyChainWorkload(2, 20, 0.0, rng);
  for (const auto& stock : none) EXPECT_TRUE(stock.empty());
  auto all = MakeSupplyChainWorkload(2, 20, 1.0, rng);
  for (const auto& stock : all) EXPECT_EQ(stock.size(), 20u);
}

TEST(ZipfDrawsTest, SkewAndDomain) {
  Rng rng(6);
  std::vector<size_t> draws = MakeZipfIndexDraws(5000, 100, 1.2, rng);
  EXPECT_EQ(draws.size(), 5000u);
  std::map<size_t, int> counts;
  for (size_t d : draws) counts[d]++;
  // Rank 0 must dominate a deep-tail rank by a wide margin.
  EXPECT_GT(counts[0], counts[90] * 5 + 5);
}

TEST(ZipfDrawsTest, SameIndicesAsOneRngZipfPerDraw) {
  for (size_t domain : {size_t{1}, size_t{2}, size_t{7}, size_t{1000}}) {
    for (double s : {0.0, 0.5, 1.1, 3.0}) {
      SCOPED_TRACE(::testing::Message() << domain << " " << s);
      Rng batch(0x21f);
      Rng single(0x21f);
      const std::vector<size_t> draws =
          MakeZipfIndexDraws(2000, domain, s, batch);
      ASSERT_EQ(draws.size(), 2000u);
      for (size_t d : draws) ASSERT_EQ(d, single.Zipf(domain, s));
      EXPECT_EQ(batch.NextUint64(), single.NextUint64());
    }
  }
}

TEST(ProbeListTest, HitRateRespected) {
  Rng rng(7);
  std::vector<std::string> peer;
  for (int i = 0; i < 100; ++i) peer.push_back("peer-" + std::to_string(i));
  std::vector<std::string> probes = MakeProbeList(peer, 40, 0.5, rng);
  ASSERT_EQ(probes.size(), 40u);
  std::set<std::string> peer_set(peer.begin(), peer.end());
  int hits = 0;
  for (const std::string& p : probes) hits += peer_set.count(p);
  EXPECT_EQ(hits, 20);
}

TEST(ProbeListTest, HitsCappedByPeerSize) {
  Rng rng(8);
  std::vector<std::string> peer = {"only-one"};
  std::vector<std::string> probes = MakeProbeList(peer, 10, 1.0, rng);
  ASSERT_EQ(probes.size(), 10u);
  EXPECT_EQ(std::count(probes.begin(), probes.end(), "only-one"), 1);
}

TEST(ProbeListTest, ProbesAreUniqueAtScale) {
  // Regression: filler misses drew a random tag from a space of only
  // 100000, so large probe lists could repeat a tuple and silently
  // shrink the effective probe count below `count`. Every probe —
  // hit or miss — must be distinct.
  Rng rng(10);
  std::vector<std::string> peer;
  for (int i = 0; i < 2000; ++i) peer.push_back("peer-" + std::to_string(i));
  std::vector<std::string> probes = MakeProbeList(peer, 5000, 0.2, rng);
  ASSERT_EQ(probes.size(), 5000u);
  std::set<std::string> unique(probes.begin(), probes.end());
  EXPECT_EQ(unique.size(), probes.size());
}

TEST(ProbeListTest, MissesNeverCollideWithProbeShapedPeerNames) {
  // A peer set may itself contain probe-shaped identifiers; misses must
  // dodge them rather than duplicate them.
  Rng rng(11);
  std::vector<std::string> peer;
  for (int tag = 0; tag < 100000; ++tag) {
    peer.push_back("guess-0-" + std::to_string(tag));
  }
  std::vector<std::string> probes = MakeProbeList(peer, 20, 0.5, rng);
  ASSERT_EQ(probes.size(), 20u);
  std::set<std::string> unique(probes.begin(), probes.end());
  EXPECT_EQ(unique.size(), probes.size());
  // Exactly the requested hits touch the peer set; no miss lands in it
  // by accident.
  std::set<std::string> peer_set(peer.begin(), peer.end());
  int hits = 0;
  for (const std::string& p : probes) hits += peer_set.count(p);
  EXPECT_EQ(hits, 10);
}

TEST(ProbeListTest, ZeroHitRateAllMisses) {
  Rng rng(9);
  std::vector<std::string> peer = {"a", "b", "c"};
  std::vector<std::string> probes = MakeProbeList(peer, 5, 0.0, rng);
  std::set<std::string> peer_set(peer.begin(), peer.end());
  for (const std::string& p : probes) EXPECT_EQ(peer_set.count(p), 0u);
}

}  // namespace
}  // namespace hsis::sim
