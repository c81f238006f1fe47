#include "sovereign/intersection_protocol.h"

#include <gtest/gtest.h>

#include "sovereign/multiparty.h"

namespace hsis::sovereign {
namespace {

crypto::MultisetHashFamily MuFamily() {
  Result<crypto::MultisetHashFamily> f =
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup());
  EXPECT_TRUE(f.ok());
  return *f;
}

const crypto::PrimeGroup& Group() {
  return crypto::PrimeGroup::SmallTestGroup();
}

TEST(IntersectionProtocolTest, PaperSection1Example) {
  // V_R = {b, u, v, y}, V_S = {a, u, v, x}; result {u, v}, nothing more.
  Rng rng(1);
  Dataset vr = Dataset::FromStrings({"b", "u", "v", "y"});
  Dataset vs = Dataset::FromStrings({"a", "u", "v", "x"});
  auto outcomes = RunTwoPartyIntersection(vr, vs, Group(), MuFamily(), rng);
  ASSERT_TRUE(outcomes.ok());
  Dataset expected = Dataset::FromStrings({"u", "v"});
  EXPECT_EQ(outcomes->first.intersection, expected);
  EXPECT_EQ(outcomes->second.intersection, expected);
  EXPECT_EQ(outcomes->first.intersection_size, 2u);
  EXPECT_EQ(outcomes->second.intersection_size, 2u);
}

TEST(IntersectionProtocolTest, MatchesGroundTruthOnRandomSets) {
  Rng rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::string> universe;
    for (int i = 0; i < 60; ++i) universe.push_back("cust" + std::to_string(i));
    std::vector<std::string> a, b;
    for (const std::string& u : universe) {
      if (rng.Bernoulli(0.5)) a.push_back(u);
      if (rng.Bernoulli(0.5)) b.push_back(u);
    }
    Dataset da = Dataset::FromStrings(a);
    Dataset db = Dataset::FromStrings(b);
    auto outcomes = RunTwoPartyIntersection(da, db, Group(), MuFamily(), rng);
    ASSERT_TRUE(outcomes.ok());
    EXPECT_EQ(outcomes->first.intersection, da.Intersect(db)) << trial;
    EXPECT_EQ(outcomes->second.intersection, db.Intersect(da)) << trial;
  }
}

TEST(IntersectionProtocolTest, DisjointAndIdenticalSets) {
  Rng rng(3);
  Dataset a = Dataset::FromStrings({"p", "q"});
  Dataset b = Dataset::FromStrings({"r", "s"});
  auto disjoint = RunTwoPartyIntersection(a, b, Group(), MuFamily(), rng);
  ASSERT_TRUE(disjoint.ok());
  EXPECT_TRUE(disjoint->first.intersection.empty());

  auto identical = RunTwoPartyIntersection(a, a, Group(), MuFamily(), rng);
  ASSERT_TRUE(identical.ok());
  EXPECT_EQ(identical->first.intersection, a);
}

TEST(IntersectionProtocolTest, EmptyInputs) {
  Rng rng(4);
  Dataset empty;
  Dataset b = Dataset::FromStrings({"x"});
  auto outcomes = RunTwoPartyIntersection(empty, b, Group(), MuFamily(), rng);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_TRUE(outcomes->first.intersection.empty());
  EXPECT_TRUE(outcomes->second.intersection.empty());
}

TEST(IntersectionProtocolTest, MultisetMultiplicity) {
  Rng rng(5);
  Dataset a = Dataset::FromStrings({"x", "x", "x", "y"});
  Dataset b = Dataset::FromStrings({"x", "x", "z"});
  auto outcomes = RunTwoPartyIntersection(a, b, Group(), MuFamily(), rng);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ(outcomes->first.intersection, Dataset::FromStrings({"x", "x"}));
  EXPECT_EQ(outcomes->second.intersection, Dataset::FromStrings({"x", "x"}));
}

TEST(IntersectionProtocolTest, SizeOnlyModeHidesMembers) {
  Rng rng(6);
  Dataset a = Dataset::FromStrings({"b", "u", "v", "y"});
  Dataset b = Dataset::FromStrings({"a", "u", "v", "x"});
  IntersectionOptions options;
  options.size_only = true;
  auto outcomes =
      RunTwoPartyIntersection(a, b, Group(), MuFamily(), rng, options);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ(outcomes->first.intersection_size, 2u);
  EXPECT_EQ(outcomes->second.intersection_size, 2u);
  EXPECT_TRUE(outcomes->first.intersection.empty());
  EXPECT_TRUE(outcomes->second.intersection.empty());
}

TEST(IntersectionProtocolTest, CommitmentsMatchReportedData) {
  Rng rng(7);
  Dataset a = Dataset::FromStrings({"p", "q"});
  Dataset b = Dataset::FromStrings({"q", "r"});
  crypto::MultisetHashFamily family = MuFamily();
  auto outcomes = RunTwoPartyIntersection(a, b, Group(), family, rng);
  ASSERT_TRUE(outcomes.ok());

  // A's own commitment equals the multiset hash of its reported data.
  auto expected_a = family.NewHash();
  for (const Tuple& t : a.tuples()) expected_a->Add(t.value);
  auto got = family.Deserialize(outcomes->first.own_commitment);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(expected_a->Equivalent(**got));

  // Cross: A's peer commitment is B's own commitment.
  EXPECT_EQ(outcomes->first.peer_commitment, outcomes->second.own_commitment);
  EXPECT_EQ(outcomes->second.peer_commitment, outcomes->first.own_commitment);
}

TEST(IntersectionProtocolTest, MaliciousInsertionProbesPeer) {
  // The Section 1 attack this paper is about: R adds "x" to learn
  // whether S has it. The protocol computes the altered intersection —
  // exactly why the auditing device is needed.
  Rng rng(8);
  Dataset honest_r = Dataset::FromStrings({"b", "u", "v", "y"});
  Dataset cheating_r = honest_r;
  cheating_r.Add(Tuple::FromString("x"));  // fabricated probe
  Dataset s = Dataset::FromStrings({"a", "u", "v", "x"});

  auto outcomes =
      RunTwoPartyIntersection(cheating_r, s, Group(), MuFamily(), rng);
  ASSERT_TRUE(outcomes.ok());
  // R now learns S has "x" — more than the honest result {u, v}.
  EXPECT_TRUE(outcomes->first.intersection.Contains(Tuple::FromString("x")));
  EXPECT_EQ(outcomes->first.intersection_size, 3u);
}

TEST(IntersectionProtocolTest, ReportsWireBytes) {
  Rng rng(9);
  Dataset a = Dataset::FromStrings({"1", "2", "3"});
  Dataset b = Dataset::FromStrings({"2", "3", "4"});
  auto outcomes = RunTwoPartyIntersection(a, b, Group(), MuFamily(), rng);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_GT(outcomes->first.bytes_sent, 0u);
  EXPECT_GT(outcomes->second.bytes_sent, 0u);
}

TEST(IntersectionProtocolTest, WorksOnProductionGroup) {
  Rng rng(10);
  Dataset a = Dataset::FromStrings({"alice", "bob", "carol"});
  Dataset b = Dataset::FromStrings({"bob", "dave"});
  Result<crypto::MultisetHashFamily> family =
      crypto::MultisetHashFamily::Create(crypto::MultisetHashScheme::kMu);
  ASSERT_TRUE(family.ok());
  auto outcomes = RunTwoPartyIntersection(a, b, crypto::PrimeGroup::Default(),
                                          *family, rng);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ(outcomes->first.intersection, Dataset::FromStrings({"bob"}));
}

TEST(MultiPartyTest, ThreePartyIntersection) {
  Rng rng(11);
  std::vector<Dataset> reported = {
      Dataset::FromStrings({"a", "b", "c", "d"}),
      Dataset::FromStrings({"b", "c", "d", "e"}),
      Dataset::FromStrings({"c", "d", "e", "f"}),
  };
  auto outcomes = RunMultiPartyIntersection(reported, Group(), MuFamily(), rng);
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes->size(), 3u);
  Dataset expected = Dataset::FromStrings({"c", "d"});
  for (const MultiPartyOutcome& o : *outcomes) {
    EXPECT_EQ(o.intersection, expected);
    EXPECT_FALSE(o.own_commitment.empty());
  }
}

TEST(MultiPartyTest, FivePartiesMatchGroundTruth) {
  Rng rng(12);
  std::vector<Dataset> reported;
  for (int p = 0; p < 5; ++p) {
    std::vector<std::string> vals;
    for (int i = 0; i < 40; ++i) {
      if (rng.Bernoulli(0.6)) vals.push_back("item" + std::to_string(i));
    }
    reported.push_back(Dataset::FromStrings(vals));
  }
  auto outcomes = RunMultiPartyIntersection(reported, Group(), MuFamily(), rng);
  ASSERT_TRUE(outcomes.ok());
  Dataset truth = reported[0];
  for (int p = 1; p < 5; ++p) truth = truth.Intersect(reported[static_cast<size_t>(p)]);
  for (const MultiPartyOutcome& o : *outcomes) {
    EXPECT_EQ(o.intersection, truth);
  }
}

TEST(MultiPartyTest, MultisetMultiplicity) {
  // The ring counterpart of IntersectionProtocolTest.MultisetMultiplicity:
  // a tuple survives with its minimum multiplicity over all parties.
  Rng rng(14);
  std::vector<Dataset> reported = {
      Dataset::FromStrings({"x", "x", "x", "y"}),
      Dataset::FromStrings({"x", "x", "y", "z"}),
      Dataset::FromStrings({"x", "x", "x", "x"}),
  };
  auto outcomes = RunMultiPartyIntersection(reported, Group(), MuFamily(), rng);
  ASSERT_TRUE(outcomes.ok());
  for (const MultiPartyOutcome& o : *outcomes) {
    EXPECT_EQ(o.intersection, Dataset::FromStrings({"x", "x"}));
  }
}

TEST(MultiPartyTest, RandomMultisetsMatchChainedIntersect) {
  Rng data_rng(15);
  for (size_t parties = 2; parties <= 5; ++parties) {
    for (int trial = 0; trial < 4; ++trial) {
      // Few distinct values and repeats, so multiplicities collide.
      std::vector<Dataset> reported(parties);
      for (Dataset& d : reported) {
        const int64_t size = data_rng.UniformInt(0, 12);
        for (int64_t k = 0; k < size; ++k) {
          d.Add(Tuple::FromString(std::string("v").append(
              std::to_string(data_rng.UniformInt(0, 4)))));
        }
      }
      Dataset truth = reported[0];
      for (size_t p = 1; p < parties; ++p) truth = truth.Intersect(reported[p]);
      for (int threads : {1, 4}) {
        Rng rng(16);
        MultiPartyOptions options;
        options.threads = threads;
        auto outcomes = RunMultiPartyIntersection(reported, Group(),
                                                  MuFamily(), rng, options);
        ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
        for (size_t p = 0; p < parties; ++p) {
          EXPECT_EQ((*outcomes)[p].intersection, truth)
              << parties << " parties, trial " << trial << ", threads "
              << threads << ", party " << p;
        }
      }
    }
  }
}

TEST(MultiPartyTest, RequiresTwoPlus) {
  Rng rng(13);
  std::vector<Dataset> one = {Dataset::FromStrings({"x"})};
  EXPECT_FALSE(RunMultiPartyIntersection(one, Group(), MuFamily(), rng).ok());
}

}  // namespace
}  // namespace hsis::sovereign
