// Property-style tests of the intersection protocol: randomized
// workloads, binary tuple values, parameterized group choice, and
// invariants that must hold on every run.

#include <gtest/gtest.h>

#include "sovereign/intersection_protocol.h"

namespace hsis::sovereign {
namespace {

struct GroupCase {
  const char* name;
  const crypto::PrimeGroup* group;
};

class ProtocolPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  const crypto::PrimeGroup& Group() const {
    return GetParam() == 0 ? crypto::PrimeGroup::SmallTestGroup()
                           : crypto::PrimeGroup::Default();
  }
  crypto::MultisetHashFamily Family() const {
    return std::move(crypto::MultisetHashFamily::CreateMu(Group()).value());
  }
};

TEST_P(ProtocolPropertyTest, RandomMultisetsMatchGroundTruth) {
  Rng rng(101 + static_cast<uint64_t>(GetParam()));
  const int trials = GetParam() == 0 ? 6 : 2;  // production group is slower
  for (int trial = 0; trial < trials; ++trial) {
    // Multisets over a small domain, so duplicates are frequent.
    auto random_multiset = [&](size_t max_size) {
      std::vector<Tuple> tuples;
      size_t n = rng.UniformUint64(max_size + 1);
      for (size_t i = 0; i < n; ++i) {
        tuples.push_back(
            Tuple::FromString(std::string("v").append(
                std::to_string(rng.UniformUint64(12)))));
      }
      return Dataset(std::move(tuples));
    };
    Dataset a = random_multiset(24);
    Dataset b = random_multiset(24);
    auto outcomes =
        RunTwoPartyIntersection(a, b, Group(), Family(), rng);
    ASSERT_TRUE(outcomes.ok()) << trial;
    EXPECT_EQ(outcomes->first.intersection, a.Intersect(b)) << trial;
    EXPECT_EQ(outcomes->second.intersection, b.Intersect(a)) << trial;
    // Symmetry of the size and of commitments' cross-consistency.
    EXPECT_EQ(outcomes->first.intersection_size,
              outcomes->second.intersection_size);
    EXPECT_EQ(outcomes->first.peer_commitment,
              outcomes->second.own_commitment);
  }
}

TEST_P(ProtocolPropertyTest, BinaryTupleValues) {
  // Tuples are opaque bytes: embedded NULs, high bytes, length 0..64.
  Rng rng(202);
  std::vector<Tuple> shared, a_only, b_only;
  for (int i = 0; i < 8; ++i) {
    shared.push_back(Tuple(rng.RandomBytes(rng.UniformUint64(65))));
    a_only.push_back(Tuple(rng.RandomBytes(1 + rng.UniformUint64(64))));
    b_only.push_back(Tuple(rng.RandomBytes(1 + rng.UniformUint64(64))));
  }
  std::vector<Tuple> a_tuples = shared, b_tuples = shared;
  a_tuples.insert(a_tuples.end(), a_only.begin(), a_only.end());
  b_tuples.insert(b_tuples.end(), b_only.begin(), b_only.end());
  Dataset a(a_tuples), b(b_tuples);

  auto outcomes = RunTwoPartyIntersection(a, b, Group(), Family(), rng);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ(outcomes->first.intersection, a.Intersect(b));
}

TEST_P(ProtocolPropertyTest, SizeOnlyAgreesWithFullMode) {
  Rng rng(303);
  Dataset a = Dataset::FromStrings({"p", "q", "r", "s", "q"});
  Dataset b = Dataset::FromStrings({"q", "q", "s", "t"});
  auto full = RunTwoPartyIntersection(a, b, Group(), Family(), rng);
  IntersectionOptions size_only;
  size_only.size_only = true;
  auto sized = RunTwoPartyIntersection(a, b, Group(), Family(), rng, size_only);
  ASSERT_TRUE(full.ok() && sized.ok());
  EXPECT_EQ(full->first.intersection_size, sized->first.intersection_size);
  EXPECT_EQ(sized->first.intersection_size, 3u);  // {q, q, s}
}

TEST_P(ProtocolPropertyTest, IntersectionIsSubsetOfBothInputs) {
  Rng rng(404);
  Dataset a = Dataset::FromStrings({"1", "2", "3", "3"});
  Dataset b = Dataset::FromStrings({"3", "3", "3", "4"});
  auto outcomes = RunTwoPartyIntersection(a, b, Group(), Family(), rng);
  ASSERT_TRUE(outcomes.ok());
  for (const Tuple& t : outcomes->first.intersection.tuples()) {
    EXPECT_LE(outcomes->first.intersection.Count(t), a.Count(t));
    EXPECT_LE(outcomes->first.intersection.Count(t), b.Count(t));
  }
  EXPECT_EQ(outcomes->first.intersection.Count(Tuple::FromString("3")), 2u);
}

INSTANTIATE_TEST_SUITE_P(Groups, ProtocolPropertyTest, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? std::string("TestGroup64")
                                                  : std::string("Prod256");
                         });

}  // namespace
}  // namespace hsis::sovereign
