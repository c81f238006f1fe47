// Privacy regression for the two-party protocol's send order.
//
// `Dataset` keeps its tuples sorted, so a send order that followed the
// sorted blocks would tell the peer each ciphertext's rank band. The
// probe here is a covert peer: B's `swap_reply_pairs` deviation swaps
// the double encryptions of A's first two wire positions, which moves
// one of those two tuples into A's result although it is not common.
// Over many seeds, the rank of that revealed tuple must be uniform over
// A's sorted set — a whole-set send order — and not confined to the
// first frame.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "sovereign/intersection_protocol.h"

namespace hsis::sovereign {
namespace {

constexpr size_t kSetSize = 64;
constexpr size_t kChunk = 8;
constexpr size_t kBands = kSetSize / kChunk;
constexpr uint64_t kSeeds = 400;
// The chi-square critical value at p = 0.001 for kBands - 1 = 7 degrees
// of freedom.
constexpr double kChiSquareCritical = 24.32;

std::string Name(const char* prefix, size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%s%02zu", prefix, i);
  return buf;
}

/// |A| = 64 tuples "t00".."t63", whose rank is their index; the even
/// ranks are common. B holds the common half plus 32 B-only tuples.
Dataset ProbeSetA() {
  std::vector<std::string> v;
  for (size_t i = 0; i < kSetSize; ++i) v.push_back(Name("t", i));
  return Dataset::FromStrings(v);
}

Dataset ProbeSetB() {
  std::vector<std::string> v;
  for (size_t i = 0; i < kSetSize; i += 2) v.push_back(Name("t", i));
  for (size_t i = 0; i < kSetSize / 2; ++i) v.push_back(Name("u", i));
  return Dataset::FromStrings(v);
}

using EntryPoint = Result<std::pair<IntersectionOutcome, IntersectionOutcome>> (
    *)(const Dataset&, const Dataset&, const crypto::PrimeGroup&,
       const crypto::MultisetHashFamily&, Rng&, const IntersectionOptions&);

struct ProbeResult {
  std::array<size_t, kBands> bands{};
  size_t revealed = 0;
  double chi_square = 0;
};

ProbeResult ProbeRevealedRanks(EntryPoint run) {
  const crypto::PrimeGroup& group = crypto::PrimeGroup::SmallTestGroup();
  const crypto::MultisetHashFamily family =
      std::move(crypto::MultisetHashFamily::CreateMu(group).value());
  const Dataset a = ProbeSetA();
  const Dataset b = ProbeSetB();
  const Dataset truth = a.Intersect(b);
  IntersectionOptions options;
  options.chunk_size = kChunk;
  options.fault_injection.swap_reply_pairs = true;

  ProbeResult probe;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    auto outcomes = run(a, b, group, family, rng, options);
    EXPECT_TRUE(outcomes.ok()) << outcomes.status().message();
    if (!outcomes.ok()) continue;
    const Dataset revealed = outcomes->first.intersection.Difference(truth);
    for (const Tuple& t : revealed.tuples()) {
      const size_t rank = std::stoul(t.ToString().substr(1));
      ++probe.bands[rank / kChunk];
      ++probe.revealed;
    }
  }
  const double expected = static_cast<double>(probe.revealed) / kBands;
  for (size_t count : probe.bands) {
    const double d = static_cast<double>(count) - expected;
    probe.chi_square += d * d / expected;
  }
  return probe;
}

std::string BandsToString(const std::array<size_t, kBands>& bands) {
  std::string s;
  for (size_t count : bands) s += std::to_string(count) + " ";
  return s;
}

TEST(ProtocolLeakageTest, RevealedTupleRankIsUniformOverTheSortedSet) {
  // Both public names, since RunTwoPartyIntersectionStreamed is kept as
  // a forwarder for existing callers.
  const std::pair<const char*, EntryPoint> entry_points[] = {
      {"RunTwoPartyIntersection", &RunTwoPartyIntersection},
      {"RunTwoPartyIntersectionStreamed", &RunTwoPartyIntersectionStreamed},
  };
  for (const auto& [name, run] : entry_points) {
    const ProbeResult probe = ProbeRevealedRanks(run);
    RecordProperty(std::string(name) + "_bands", BandsToString(probe.bands));
    RecordProperty(std::string(name) + "_chi_square",
                   std::to_string(probe.chi_square));
    EXPECT_GE(probe.revealed, 100u) << name;
    EXPECT_LT(probe.chi_square, kChiSquareCritical)
        << name << ": revealed ranks by band " << BandsToString(probe.bands)
        << "(" << probe.revealed << " revealed)";
  }
}

}  // namespace
}  // namespace hsis::sovereign
