// Determinism suite for the parallelized n-party ring protocol:
// bit-identical intersections and commitments at threads = 1, 2, and
// hardware concurrency; a golden test freezing the pre-parallelism
// serial output (intersection members and commitment bytes); and the
// fault-injection extension — a party failing mid-round must abort
// with the same error no matter the thread count.

#include <gtest/gtest.h>

#include "sim/workload.h"
#include "sovereign/multiparty.h"

namespace hsis::sovereign {
namespace {

crypto::MultisetHashFamily MuFamily() {
  return std::move(
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup())
          .value());
}

const crypto::PrimeGroup& Group() {
  return crypto::PrimeGroup::SmallTestGroup();
}

/// The supply-chain workload the golden values were recorded on:
/// 4 parties, catalog 40, p(hold) = 0.7, workload seed 42.
std::vector<Dataset> GoldenWorkload() {
  Rng rng(42);
  auto stocks = sim::MakeSupplyChainWorkload(4, 40, 0.7, rng);
  std::vector<Dataset> reported;
  for (const auto& s : stocks) reported.push_back(Dataset::FromStrings(s));
  return reported;
}

TEST(MultiPartyParallelTest, MatchesPreParallelSerialGolden) {
  // Frozen from the serial implementation before the per-party loops
  // were threaded: every party sees the same 5-element intersection,
  // and publishes exactly these commitment bytes (protocol rng seed 7).
  const char* kCommitments[] = {
      "03000000000000001b000000000000000000000000000000000000000000000000"
      "19b897996f02c86e00000000",
      "03000000000000001c000000000000000000000000000000000000000000000000"
      "06a5524307a2b00800000000",
      "03000000000000001a000000000000000000000000000000000000000000000000"
      "66d33eba995d915a00000000",
      "030000000000000015000000000000000000000000000000000000000000000000"
      "83c515b342d8f1a000000000",
  };
  const Dataset kIntersection = Dataset::FromStrings(
      {"part-13", "part-16", "part-20", "part-5", "part-7"});

  std::vector<Dataset> reported = GoldenWorkload();
  auto family = MuFamily();
  for (int threads : {1, 2, 0}) {
    MultiPartyOptions options;
    options.threads = threads;
    Rng rng(7);
    auto outcomes =
        RunMultiPartyIntersection(reported, Group(), family, rng, options);
    ASSERT_TRUE(outcomes.ok());
    ASSERT_EQ(outcomes->size(), 4u);
    for (size_t i = 0; i < outcomes->size(); ++i) {
      EXPECT_EQ((*outcomes)[i].intersection, kIntersection)
          << "party " << i << " threads " << threads;
      EXPECT_EQ(HexEncode((*outcomes)[i].own_commitment), kCommitments[i])
          << "party " << i << " threads " << threads;
    }
  }
}

TEST(MultiPartyParallelTest, BitIdenticalAcrossThreadCounts) {
  // A bigger ring than the golden: 6 parties, catalog 80.
  Rng workload_rng(99);
  auto stocks = sim::MakeSupplyChainWorkload(6, 80, 0.8, workload_rng);
  std::vector<Dataset> reported;
  for (const auto& s : stocks) reported.push_back(Dataset::FromStrings(s));
  auto family = MuFamily();

  MultiPartyOptions options;
  options.threads = 1;
  Rng serial_rng(31);
  auto serial =
      RunMultiPartyIntersection(reported, Group(), family, serial_rng, options);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 0}) {
    options.threads = threads;
    Rng rng(31);
    auto parallel =
        RunMultiPartyIntersection(reported, Group(), family, rng, options);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(serial->size(), parallel->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i].intersection, (*parallel)[i].intersection) << i;
      EXPECT_EQ((*serial)[i].own_commitment, (*parallel)[i].own_commitment)
          << i;
    }
  }
}

TEST(MultiPartyParallelTest, PartyFailingMidRoundAbortsDeterministically) {
  std::vector<Dataset> reported = GoldenWorkload();
  auto family = MuFamily();

  MultiPartyOptions options;
  options.fault_injection.party_fails_mid_round = 2;
  options.threads = 1;
  Rng serial_rng(7);
  auto serial =
      RunMultiPartyIntersection(reported, Group(), family, serial_rng, options);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kProtocolViolation);

  // Under threads > 1 several owners hit the dead party concurrently;
  // the reported error must be byte-identical to the serial abort.
  for (int threads : {2, 0}) {
    options.threads = threads;
    Rng rng(7);
    auto parallel =
        RunMultiPartyIntersection(reported, Group(), family, rng, options);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().code(), serial.status().code());
    EXPECT_EQ(parallel.status().message(), serial.status().message());
  }
}

TEST(MultiPartyParallelTest, EveryFailingPartyIndexAborts) {
  std::vector<Dataset> reported = GoldenWorkload();
  auto family = MuFamily();
  for (int fail = 0; fail < 4; ++fail) {
    MultiPartyOptions options;
    options.threads = 2;
    options.fault_injection.party_fails_mid_round = fail;
    Rng rng(7);
    auto outcomes =
        RunMultiPartyIntersection(reported, Group(), family, rng, options);
    ASSERT_FALSE(outcomes.ok()) << fail;
    EXPECT_EQ(outcomes.status().code(), StatusCode::kProtocolViolation)
        << fail;
  }
}

TEST(MultiPartyParallelTest, ValidatesFaultInjectionIndex) {
  std::vector<Dataset> reported = GoldenWorkload();
  auto family = MuFamily();
  MultiPartyOptions options;
  options.fault_injection.party_fails_mid_round = 4;  // out of range
  Rng rng(7);
  EXPECT_EQ(RunMultiPartyIntersection(reported, Group(), family, rng, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.fault_injection.party_fails_mid_round = -7;
  Rng rng2(7);
  EXPECT_EQ(RunMultiPartyIntersection(reported, Group(), family, rng2, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MultiPartyParallelTest, BadOptionsNameTheirField) {
  // A negative thread count used to be clamped to one worker.
  struct Case {
    int threads;
    int party_fails_mid_round;
    const char* field;
  };
  const Case kCases[] = {
      {-3, -1, "MultiPartyOptions.threads"},
      {-1, -1, "MultiPartyOptions.threads"},
      {1, -2, "MultiPartyOptions.fault_injection.party_fails_mid_round"},
      {1, 4, "MultiPartyOptions.fault_injection.party_fails_mid_round"},
  };
  std::vector<Dataset> reported = GoldenWorkload();
  auto family = MuFamily();
  for (const Case& c : kCases) {
    MultiPartyOptions options;
    options.threads = c.threads;
    options.fault_injection.party_fails_mid_round = c.party_fails_mid_round;
    Rng rng(7);
    auto outcomes =
        RunMultiPartyIntersection(reported, Group(), family, rng, options);
    ASSERT_FALSE(outcomes.ok()) << c.field;
    EXPECT_EQ(outcomes.status().code(), StatusCode::kInvalidArgument)
        << c.field;
    EXPECT_NE(outcomes.status().message().find(c.field), std::string::npos)
        << outcomes.status().ToString();
  }
}

}  // namespace
}  // namespace hsis::sovereign
