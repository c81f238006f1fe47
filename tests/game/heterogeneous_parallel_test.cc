// Determinism suite for the parallelized heterogeneous design
// searches: bit-identical output at threads = 1, 2, and hardware
// concurrency, with ragged player batches; golden tests freezing the
// pre-parallelism serial output (values and IEEE-754 bit patterns
// recorded before the inner loops were threaded); and regression tests
// for the non-finite-input validation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "game/heterogeneous.h"
#include "game/thresholds.h"

namespace hsis::game {
namespace {

using Spec = HeterogeneousHonestyGame::PlayerSpec;

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::vector<Spec> Consortium() {
  auto member = [](double b, double gain_base, double gain_slope,
                   double penalty) {
    Spec s;
    s.benefit = b;
    s.gain = LinearGain(gain_base, gain_slope);
    s.penalty = penalty;
    s.frequency = 0.25;
    return s;
  };
  return {
      member(20, 22, 0.5, 50), member(15, 25, 1.0, 50),
      member(12, 28, 1.5, 40), member(10, 32, 2.0, 40),
      member(8, 40, 2.5, 30),  member(6, 55, 3.0, 30),
  };
}

/// A consortium big enough that parallel chunking actually splits it.
std::vector<Spec> BigPopulation(size_t n) {
  std::vector<Spec> players;
  players.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Spec s;
    s.benefit = 5.0 + static_cast<double>(i % 17);
    s.gain = LinearGain(20.0 + static_cast<double>(i % 41),
                        0.001 * static_cast<double>(i % 7));
    s.penalty = 10.0 + static_cast<double>(i % 29);
    s.frequency = 0.25;
    players.push_back(std::move(s));
  }
  return players;
}

const DesignSearchOptions kKnobs[] = {{2}, {3}, {7}, {0}};

TEST(HeterogeneousParallelTest, MinPenaltiesMatchesPreParallelGolden) {
  // Frozen from the serial implementation before the inner loop was
  // threaded, on the six-member consortium at f_i = 0.25, margin 1e-6.
  struct Golden {
    double penalty;
    uint64_t bits;
  };
  const Golden kGolden[] = {
      {9.9999999999999995e-07, 0x3eb0c6f7a0b5ed8dULL},
      {30.000001000000001, 0x403e000010c6f7a1ULL},
      {58.500000999999997, 0x404d400008637bd0ULL},
      {86.000000999999997, 0x405580000431bde8ULL},
      {125.500001, 0x405f60000431bde8ULL},
      {186.000001, 0x406740000218def4ULL},
  };
  for (int threads : {1, 2, 0}) {
    DesignSearchOptions options;
    options.threads = threads;
    auto penalties = MinPenaltiesForAllHonest(Consortium(), 1e-6, options);
    ASSERT_TRUE(penalties.ok());
    ASSERT_EQ(penalties->size(), std::size(kGolden));
    for (size_t i = 0; i < std::size(kGolden); ++i) {
      EXPECT_EQ(Bits((*penalties)[i]), kGolden[i].bits)
          << "player " << i << " expected " << kGolden[i].penalty << " got "
          << (*penalties)[i] << " (threads=" << threads << ")";
    }
  }
}

TEST(HeterogeneousParallelTest, MinCostFrequenciesMatchesPreParallelGolden) {
  // Frozen from the pre-parallelism serial run: frequencies and the
  // index-order cost accumulation (costs 1..6).
  struct Golden {
    double frequency;
    uint64_t bits;
  };
  const Golden kGolden[] = {
      {0.060403684563758393, 0x3faeed3b5384bb69ULL},
      {0.187501, 0x3fc80008637bd05bULL},
      {0.31125927814569532, 0x3fd3ebac090d96ccULL},
      {0.39024490243902438, 0x3fd8f9c5c15a0127ULL},
      {0.53939493939393945, 0x3fe142b92d0a655aULL},
      {0.64000100000000004, 0x3fe47ae3608d0892ULL},
  };
  const uint64_t kTotalCostBits = 0x4022ef2d79bc0c69ULL;  // 9.4671438257266392
  std::vector<double> costs = {1, 2, 3, 4, 5, 6};
  for (int threads : {1, 2, 0}) {
    DesignSearchOptions options;
    options.threads = threads;
    auto plan = MinCostFrequencies(Consortium(), costs, 1e-6, options);
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->frequencies.size(), std::size(kGolden));
    for (size_t i = 0; i < std::size(kGolden); ++i) {
      EXPECT_EQ(Bits(plan->frequencies[i]), kGolden[i].bits) << i;
    }
    EXPECT_EQ(Bits(plan->total_cost), kTotalCostBits) << threads;
  }
}

TEST(HeterogeneousParallelTest, MaxDeterredMatchesPreParallelGolden) {
  // Budget 1.3 funds the four cheapest members; frozen frequencies and
  // budget accounting from the pre-parallelism serial run.
  const uint64_t kFunded[] = {
      0x3faeed3b5384bb69ULL,  // 0.060403684563758393
      0x3fc80008637bd05bULL,  // 0.187501
      0x3fd3ebac090d96ccULL,  // 0.31125927814569532
      0x3fd8f9c5c15a0127ULL,  // 0.39024490243902438
  };
  const uint64_t kBudgetUsedBits = 0x3fee618eb34b0bc6ULL;  // 0.949408865148478
  for (int threads : {1, 2, 0}) {
    DesignSearchOptions options;
    options.threads = threads;
    auto alloc = MaxDeterredUnderBudget(Consortium(), 1.3, 1e-6, options);
    ASSERT_TRUE(alloc.ok());
    EXPECT_EQ(alloc->deterred_count, 4);
    EXPECT_EQ(Bits(alloc->budget_used), kBudgetUsedBits);
    ASSERT_EQ(alloc->frequencies.size(), 6u);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(alloc->deterred[i]) << i;
      EXPECT_EQ(Bits(alloc->frequencies[i]), kFunded[i]) << i;
    }
    for (size_t i = 4; i < 6; ++i) {
      EXPECT_FALSE(alloc->deterred[i]) << i;
      EXPECT_EQ(alloc->frequencies[i], 0.0) << i;
    }
  }
}

TEST(HeterogeneousParallelTest, BitIdenticalAcrossThreadsAndBatchSizes) {
  std::vector<Spec> players = BigPopulation(997);  // prime: ragged batches
  std::vector<double> costs(players.size());
  for (size_t i = 0; i < costs.size(); ++i) {
    costs[i] = 1.0 + static_cast<double>(i % 13);
  }

  auto serial_penalties = MinPenaltiesForAllHonest(players).value();
  auto serial_plan = MinCostFrequencies(players, costs).value();
  auto serial_alloc = MaxDeterredUnderBudget(players, 120.0).value();

  for (const DesignSearchOptions& options : kKnobs) {
    auto penalties = MinPenaltiesForAllHonest(players, 1e-6, options).value();
    ASSERT_EQ(penalties.size(), serial_penalties.size());
    for (size_t i = 0; i < penalties.size(); ++i) {
      EXPECT_EQ(Bits(penalties[i]), Bits(serial_penalties[i])) << i;
    }

    auto plan = MinCostFrequencies(players, costs, 1e-6, options).value();
    EXPECT_EQ(Bits(plan.total_cost), Bits(serial_plan.total_cost));
    for (size_t i = 0; i < plan.frequencies.size(); ++i) {
      EXPECT_EQ(Bits(plan.frequencies[i]), Bits(serial_plan.frequencies[i]))
          << i;
    }

    auto alloc = MaxDeterredUnderBudget(players, 120.0, 1e-6, options).value();
    EXPECT_EQ(alloc.deterred_count, serial_alloc.deterred_count);
    EXPECT_EQ(Bits(alloc.budget_used), Bits(serial_alloc.budget_used));
    for (size_t i = 0; i < alloc.frequencies.size(); ++i) {
      EXPECT_EQ(Bits(alloc.frequencies[i]), Bits(serial_alloc.frequencies[i]))
          << i;
      EXPECT_EQ(alloc.deterred[i], serial_alloc.deterred[i]) << i;
    }
  }
}

TEST(HeterogeneousParallelTest, RejectsNegativeBudget) {
  for (int threads : {1, 2, 0}) {
    DesignSearchOptions options;
    options.threads = threads;
    auto alloc = MaxDeterredUnderBudget(Consortium(), -0.5, 1e-6, options);
    ASSERT_FALSE(alloc.ok());
    EXPECT_EQ(alloc.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HeterogeneousParallelTest, RejectsNonFiniteInputs) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();

  // NaN budget.
  EXPECT_EQ(MaxDeterredUnderBudget(Consortium(), kNan).status().code(),
            StatusCode::kInvalidArgument);
  // Infinite budget.
  EXPECT_EQ(MaxDeterredUnderBudget(Consortium(), kInf).status().code(),
            StatusCode::kInvalidArgument);

  // Non-finite per-player bounds reject across all three searches.
  auto corrupt = [](void (*mutate)(Spec&)) {
    std::vector<Spec> players;
    auto base = Consortium();
    players = base;
    mutate(players[2]);
    return players;
  };
  std::vector<std::vector<Spec>> bad_populations = {
      corrupt([](Spec& s) { s.frequency = std::nan(""); }),
      corrupt([](Spec& s) {
        s.penalty = std::numeric_limits<double>::infinity();
      }),
      corrupt([](Spec& s) { s.benefit = std::nan(""); }),
      corrupt([](Spec& s) {
        s.gain = [](int) { return std::numeric_limits<double>::infinity(); };
      }),
  };
  for (const auto& players : bad_populations) {
    EXPECT_EQ(MinPenaltiesForAllHonest(players).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(MinCostFrequencies(players, std::vector<double>(6, 1.0))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(MaxDeterredUnderBudget(players, 1.0).status().code(),
              StatusCode::kInvalidArgument);
  }

  // Non-finite audit costs and margin.
  EXPECT_EQ(MinCostFrequencies(Consortium(), {1, 2, kNan, 4, 5, 6})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MaxDeterredUnderBudget(Consortium(), 1.0, kNan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HeterogeneousParallelTest, ErrorsIndependentOfThreadCount) {
  // Player 2's f = 0 makes MinPenalties fail; every knob combination
  // reports the same (smallest-index) error.
  std::vector<Spec> players = Consortium();
  players[2].frequency = 0;
  players[4].frequency = 0;
  Status serial = MinPenaltiesForAllHonest(players).status();
  ASSERT_FALSE(serial.ok());
  for (const DesignSearchOptions& options : kKnobs) {
    Status parallel = MinPenaltiesForAllHonest(players, 1e-6, options).status();
    EXPECT_EQ(parallel.code(), serial.code());
    EXPECT_EQ(parallel.message(), serial.message());
  }
}

TEST(HeterogeneousParallelTest, NegativeThreadsNameTheField) {
  // A negative thread count used to be clamped to one worker.
  const std::vector<Spec> players = Consortium();
  const std::vector<double> costs(players.size(), 1.0);
  for (int threads : {-3, -1}) {
    DesignSearchOptions options;
    options.threads = threads;
    const Status statuses[] = {
        MinPenaltiesForAllHonest(players, 1e-6, options).status(),
        MinCostFrequencies(players, costs, 1e-6, options).status(),
        MaxDeterredUnderBudget(players, 2.0, 1e-6, options).status(),
    };
    for (const Status& status : statuses) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << threads;
      EXPECT_NE(status.message().find("DesignSearchOptions.threads"),
                std::string::npos)
          << status.ToString();
    }
  }
}

}  // namespace
}  // namespace hsis::game
