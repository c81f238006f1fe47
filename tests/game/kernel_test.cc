// The kernel layer's contract (game/kernel.h): bit-identical to the
// generic NormalFormGame/PureNashEquilibria and NPlayerHonestyGame
// paths cell-for-cell, one degenerate-sweep semantics for whole batches
// and one-row ranges, a typed OutOfRange above the fixed
// n-player capacity, thread-count-independent batches, a consistent
// named-sweep registry, and — the whole point — zero heap allocations
// per cell, enforced here with a global operator-new counter.

#include "game/kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "game/equilibrium.h"
#include "game/honesty_games.h"
#include "game/thresholds.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Every operator-new in the binary funnels
// through here; tests snapshot the counter around kernel calls to prove
// the per-cell paths never touch the heap.
// ---------------------------------------------------------------------------

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

// GCC pairs inlined `new T` call sites against these malloc-backed
// replacements and warns about the free() inside; the pairing is
// correct by construction (new is replaced for the whole binary).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace hsis::game {
namespace {

constexpr double kB = 10, kF = 25, kL = 8, kP = 40;

TwoPlayerGameParams AsymmetricParams() {
  TwoPlayerGameParams params;
  params.player1 = {10, 30};
  params.player2 = {6, 20};
  params.loss_to_1 = 4;
  params.loss_to_2 = 9;
  params.audit1 = {0, 20};
  params.audit2 = {0, 15};
  return params;
}

NPlayerHonestyGame::Params BandParams(int n) {
  NPlayerHonestyGame::Params params;
  params.n = n;
  params.benefit = 10;
  params.gain = LinearGain(20, 1.5);
  params.frequency = 0.3;
  params.uniform_loss = 4;
  return params;
}

/// The generic enumeration's equilibrium labels, ';'-joined in
/// enumeration order — the text `NashMaskJoined` must reproduce.
std::string JoinedLabels(const NormalFormGame& game) {
  std::string out;
  for (const StrategyProfile& p : PureNashEquilibria(game)) {
    if (!out.empty()) out += ';';
    out += ProfileLabel(p);
  }
  return out;
}

/// `NPlayerHonestyGame::EquilibriumHonestCounts` as a count bitmask.
kernel::HonestCountMask CountMask(const NPlayerHonestyGame& game) {
  kernel::HonestCountMask mask = 0;
  for (int x : game.EquilibriumHonestCounts()) {
    mask |= kernel::HonestCountMask{1} << x;
  }
  return mask;
}

/// Expects the band row `row` to be the NPlayerHonestyGame solution of
/// `params` at the row's penalty.
void ExpectBandRowMatchesGame(const kernel::NPlayerBandRowKernel& row,
                              NPlayerHonestyGame::Params params) {
  params.penalty = row.penalty;
  NPlayerHonestyGame game = NPlayerHonestyGame::Create(params).value();
  EXPECT_EQ(row.count_mask, CountMask(game)) << "P = " << row.penalty;
  EXPECT_EQ(row.honest_is_dominant, game.IsHonestDominant());
  EXPECT_EQ(row.cheat_is_dominant, game.IsCheatDominant());
  EXPECT_EQ(row.analytic_honest_count,
            NPlayerEquilibriumHonestCount(params.n, params.benefit,
                                          params.gain, params.frequency,
                                          params.penalty));
}

// -------------------------------------------------------------------------
// Bit-identity of the 2x2 kernel against the generic solver stack.
// -------------------------------------------------------------------------

TEST(KernelGameTest, PayoffsBitIdenticalToNormalFormGame) {
  for (double f1 : {0.0, 0.13, 0.5, 0.97, 1.0}) {
    for (double f2 : {0.0, 0.31, 0.85, 1.0}) {
      TwoPlayerGameParams params = AsymmetricParams();
      params.audit1.frequency = f1;
      params.audit2.frequency = f2;
      NormalFormGame generic = MakeTwoPlayerHonestyGame(params).value();
      kernel::Game2x2 fast = kernel::MakeAudited2x2(params);
      for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 2; ++c) {
          for (int player = 0; player < 2; ++player) {
            EXPECT_EQ(generic.Payoff({r, c}, player),
                      fast.Payoff(r, c, player))
                << "profile (" << r << "," << c << ") player " << player
                << " at f1=" << f1 << " f2=" << f2;
          }
        }
      }
    }
  }
}

TEST(KernelGameTest, NashMaskMatchesGenericEnumeration) {
  for (double f : {0.0, 0.2, 0.4, 0.42857142857142855, 0.6, 0.8, 1.0}) {
    NormalFormGame generic =
        MakeSymmetricAuditedGame(kB, kF, kL, f, kP).value();
    TwoPlayerGameParams params =
        TwoPlayerGameParams::Symmetric(kB, kF, kL, f, kP);
    kernel::ProfileMask2x2 mask =
        kernel::PureNashMask(kernel::MakeAudited2x2(params));
    EXPECT_EQ(kernel::NashMaskJoined(mask), JoinedLabels(generic))
        << "f = " << f;

    std::optional<StrategyProfile> dse = DominantStrategyEquilibrium(generic);
    bool generic_dse =
        dse.has_value() && (*dse)[0] == kHonest && (*dse)[1] == kHonest;
    EXPECT_EQ(kernel::HonestIsDse2x2(kernel::MakeAudited2x2(params)),
              generic_dse)
        << "f = " << f;
  }
}

TEST(KernelGameTest, NashMaskJoinedIsInternedAndProfileOrdered) {
  EXPECT_EQ(kernel::NashMaskJoined(0), "");
  EXPECT_EQ(kernel::NashMaskJoined(kernel::kMaskHH), "HH");
  EXPECT_EQ(kernel::NashMaskJoined(kernel::kMaskHH | kernel::kMaskCC),
            "HH;CC");
  EXPECT_EQ(kernel::NashMaskJoined(kernel::kMaskHC | kernel::kMaskCH),
            "HC;CH");
  EXPECT_EQ(kernel::NashMaskJoined(0xF), "HH;HC;CH;CC");
  // Interned: repeated lookups return the same object.
  EXPECT_EQ(&kernel::NashMaskJoined(kernel::kMaskCC),
            &kernel::NashMaskJoined(kernel::kMaskCC));
}

// -------------------------------------------------------------------------
// Degenerate sweeps: steps == 1 is a valid single-sample sweep at the
// range start, it equals the first row of a wider sweep, and it is the
// generic solvers' answer there.
// -------------------------------------------------------------------------

TEST(KernelDegenerateTest, SingleStepFrequencySweepAgrees) {
  std::vector<kernel::FrequencyRowKernel> batch;
  ASSERT_TRUE(kernel::EvalFrequencyRows(kB, kF, kL, kP, 1, 0, 1, batch).ok());
  ASSERT_EQ(batch.size(), 1u);
  const kernel::FrequencyRowKernel& row = batch[0];
  EXPECT_EQ(row.frequency, 0.0);
  EXPECT_EQ(row.region, ClassifySymmetricRegion(kB, kF, 0.0, kP));
  EXPECT_EQ(kernel::NashMaskJoined(row.nash_mask),
            JoinedLabels(MakeSymmetricAuditedGame(kB, kF, kL, 0.0, kP).value()));

  // The single row is exactly the steps >= 2 range start.
  std::vector<kernel::FrequencyRowKernel> wide;
  ASSERT_TRUE(kernel::EvalFrequencyRows(kB, kF, kL, kP, 21, 0, 1, wide).ok());
  ASSERT_EQ(wide.size(), 1u);
  EXPECT_EQ(row, wide[0]);
}

TEST(KernelDegenerateTest, SingleStepPenaltyAndGridAndBandsAgree) {
  std::vector<kernel::PenaltyRowKernel> penalty;
  ASSERT_TRUE(
      kernel::EvalPenaltyRows(kB, kF, kL, 0.2, 120, 1, 0, 1, penalty).ok());
  ASSERT_EQ(penalty.size(), 1u);
  EXPECT_EQ(penalty[0].penalty, 0.0);
  EXPECT_EQ(kernel::NashMaskJoined(penalty[0].nash_mask),
            JoinedLabels(MakeSymmetricAuditedGame(kB, kF, kL, 0.2, 0.0).value()));

  std::vector<kernel::AsymmetricCellKernel> grid;
  ASSERT_TRUE(
      kernel::EvalAsymmetricCells(AsymmetricParams(), 1, 0, 1, grid).ok());
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0].f1, 0.0);
  EXPECT_EQ(grid[0].f2, 0.0);
  EXPECT_EQ(kernel::NashMaskJoined(grid[0].nash_mask),
            JoinedLabels(MakeTwoPlayerHonestyGame(AsymmetricParams()).value()));

  std::vector<kernel::NPlayerBandRowKernel> bands;
  ASSERT_TRUE(
      kernel::EvalNPlayerBandRows(BandParams(8), 150, 1, 0, 1, bands).ok());
  ASSERT_EQ(bands.size(), 1u);
  EXPECT_EQ(bands[0].penalty, 0.0);
  ExpectBandRowMatchesGame(bands[0], BandParams(8));
}

TEST(KernelDegenerateTest, ZeroWidthAndOutOfRangeBatches) {
  std::vector<kernel::FrequencyRowKernel> rows;
  // Zero-width range: valid, resizes to empty.
  EXPECT_TRUE(
      kernel::EvalFrequencyRows(kB, kF, kL, kP, 21, 5, 0, rows).ok());
  EXPECT_EQ(rows.size(), 0u);
  // Range past the index space: rejected.
  EXPECT_FALSE(
      kernel::EvalFrequencyRows(kB, kF, kL, kP, 21, 0, 22, rows).ok());
  EXPECT_FALSE(
      kernel::EvalFrequencyRows(kB, kF, kL, kP, 21, 21, 1, rows).ok());
  // steps < 1 stays invalid everywhere.
  EXPECT_FALSE(kernel::EvalFrequencyRows(kB, kF, kL, kP, 0, 0, 0, rows).ok());
  // A negative max_penalty fails every range, even the one-row range
  // whose only sample is the zero penalty.
  std::vector<kernel::PenaltyRowKernel> penalty_rows;
  EXPECT_EQ(
      kernel::EvalPenaltyRows(kB, kF, kL, 0.2, -1, 5, 0, 1, penalty_rows)
          .code(),
      StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------------------
// n-player capacity: n > kMaxKernelPlayers is a typed OutOfRange from
// the kernel parameters and the band evaluator; NPlayerHonestyGame
// still solves such games one at a time.
// -------------------------------------------------------------------------

TEST(KernelNPlayerTest, OversizedGameIsTypedOutOfRange) {
  NPlayerHonestyGame::Params params = BandParams(kernel::kMaxKernelPlayers + 1);
  ASSERT_EQ(params.n, 64);
  EXPECT_EQ(kernel::MakeNPlayerKernelParams(params).status().code(),
            StatusCode::kOutOfRange);
  std::vector<kernel::NPlayerBandRowKernel> rows;
  EXPECT_EQ(kernel::EvalNPlayerBandRows(params, 2000, 9, 0, 9, rows).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(NPlayerHonestyGame::Create(params).ok());

  // One player fewer is within capacity on both paths.
  params.n = kernel::kMaxKernelPlayers;
  EXPECT_TRUE(kernel::MakeNPlayerKernelParams(params).ok());
  EXPECT_TRUE(kernel::EvalNPlayerBandRows(params, 2000, 9, 0, 9, rows).ok());
}

TEST(KernelNPlayerTest, KernelAndLegacySingleRowAgreeAtCapacity) {
  // "Legacy" is the generic NPlayerHonestyGame enumeration.
  NPlayerHonestyGame::Params params = BandParams(kernel::kMaxKernelPlayers);
  kernel::NPlayerKernelParams kp =
      kernel::MakeNPlayerKernelParams(params).value();
  for (size_t i = 0; i < 17; ++i) {
    kernel::NPlayerBandRowKernel row =
        kernel::NPlayerBandRowAt(kp, 4000, 17, i);
    EXPECT_EQ(row.penalty, 4000 * static_cast<double>(i) / 16);
    ExpectBandRowMatchesGame(row, params);
  }
}

// -------------------------------------------------------------------------
// Batch evaluators vs thread counts.
// -------------------------------------------------------------------------

TEST(KernelBatchTest, BatchesBitIdenticalAcrossThreadCounts) {
  // The frequency evaluator at more worker counts than the per-sweep
  // determinism suite (parallel_determinism_test.cc) covers.
  const int kSteps = 201;
  std::vector<kernel::FrequencyRowKernel> serial;
  ASSERT_TRUE(kernel::EvalFrequencyRows(kB, kF, kL, kP, kSteps, 0, kSteps,
                                        serial, 1)
                  .ok());
  for (int threads : {2, 3, 7}) {
    std::vector<kernel::FrequencyRowKernel> parallel;
    ASSERT_TRUE(kernel::EvalFrequencyRows(kB, kF, kL, kP, kSteps, 0, kSteps,
                                          parallel, threads)
                    .ok());
    EXPECT_EQ(serial, parallel) << "threads " << threads;
  }
}

TEST(KernelBatchTest, SubrangeMatchesFullSweepSlice) {
  const int kSteps = 101;
  std::vector<kernel::AsymmetricCellKernel> full, slice;
  TwoPlayerGameParams params = AsymmetricParams();
  size_t total = static_cast<size_t>(kSteps) * kSteps;
  ASSERT_TRUE(
      kernel::EvalAsymmetricCells(params, kSteps, 0, total, full).ok());
  ASSERT_TRUE(
      kernel::EvalAsymmetricCells(params, kSteps, 500, 250, slice).ok());
  for (size_t k = 0; k < slice.size(); ++k) {
    EXPECT_EQ(slice[k].f1, full[500 + k].f1);
    EXPECT_EQ(slice[k].f2, full[500 + k].f2);
    EXPECT_EQ(slice[k].nash_mask, full[500 + k].nash_mask);
  }
}

// -------------------------------------------------------------------------
// Allocation guard: zero heap allocations per cell.
// -------------------------------------------------------------------------

TEST(KernelAllocationTest, PerRowKernelsNeverAllocate) {
  // Warm every lazy static (interned label table, gain tables).
  TwoPlayerGameParams sym = TwoPlayerGameParams::Symmetric(kB, kF, kL, 0.3, kP);
  TwoPlayerGameParams asym = AsymmetricParams();
  kernel::NPlayerKernelParams np =
      kernel::MakeNPlayerKernelParams(BandParams(8)).value();
  for (int m = 0; m < 16; ++m) {
    kernel::NashMaskJoined(static_cast<kernel::ProfileMask2x2>(m));
  }

  size_t before = g_allocations.load();
  kernel::FrequencyRowKernel f = kernel::FrequencyRowAt(kB, kF, kL, kP, 64, 7);
  kernel::PenaltyRowKernel p =
      kernel::PenaltyRowAt(kB, kF, kL, 0.2, 120, 64, 9);
  kernel::AsymmetricCellKernel a = kernel::AsymmetricCellAt(asym, 64, 123);
  kernel::NPlayerBandRowKernel b = kernel::NPlayerBandRowAt(np, 150, 64, 31);
  kernel::Game2x2 g = kernel::MakeAudited2x2(sym);
  kernel::ProfileMask2x2 mask = kernel::PureNashMask(g);
  bool dse = kernel::HonestIsDse2x2(g);
  const std::string& joined = kernel::NashMaskJoined(mask);
  size_t after = g_allocations.load();

  EXPECT_EQ(after - before, 0u)
      << "per-row kernel paths must not touch the heap";
  // Keep every result live so the compiler cannot elide the calls.
  EXPECT_GE(f.frequency + p.penalty + a.f1 + b.penalty, 0.0);
  EXPECT_TRUE(dse || !dse);
  EXPECT_GE(joined.size(), 0u);
}

TEST(KernelAllocationTest, BatchAllocationCountIndependentOfRowCount) {
  // A fresh row vector costs a fixed number of allocations; the
  // per-cell loop must add none. Equal counts at 64 and 4096 rows prove
  // the loop is allocation-free.
  auto allocs_for = [&](int steps) {
    std::vector<kernel::FrequencyRowKernel> rows;
    size_t before = g_allocations.load();
    Status s = kernel::EvalFrequencyRows(kB, kF, kL, kP, steps, 0,
                                         static_cast<size_t>(steps), rows, 1);
    size_t after = g_allocations.load();
    EXPECT_TRUE(s.ok());
    return after - before;
  };
  size_t small = allocs_for(64);
  size_t large = allocs_for(4096);
  EXPECT_EQ(small, large);

  // Reusing an already-sized buffer costs only the fixed per-batch
  // std::function type-erasure of common/parallel.h — identical for
  // every row count, i.e. still zero allocations per cell.
  auto rerun_allocs = [&](int steps) {
    std::vector<kernel::FrequencyRowKernel> rows;
    EXPECT_TRUE(kernel::EvalFrequencyRows(kB, kF, kL, kP, steps, 0,
                                          static_cast<size_t>(steps), rows, 1)
                    .ok());
    size_t before = g_allocations.load();
    EXPECT_TRUE(kernel::EvalFrequencyRows(kB, kF, kL, kP, steps, 0,
                                          static_cast<size_t>(steps), rows, 1)
                    .ok());
    return g_allocations.load() - before;
  };
  size_t rerun_small = rerun_allocs(256);
  size_t rerun_large = rerun_allocs(8192);
  EXPECT_EQ(rerun_small, rerun_large)
      << "per-batch overhead must not scale with row count";
  EXPECT_LE(rerun_small, 4u) << "sized-buffer re-run should cost at most the "
                                "fixed ParallelFor closure erasure";
}

}  // namespace
}  // namespace hsis::game
