// The kernel layer's contract (game/kernel.h): bit-identical to the
// generic NormalFormGame/PureNashEquilibria and NPlayerHonestyGame
// paths cell-for-cell, one degenerate-sweep semantics for single-sample
// sweeps, a typed OutOfRange above the fixed n-player capacity, a
// device-point evaluator whose every rejection names its slot, and —
// the whole point — zero heap allocations per row, enforced here with a
// global operator-new counter.

#include "game/kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>

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
  const kernel::FrequencyRowKernel row =
      kernel::FrequencyRowAt(kB, kF, kL, kP, 1, 0);
  EXPECT_EQ(row.frequency, 0.0);
  EXPECT_EQ(row.region, ClassifySymmetricRegion(kB, kF, 0.0, kP));
  EXPECT_EQ(kernel::NashMaskJoined(row.nash_mask),
            JoinedLabels(MakeSymmetricAuditedGame(kB, kF, kL, 0.0, kP).value()));

  // The single row is exactly the steps >= 2 range start.
  EXPECT_EQ(row, kernel::FrequencyRowAt(kB, kF, kL, kP, 21, 0));
}

TEST(KernelDegenerateTest, SingleStepPenaltyAndGridAndBandsAgree) {
  const kernel::PenaltyRowKernel penalty =
      kernel::PenaltyRowAt(kB, kF, kL, 0.2, 120, 1, 0);
  EXPECT_EQ(penalty.penalty, 0.0);
  EXPECT_EQ(kernel::NashMaskJoined(penalty.nash_mask),
            JoinedLabels(MakeSymmetricAuditedGame(kB, kF, kL, 0.2, 0.0).value()));

  const kernel::AsymmetricCellKernel cell =
      kernel::AsymmetricCellAt(AsymmetricParams(), 1, 0);
  EXPECT_EQ(cell.f1, 0.0);
  EXPECT_EQ(cell.f2, 0.0);
  EXPECT_EQ(kernel::NashMaskJoined(cell.nash_mask),
            JoinedLabels(MakeTwoPlayerHonestyGame(AsymmetricParams()).value()));

  const kernel::NPlayerBandRowKernel band = kernel::NPlayerBandRowAt(
      kernel::MakeNPlayerKernelParams(BandParams(8)).value(), 150, 1, 0);
  EXPECT_EQ(band.penalty, 0.0);
  ExpectBandRowMatchesGame(band, BandParams(8));
}

// -------------------------------------------------------------------------
// n-player capacity: n > kMaxKernelPlayers is a typed OutOfRange from
// the kernel parameters; NPlayerHonestyGame still solves such games one
// at a time.
// -------------------------------------------------------------------------

TEST(KernelNPlayerTest, OversizedGameIsTypedOutOfRange) {
  NPlayerHonestyGame::Params params = BandParams(kernel::kMaxKernelPlayers + 1);
  ASSERT_EQ(params.n, 64);
  EXPECT_EQ(kernel::MakeNPlayerKernelParams(params).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(NPlayerHonestyGame::Create(params).ok());

  // One player fewer is within capacity on both paths.
  params.n = kernel::kMaxKernelPlayers;
  EXPECT_TRUE(kernel::MakeNPlayerKernelParams(params).ok());
  EXPECT_TRUE(NPlayerHonestyGame::Create(params).ok());
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

// -------------------------------------------------------------------------
// Device points: every rejected request names its slot.
// -------------------------------------------------------------------------

TEST(KernelDevicePointsTest, EveryRejectionNamesItsSlot) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    std::function<void(kernel::DevicePointsSoA&)> mutate;
    size_t begin, count;
    double margin;
    const char* names;  // expected in the InvalidArgument message
  };
  const Case cases[] = {
      {"NaN benefit", [&](auto& in) { in.benefit[2] = kNaN; }, 0, 4, 0,
       "DevicePointsSoA.benefit[2] must be finite"},
      {"inf cheat gain", [&](auto& in) { in.cheat_gain[2] = kInf; }, 0, 4, 0,
       "DevicePointsSoA.cheat_gain[2] must be finite"},
      {"NaN frequency", [&](auto& in) { in.frequency[2] = kNaN; }, 0, 4, 0,
       "DevicePointsSoA.frequency[2] must be finite"},
      {"-inf penalty", [&](auto& in) { in.penalty[2] = -kInf; }, 0, 4, 0,
       "DevicePointsSoA.penalty[2] must be finite"},
      {"B < 0", [](auto& in) { in.benefit[1] = -1; }, 0, 4, 0,
       "DevicePointsSoA.benefit[1]"},
      {"F == B", [](auto& in) { in.cheat_gain[1] = in.benefit[1]; }, 0, 4, 0,
       "DevicePointsSoA.cheat_gain[1]"},
      {"F < B", [](auto& in) { in.cheat_gain[3] = 1; }, 0, 4, 0,
       "DevicePointsSoA.cheat_gain[3]"},
      {"f > 1", [](auto& in) { in.frequency[3] = 1.5; }, 0, 4, 0,
       "DevicePointsSoA.frequency[3]"},
      {"f < 0", [](auto& in) { in.frequency[0] = -0.1; }, 0, 4, 0,
       "DevicePointsSoA.frequency[0]"},
      {"P < 0", [](auto& in) { in.penalty[0] = -1; }, 0, 4, 0,
       "DevicePointsSoA.penalty[0]"},
      {"short column", [](auto& in) { in.frequency.resize(3); }, 0, 3, 0,
       "DevicePointsSoA.frequency holds 3 points but benefit holds 4"},
      {"range past the end", [](auto&) {}, 2, 3, 0,
       "3 points from 2 exceed the 4 points of DevicePointsSoA"},
      {"begin past the end", [](auto&) {}, 5, 0, 0,
       "0 points from 5 exceed the 4 points of DevicePointsSoA"},
      {"NaN margin", [](auto&) {}, 0, 4, kNaN,
       "EvalDevicePoints margin must be finite"},
  };
  for (const Case& c : cases) {
    kernel::DevicePointsSoA in;
    in.Resize(4);
    for (size_t k = 0; k < 4; ++k) {
      in.benefit[k] = 10;
      in.cheat_gain[k] = 25;
      in.frequency[k] = 0.25 * static_cast<double>(k);
      in.penalty[k] = 40;
    }
    c.mutate(in);
    kernel::DeviceAnswersSoA out;
    Status status = kernel::EvalDevicePoints(in, c.margin, c.begin, c.count,
                                             out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_NE(status.message().find(c.names), std::string::npos)
        << c.what << ": " << status;
  }

  // Only the requested range is checked: a bad slot outside it is fine.
  kernel::DevicePointsSoA in;
  in.Resize(2);
  in.benefit = {-1, 10};
  in.cheat_gain = {25, 25};
  in.frequency = {0.5, 0.5};
  in.penalty = {40, 40};
  kernel::DeviceAnswersSoA out;
  EXPECT_TRUE(kernel::EvalDevicePoints(in, 0, 1, 1, out).ok());
  EXPECT_EQ(out.size(), 1u);
}

}  // namespace
}  // namespace hsis::game
