// Determinism suite for the parallel tournament: bit-identical
// standings at threads = 1, 2, and hardware concurrency, plus a golden
// test pinning the tournament to the exact payoffs the pre-parallelism
// serial implementation produced (seeds advance 3 per pairing in
// enumeration order; standings accumulate in enumeration order). A
// Moran process over per-replicate `Rng::ForIndex` streams checks that
// selection follows the paper's transformative region.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>

#include "game/thresholds.h"
#include "sim/evolutionary.h"
#include "sim/tournament.h"

namespace hsis::sim {
namespace {

game::NPlayerHonestyGame MakeGame(double penalty, double frequency) {
  game::NPlayerHonestyGame::Params p;
  p.n = 2;
  p.benefit = 10;
  p.gain = game::LinearGain(25, 0);
  p.frequency = frequency;
  p.penalty = penalty;
  p.uniform_loss = 8;
  return std::move(game::NPlayerHonestyGame::Create(p).value());
}

const TournamentStanding* Find(const std::vector<TournamentStanding>& s,
                               const std::string& name) {
  for (const TournamentStanding& entry : s) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(ParallelTournamentTest, BitIdenticalAcrossThreadCounts) {
  game::NPlayerHonestyGame g = MakeGame(30, 0.4);
  TournamentConfig config;
  config.rounds_per_match = 120;
  config.mode = PayoffMode::kSampled;
  config.seed = 20260806;

  config.threads = 1;
  auto serial = RunRoundRobinTournament(g, StandardLineup(&g), config);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 0}) {
    config.threads = threads;
    auto parallel = RunRoundRobinTournament(g, StandardLineup(&g), config);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(serial->size(), parallel->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i].name, (*parallel)[i].name) << i;
      EXPECT_EQ(Bits((*serial)[i].total_payoff),
                Bits((*parallel)[i].total_payoff))
          << (*serial)[i].name;
      EXPECT_EQ(Bits((*serial)[i].average_payoff_per_round),
                Bits((*parallel)[i].average_payoff_per_round))
          << (*serial)[i].name;
      EXPECT_EQ((*serial)[i].matches, (*parallel)[i].matches) << i;
    }
  }
}

TEST(ParallelTournamentTest, MatchesPreParallelSerialGolden) {
  // Total payoffs (value and IEEE-754 bit pattern) recorded from the
  // serial implementation before the sweep engine existed, with this
  // exact game/config. Any change to seed derivation or accumulation
  // order shows up here.
  game::NPlayerHonestyGame g = MakeGame(30, 0.4);
  TournamentConfig config;
  config.rounds_per_match = 120;
  config.mode = PayoffMode::kSampled;
  config.seed = 20260806;

  struct Golden {
    const char* name;
    double total_payoff;
    uint64_t payoff_bits;
  };
  const Golden kGolden[] = {
      {"always-honest", 10056, 0x40c3a40000000000ULL},
      {"fictitious-play", 10056, 0x40c3a40000000000ULL},
      {"best-response", 10000, 0x40c3880000000000ULL},
      {"tit-for-tat", 9523, 0x40c2998000000000ULL},
      {"pavlov", 9449, 0x40c2748000000000ULL},
      {"grim-trigger", 8035, 0x40bf630000000000ULL},
      {"epsilon-greedy-q", 7706, 0x40be1a0000000000ULL},
      {"always-cheat", 1743, 0x409b3c0000000000ULL},
  };

  for (int threads : {1, 2, 0}) {
    config.threads = threads;
    auto standings = RunRoundRobinTournament(g, StandardLineup(&g), config);
    ASSERT_TRUE(standings.ok());
    ASSERT_EQ(standings->size(), std::size(kGolden));
    for (const Golden& golden : kGolden) {
      const TournamentStanding* entry = Find(*standings, golden.name);
      ASSERT_NE(entry, nullptr) << golden.name;
      EXPECT_EQ(Bits(entry->total_payoff), golden.payoff_bits)
          << golden.name << " expected " << golden.total_payoff << " got "
          << entry->total_payoff << " (threads=" << threads << ")";
    }
  }
}

struct FixationRates {
  double honest = 0;
  double cheat = 0;
};

/// The fixation rates of 48 Moran runs from 40 individuals, half honest,
/// replicate r drawing from `Rng::ForIndex(7, r)`.
FixationRates MoranFixationRates(const game::NPlayerHonestyGame& g) {
  const int kReplicates = 48;
  FixationRates rates;
  for (int r = 0; r < kReplicates; ++r) {
    Rng rng = Rng::ForIndex(7, static_cast<uint64_t>(r));
    Result<MoranResult> run = RunMoranProcess(g, 40, 20, 0.0, 200000, rng);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) continue;
    rates.honest += run->fixated_honest ? 1.0 : 0.0;
    rates.cheat += run->fixated_cheat ? 1.0 : 0.0;
  }
  rates.honest /= kReplicates;
  rates.cheat /= kReplicates;
  return rates;
}

TEST(MoranEnsembleTest, TransformativeRegimeFixatesHonest) {
  // P = 60 at f = 0.4 is deep in the transformative region for
  // B=10, F=25 (P* = (0.6*25-10)/0.4 = 12.5): selection should carry
  // honesty to fixation in nearly every replicate.
  EXPECT_GT(MoranFixationRates(MakeGame(60, 0.4)).honest, 0.8);

  // No audit regime: cheating should dominate.
  EXPECT_GT(MoranFixationRates(MakeGame(0, 0.0)).cheat, 0.8);
}

}  // namespace
}  // namespace hsis::sim
