// Experiment E1 — Table 1 and Observation 1 (Section 3).
//
// Regenerates the no-audit payoff matrix and verifies, by exhaustive
// equilibrium enumeration, that (C,C) is the unique Nash AND
// dominant-strategy equilibrium whenever F > B — for every loss value L,
// including those where cheating destroys value (F - L < B).

#include "bench_util.h"
#include "game/equilibrium.h"
#include "game/honesty_games.h"

namespace {

using namespace hsis;
using namespace hsis::game;

void PrintReproduction() {
  bench::PrintRule(
      "E1 / Table 1: two-player game without auditing (B=10, F=25, L=8)");

  NormalFormGame g = std::move(MakeNoAuditGame(10, 25, 8).value());
  std::printf("%s\n", FormatPayoffMatrix(g, "Rowi", "Colie").c_str());

  std::printf("Equilibria:  NE = {");
  for (const auto& ne : PureNashEquilibria(g)) {
    std::printf(" %s", ProfileLabel(ne).c_str());
  }
  auto dse = DominantStrategyEquilibrium(g);
  std::printf(" }   DSE = %s\n\n",
              dse ? ProfileLabel(*dse).c_str() : "(none)");

  std::printf("Observation 1 sweep: (C,C) must be the unique NE and DSE for\n"
              "every L >= 0 and every F > B.\n\n");
  std::printf("  %-8s %-8s %-8s %-14s %-10s %s\n", "B", "F", "L",
              "NE", "DSE", "F-L<B?");
  int checked = 0, confirmed = 0;
  for (double b : {5.0, 10.0, 20.0}) {
    for (double f : {1.5, 2.5, 5.0}) {   // F as multiple of B
      for (double l : {0.0, 4.0, 10.0, 30.0, 100.0}) {
        double cheat_gain = b * f;
        NormalFormGame game =
            std::move(MakeNoAuditGame(b, cheat_gain, l).value());
        auto ne = PureNashEquilibria(game);
        auto d = DominantStrategyEquilibrium(game);
        bool unique_cc = ne.size() == 1 && ProfileLabel(ne[0]) == "CC" &&
                         d && ProfileLabel(*d) == "CC";
        ++checked;
        confirmed += unique_cc;
        if (l == 0.0 || l == 100.0) {  // print the extremes only
          std::printf("  %-8.0f %-8.1f %-8.0f %-14s %-10s %s\n", b,
                      cheat_gain, l, ProfileLabel(ne[0]).c_str(),
                      d ? ProfileLabel(*d).c_str() : "-",
                      cheat_gain - l < b ? "yes (still cheats)" : "no");
        }
      }
    }
  }
  std::printf("\nObservation 1 confirmed on %d/%d parameter points.\n",
              confirmed, checked);
  std::printf("Paper's shape: dishonesty is the only rational outcome "
              "without enforcement. %s\n",
              bench::Verdict(confirmed == checked) ? "REPRODUCED"
                                                   : "MISMATCH");
}

void BM_BuildTable1Game(benchmark::State& state) {
  for (auto _ : state) {
    auto g = MakeNoAuditGame(10, 25, 8);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_BuildTable1Game);

void BM_EnumerateNash2x2(benchmark::State& state) {
  NormalFormGame g = std::move(MakeNoAuditGame(10, 25, 8).value());
  for (auto _ : state) {
    auto ne = PureNashEquilibria(g);
    benchmark::DoNotOptimize(ne);
  }
}
BENCHMARK(BM_EnumerateNash2x2);

void BM_DominantStrategyCheck(benchmark::State& state) {
  NormalFormGame g = std::move(MakeNoAuditGame(10, 25, 8).value());
  for (auto _ : state) {
    auto dse = DominantStrategyEquilibrium(g);
    benchmark::DoNotOptimize(dse);
  }
}
BENCHMARK(BM_DominantStrategyCheck);

}  // namespace

HSIS_BENCH_MAIN(PrintReproduction)
