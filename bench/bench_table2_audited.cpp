// Experiment E2 — Table 2 (Section 4.1): the symmetric audited game.
//
// Regenerates the payoff matrix with the auditing device's expected
// terms and shows the device classification at operating points in each
// of the three regimes of Observations 2/3.

#include "bench_util.h"
#include "game/equilibrium.h"
#include "game/honesty_games.h"
#include "game/thresholds.h"

namespace {

using namespace hsis;
using namespace hsis::game;

constexpr double kB = 10, kF = 25, kL = 8;

void PrintPoint(double f, double penalty, const char* note) {
  NormalFormGame g =
      std::move(MakeSymmetricAuditedGame(kB, kF, kL, f, penalty).value());
  std::printf("--- f = %.3f, P = %.2f  (%s) ---\n%s", f, penalty, note,
              FormatPayoffMatrix(g, "Rowi", "Colie").c_str());
  std::printf("NE = {");
  for (const auto& ne : PureNashEquilibria(g)) {
    std::printf(" %s", ProfileLabel(ne).c_str());
  }
  auto dse = DominantStrategyEquilibrium(g);
  std::printf(" }  DSE = %s  device: %s\n\n",
              dse ? ProfileLabel(*dse).c_str() : "(none)",
              DeviceEffectivenessName(
                  ClassifySymmetricDevice(kB, kF, f, penalty)));
}

void PrintReproduction() {
  bench::PrintRule(
      "E2 / Table 2: symmetric audited game (B=10, F=25, L=8)");
  std::printf(
      "Cell formulas: honest = B; cheat = (1-f)F - fP; an uncaught\n"
      "cheater costs the other player (1-f)L.\n\n");

  const double penalty = 40;
  double f_star = CriticalFrequency(kB, kF, penalty);
  std::printf("Critical frequency f* = (F-B)/(P+F) = %.4f at P = %.0f\n\n",
              f_star, penalty);

  PrintPoint(f_star / 2, penalty, "below f*: device ineffective");
  PrintPoint(f_star, penalty, "at f*: boundary, (H,H) among the NE");
  PrintPoint((1 + f_star) / 2, penalty,
             "above f*: transformative & highly effective");

  std::printf("Shape check: below f* the unique equilibrium is CC, above\n"
              "it HH — matching the paper's Table 2 analysis.\n");
}

void BM_BuildAuditedGame(benchmark::State& state) {
  for (auto _ : state) {
    auto g = MakeSymmetricAuditedGame(kB, kF, kL, 0.3, 40);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_BuildAuditedGame);

void BM_ClassifyDevice(benchmark::State& state) {
  for (auto _ : state) {
    auto c = ClassifySymmetricDevice(kB, kF, 0.3, 40);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ClassifyDevice);

void BM_FullAnalysisOnePoint(benchmark::State& state) {
  for (auto _ : state) {
    NormalFormGame g =
        std::move(MakeSymmetricAuditedGame(kB, kF, kL, 0.3, 40).value());
    auto ne = PureNashEquilibria(g);
    auto dse = DominantStrategyEquilibrium(g);
    benchmark::DoNotOptimize(ne);
    benchmark::DoNotOptimize(dse);
  }
}
BENCHMARK(BM_FullAnalysisOnePoint);

}  // namespace

HSIS_BENCH_MAIN(PrintReproduction)
