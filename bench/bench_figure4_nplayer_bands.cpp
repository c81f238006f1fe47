// Experiment E7 — Figure 4 + Theorem 1 + Propositions 1/2 (Section 5):
// the n-player game's equilibrium bands as the penalty sweeps.
//
// For penalty P in the band ((1-f)F(x-1)-B)/f < P < ((1-f)F(x)-B)/f,
// the profiles with exactly x honest players are the Nash equilibria;
// below the x = 0 edge (C,...,C) is the unique DSE (Proposition 2) and
// above the x = n-1 edge (H,...,H) is (Proposition 1).
//
// Also an ablation: the implicit O(n) equilibrium check vs dense 2^n
// enumeration, which is what makes n = 1000 tractable.

#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "game/equilibrium.h"
#include "game/kernel.h"

namespace {

using namespace hsis;
using namespace hsis::game;

NPlayerHonestyGame::Params BaseParams(int n) {
  NPlayerHonestyGame::Params p;
  p.n = n;
  p.benefit = 10;
  p.gain = LinearGain(20, 2);
  p.frequency = 0.3;
  p.uniform_loss = 4;
  return p;
}

void PrintReproduction() {
  bench::PrintRule(
      "E7 / Figure 4: n-player equilibrium bands vs penalty "
      "(n=8, B=10, F(x)=20+2x, f=0.3, L=4)");

  NPlayerHonestyGame::Params params = BaseParams(8);
  std::printf("Theorem 1 band edges ((1-f)F(x)-B)/f:\n  ");
  for (int x = 0; x < params.n; ++x) {
    std::printf("x=%d:%.2f  ", x,
                NPlayerPenaltyBound(params.benefit, params.gain,
                                    params.frequency, x));
  }
  std::printf("\n  (x=0 edge = Proposition 2 bound; x=%d edge = "
              "Proposition 1 bound)\n\n", params.n - 1);

  double top = NPlayerPenaltyBound(params.benefit, params.gain,
                                   params.frequency, params.n - 1);
  Result<kernel::NPlayerKernelParams> kernel_params =
      kernel::MakeNPlayerKernelParams(params);
  bench::CheckOk(kernel_params.status());
  std::vector<kernel::NPlayerBandRowKernel> rows;
  bench::KernelRows(24, bench::Flags().threads, rows, [&](size_t i) {
    return kernel::NPlayerBandRowAt(*kernel_params, top * 1.15, 24, i);
  });
  std::printf("  %-9s %-10s %-16s %-8s %-8s %s\n", "P", "analytic x",
              "equilibria (x)", "H-dom", "C-dom", "match");
  int mismatches = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<int> equilibria;
    kernel::AppendHonestCounts(rows[i].count_mask, equilibria);
    std::string counts;
    for (int x : equilibria) counts += std::to_string(x) + " ";
    std::printf("  %-9.2f %-10d %-16s %-8s %-8s %s\n", rows[i].penalty,
                rows[i].analytic_honest_count, counts.c_str(),
                rows[i].honest_is_dominant ? "yes" : "no",
                rows[i].cheat_is_dominant ? "yes" : "no",
                rows[i].matches ? "ok" : "MISMATCH");
    mismatches += !rows[i].matches;
  }
  std::printf("\nBand structure %s (honest count climbs 0 -> n through "
              "every band as P grows).\n\n",
              bench::Verdict(mismatches == 0) ? "REPRODUCED" : "MISMATCH");

  // Cross-validation against dense 2^n enumeration at small n.
  NPlayerHonestyGame::Params small = BaseParams(4);
  small.penalty = (NPlayerPenaltyBound(10, small.gain, 0.3, 1) +
                   NPlayerPenaltyBound(10, small.gain, 0.3, 2)) / 2;
  NPlayerHonestyGame game =
      std::move(NPlayerHonestyGame::Create(small).value());
  NormalFormGame dense = std::move(game.ToNormalForm().value());
  auto dense_ne = PureNashEquilibria(dense);
  std::printf("Cross-check (n=4, P inside the x=2 band): dense enumeration\n"
              "finds %zu equilibria, all with 2 honest players:", dense_ne.size());
  bool all_two = true;
  for (const auto& ne : dense_ne) {
    int honest = 0;
    for (int s : ne) honest += (s == kHonest);
    all_two = all_two && honest == 2;
    std::printf(" %s", ProfileLabel(ne).c_str());
  }
  std::printf("\n  => %s (C(4,2) = 6 profiles expected)\n\n",
              bench::Verdict(all_two && dense_ne.size() == 6) ? "confirmed"
                                                              : "MISMATCH");

  // Scaling: the implicit check at n = 1000.
  NPlayerHonestyGame::Params big = BaseParams(1000);
  big.penalty =
      NPlayerPenaltyBound(10, big.gain, 0.3, big.n - 1) + 1;
  NPlayerHonestyGame big_game =
      std::move(NPlayerHonestyGame::Create(big).value());
  std::printf("n = 1000 sanity: honest dominant = %s, equilibrium honest "
              "counts = {",
              big_game.IsHonestDominant() ? "yes" : "no");
  for (int x : big_game.EquilibriumHonestCounts()) std::printf("%d", x);
  std::printf("}\n");
}

/// Times the n-player band row kernel in 256-row tiles on a fine
/// penalty sweep; its cells/sec becomes one `--json` record.
void PrintKernelThroughput() {
  bench::PrintRule(
      "Figure 4 kernel throughput: batch n-player band kernel");
  NPlayerHonestyGame::Params params = BaseParams(8);
  const int kSteps = 20001;
  const double top = NPlayerPenaltyBound(params.benefit, params.gain,
                                         params.frequency, params.n - 1);
  int threads = bench::Flags().threads;
  using Clock = std::chrono::steady_clock;
  auto best_of = [&](auto&& fn) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Clock::time_point start = Clock::now();
      fn();
      best = std::min(
          best, std::chrono::duration<double>(Clock::now() - start).count());
    }
    return best;
  };

  std::printf("rows: %d (n=%d), threads=%d (best of 3)\n\n", kSteps, params.n,
              threads);
  Result<kernel::NPlayerKernelParams> kernel_params =
      kernel::MakeNPlayerKernelParams(params);
  bench::CheckOk(kernel_params.status());
  std::vector<kernel::NPlayerBandRowKernel> rows;
  double kernel_s = best_of([&] {
    bench::KernelRows(kSteps, threads, rows, [&](size_t i) {
      return kernel::NPlayerBandRowAt(*kernel_params, top * 1.15, kSteps, i);
    });
    benchmark::DoNotOptimize(rows.data());
  });
  double kernel_cps = kSteps / kernel_s;
  std::printf("  batch kernel      %8.2f ms   %12.0f cells/sec\n",
              kernel_s * 1e3, kernel_cps);
  bench::WriteJsonRecord("figure4_nplayer_bands_kernel", threads, kernel_cps,
                         kernel_s * 1e3);
}

void PrintMain() {
  PrintReproduction();
  PrintKernelThroughput();
}

void BM_EquilibriumBandsImplicit(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  NPlayerHonestyGame::Params params = BaseParams(n);
  params.penalty = NPlayerPenaltyBound(10, params.gain, 0.3, n / 2);
  NPlayerHonestyGame game =
      std::move(NPlayerHonestyGame::Create(params).value());
  for (auto _ : state) {
    auto counts = game.EquilibriumHonestCounts();
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_EquilibriumBandsImplicit)->Arg(10)->Arg(100)->Arg(1000);

void BM_DenseEnumeration(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  NPlayerHonestyGame::Params params = BaseParams(n);
  params.penalty = NPlayerPenaltyBound(10, params.gain, 0.3, n / 2);
  NPlayerHonestyGame game =
      std::move(NPlayerHonestyGame::Create(params).value());
  NormalFormGame dense = std::move(game.ToNormalForm().value());
  for (auto _ : state) {
    auto ne = PureNashEquilibria(dense);
    benchmark::DoNotOptimize(ne);
  }
}
BENCHMARK(BM_DenseEnumeration)->Arg(4)->Arg(8)->Arg(12);

void BM_NashCheckLargeN(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  NPlayerHonestyGame::Params params = BaseParams(n);
  NPlayerHonestyGame game =
      std::move(NPlayerHonestyGame::Create(params).value());
  std::vector<bool> honest(static_cast<size_t>(n), true);
  for (auto _ : state) {
    bool ne = game.IsNashEquilibrium(honest);
    benchmark::DoNotOptimize(ne);
  }
}
BENCHMARK(BM_NashCheckLargeN)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

HSIS_BENCH_MAIN(PrintMain)
