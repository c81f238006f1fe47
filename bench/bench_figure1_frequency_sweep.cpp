// Experiment E3 — Figure 1 (Section 4.1): equilibria of the symmetric
// audited game as the checking frequency f sweeps [0, 1] at fixed P.
//
// Three independent reproductions of the same landscape:
//   1. the closed form of Observation 2 (crossover at f* = (F-B)/(P+F));
//   2. brute-force equilibrium enumeration of the actual payoff matrix;
//   3. populations of learning agents playing the repeated game.

#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "game/kernel.h"
#include "landscape_baseline.h"
#include "sim/repeated_game.h"

namespace {

using namespace hsis;
using namespace hsis::game;

constexpr double kB = 10, kF = 25, kL = 8, kP = 40;

double SimulatedHonesty(double f, uint64_t seed) {
  NPlayerHonestyGame::Params params;
  params.n = 2;
  params.benefit = kB;
  params.gain = LinearGain(kF, 0);
  params.frequency = f;
  params.penalty = kP;
  params.uniform_loss = kL;
  NPlayerHonestyGame game =
      std::move(NPlayerHonestyGame::Create(params).value());
  std::vector<std::unique_ptr<sim::Agent>> agents;
  agents.push_back(sim::MakeFictitiousPlay(&game, seed));
  agents.push_back(sim::MakeFictitiousPlay(&game, seed + 1));
  sim::RepeatedGameConfig config;
  config.rounds = 120;
  return sim::RunRepeatedGame(game, agents, config)->honesty_rate_final;
}

void PrintReproduction() {
  bench::PrintRule(
      "E3 / Figure 1: equilibria vs checking frequency f (B=10, F=25, "
      "L=8, P=40)");

  double f_star = CriticalFrequency(kB, kF, kP);
  std::printf("Analytic crossover (Observation 2): f* = (F-B)/(P+F) = %.4f\n\n",
              f_star);

  kernel::FrequencyRowsSoA rows;
  bench::CheckOk(kernel::EvalFrequencyRows(kB, kF, kL, kP, 21, 0, 21, rows,
                                           bench::Threads()));
  std::printf("  %-6s %-34s %-10s %-8s %-10s %s\n", "f", "analytic region",
              "NE (enum)", "HH=DSE", "sim H-rate", "match");
  int mismatches = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    double sim_rate = SimulatedHonesty(rows.frequency[i], 77);
    std::printf("  %-6.2f %-34s %-10s %-8s %-10.2f %s\n", rows.frequency[i],
                SymmetricRegionName(rows.region[i]),
                kernel::NashMaskJoined(rows.nash_mask[i]).c_str(),
                rows.honest_is_dse[i] ? "yes" : "no", sim_rate,
                rows.matches[i] ? "ok" : "MISMATCH");
    mismatches += !rows.matches[i];
  }

  // Locate the crossover on a fine grid.
  kernel::FrequencyRowsSoA fine;
  bench::CheckOk(kernel::EvalFrequencyRows(kB, kF, kL, kP, 1001, 0, 1001, fine,
                                           bench::Threads()));
  double measured = 1.0;
  for (size_t i = 0; i < fine.size(); ++i) {
    if (fine.region[i] == SymmetricRegion::kAllHonestUniqueDse) {
      measured = fine.frequency[i];
      break;
    }
  }
  std::printf("\nCrossover: analytic f* = %.4f, first all-honest grid point "
              "= %.4f (grid step 0.001)\n",
              f_star, measured);
  std::printf("Figure 1 shape %s: (C,C) unique below f*, (H,H) unique above;\n"
              "learning agents' honesty rate flips 0 -> 1 at the same point.\n",
              mismatches == 0 ? "REPRODUCED" : "MISMATCH");
}

/// Times the frozen pre-kernel per-row path (landscape_baseline.h)
/// against the kernel batch evaluator on a fine frequency sweep and
/// reports cells/sec; the kernel number becomes one `--json` record.
void PrintKernelThroughput() {
  bench::PrintRule(
      "Figure 1 kernel throughput: pre-kernel per-row path vs batch kernel");
  const int kSteps = 20001;
  int threads = bench::Threads();
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

  double baseline_s = best_of([&] {
    common::ParallelFor(threads, static_cast<size_t>(kSteps), [&](size_t i) {
      bench::baseline::FrequencySweepRow row =
          bench::baseline::FrequencyCell(kB, kF, kL, kP, kSteps, i);
      benchmark::DoNotOptimize(row);
    });
  });
  double baseline_cps = kSteps / baseline_s;
  std::printf("rows: %d, threads=%d (best of 3)\n\n", kSteps, threads);
  std::printf("  pre-kernel path   %8.2f ms   %12.0f cells/sec\n",
              baseline_s * 1e3, baseline_cps);

  kernel::FrequencyRowsSoA rows;
  double kernel_s = best_of([&] {
    bench::CheckOk(kernel::EvalFrequencyRows(
        kB, kF, kL, kP, kSteps, 0, static_cast<size_t>(kSteps), rows,
        threads));
    benchmark::DoNotOptimize(rows.nash_mask.data());
  });
  double kernel_cps = kSteps / kernel_s;
  std::printf("  batch kernel      %8.2f ms   %12.0f cells/sec   (%.2fx)\n",
              kernel_s * 1e3, kernel_cps, kernel_cps / baseline_cps);
  bench::WriteJsonRecord("figure1_frequency_sweep_kernel", threads, kernel_cps,
                         kernel_s * 1e3);
}

void PrintMain() {
  PrintReproduction();
  PrintKernelThroughput();
}

void BM_BaselineFrequency101(benchmark::State& state) {
  for (auto _ : state) {
    for (size_t i = 0; i < 101; ++i) {
      bench::baseline::FrequencySweepRow row =
          bench::baseline::FrequencyCell(kB, kF, kL, kP, 101, i);
      benchmark::DoNotOptimize(row);
    }
  }
}
BENCHMARK(BM_BaselineFrequency101);

void BM_KernelFrequencyRows101(benchmark::State& state) {
  kernel::FrequencyRowsSoA rows;
  for (auto _ : state) {
    Status s = kernel::EvalFrequencyRows(kB, kF, kL, kP, 101, 0, 101, rows, 1);
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(rows.nash_mask.data());
  }
}
BENCHMARK(BM_KernelFrequencyRows101);

void BM_SimulateOnePoint(benchmark::State& state) {
  for (auto _ : state) {
    double r = SimulatedHonesty(0.5, 7);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SimulateOnePoint);

}  // namespace

HSIS_BENCH_MAIN(PrintMain)
