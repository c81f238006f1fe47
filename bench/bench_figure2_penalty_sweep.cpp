// Experiment E4 — Figure 2 (Section 4.1): equilibria of the symmetric
// audited game as the penalty P sweeps at fixed frequency f.
//
// The figure has two panels: for f > (F-B)/F honesty is the unique
// equilibrium from P = 0 on (frequent checking alone deters); for
// smaller f the landscape crosses from (C,C) to (H,H) at
// P* = ((1-f)F - B)/f (Observation 3).

#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "game/kernel.h"

namespace {

using namespace hsis;
using namespace hsis::game;

constexpr double kB = 10, kF = 25, kL = 8;

void PrintPanel(double f, double max_penalty) {
  double p_star = CriticalPenalty(kB, kF, f);
  std::printf("--- panel f = %.2f  (zero-penalty frequency (F-B)/F = %.2f) ---\n",
              f, ZeroPenaltyFrequency(kB, kF));
  if (p_star < 0) {
    std::printf("f exceeds (F-B)/F: P* = %.2f < 0, honesty needs no penalty.\n",
                p_star);
  } else {
    std::printf("Analytic crossover (Observation 3): P* = ((1-f)F-B)/f = %.2f\n",
                p_star);
  }
  kernel::PenaltyRowsSoA rows;
  bench::CheckOk(kernel::EvalPenaltyRows(kB, kF, kL, f, max_penalty, 11, 0, 11,
                                         rows, bench::Threads()));
  std::printf("  %-8s %-34s %-10s %-8s %s\n", "P", "analytic region",
              "NE (enum)", "HH=DSE", "match");
  int mismatches = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("  %-8.1f %-34s %-10s %-8s %s\n", rows.penalty[i],
                SymmetricRegionName(rows.region[i]),
                kernel::NashMaskJoined(rows.nash_mask[i]).c_str(),
                rows.honest_is_dse[i] ? "yes" : "no",
                rows.matches[i] ? "ok" : "MISMATCH");
    mismatches += !rows.matches[i];
  }
  std::printf("Panel %s.\n\n", mismatches == 0 ? "REPRODUCED" : "MISMATCH");
}

void PrintReproduction() {
  bench::PrintRule(
      "E4 / Figure 2: equilibria vs penalty P (B=10, F=25, L=8)");
  // Lower panel of the figure: 0 <= f < (F-B)/F.
  PrintPanel(0.2, 80);
  // Upper panel: f > (F-B)/F — all-honest for every P >= 0.
  PrintPanel(0.7, 80);

  std::printf("Duality check: the Figure 1 and Figure 2 boundaries are the\n"
              "same curve — P*(f*(P)) == P:\n");
  for (double p : {10.0, 40.0, 160.0}) {
    double f_star = CriticalFrequency(kB, kF, p);
    std::printf("  P = %-6.0f f*(P) = %.4f  P*(f*) = %.2f\n", p, f_star,
                CriticalPenalty(kB, kF, f_star));
  }
}

/// Times the kernel batch penalty evaluator on a fine sweep; its
/// cells/sec becomes one `--json` record.
void PrintKernelThroughput() {
  bench::PrintRule(
      "Figure 2 kernel throughput: batch penalty kernel");
  const int kSteps = 20001;
  const double kFreq = 0.2, kMaxPenalty = 100;
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

  std::printf("rows: %d, threads=%d (best of 3)\n\n", kSteps, threads);
  kernel::PenaltyRowsSoA rows;
  double kernel_s = best_of([&] {
    bench::CheckOk(kernel::EvalPenaltyRows(
        kB, kF, kL, kFreq, kMaxPenalty, kSteps, 0,
        static_cast<size_t>(kSteps), rows, threads));
    benchmark::DoNotOptimize(rows.nash_mask.data());
  });
  double kernel_cps = kSteps / kernel_s;
  std::printf("  batch kernel      %8.2f ms   %12.0f cells/sec\n",
              kernel_s * 1e3, kernel_cps);
  bench::WriteJsonRecord("figure2_penalty_sweep_kernel", threads, kernel_cps,
                         kernel_s * 1e3);
}

void PrintMain() {
  PrintReproduction();
  PrintKernelThroughput();
}

void BM_KernelPenaltyRows101(benchmark::State& state) {
  kernel::PenaltyRowsSoA rows;
  for (auto _ : state) {
    Status s = kernel::EvalPenaltyRows(kB, kF, kL, 0.2, 100, 101, 0, 101, rows);
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(rows.nash_mask.data());
  }
}
BENCHMARK(BM_KernelPenaltyRows101);

void BM_CriticalPenaltyClosedForm(benchmark::State& state) {
  for (auto _ : state) {
    double p = CriticalPenalty(kB, kF, 0.2);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_CriticalPenaltyClosedForm);

}  // namespace

HSIS_BENCH_MAIN(PrintMain)
