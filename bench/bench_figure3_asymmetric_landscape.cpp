// Experiment E6 — Figure 3 (Section 4.2): the (f1, f2) equilibrium
// landscape of the asymmetric audited game at fixed penalties.
//
// Renders the 2-D region map the paper draws — (C,C) near the origin,
// (C,H)/(H,C) off-diagonal strips, (H,H) in the upper right — with the
// analytic boundaries f_i* = (F_i - B_i)/(F_i + P_i), and verifies every
// grid cell against brute-force equilibrium enumeration.

#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "common/parallel.h"
#include "game/kernel.h"
#include "landscape_baseline.h"

namespace {

using namespace hsis;
using namespace hsis::game;

TwoPlayerGameParams BaseParams() {
  TwoPlayerGameParams params;
  params.player1 = {10, 30};
  params.player2 = {6, 20};
  params.loss_to_1 = 4;
  params.loss_to_2 = 9;
  params.audit1 = {0, 20};  // P1 = 20
  params.audit2 = {0, 15};  // P2 = 15
  return params;
}

char RegionChar(AsymmetricRegion r) {
  switch (r) {
    case AsymmetricRegion::kBothCheat: return '.';
    case AsymmetricRegion::kOnlyP1Cheats: return 'c';  // (C,H)
    case AsymmetricRegion::kOnlyP2Cheats: return 'k';  // (H,C)
    case AsymmetricRegion::kBothHonest: return 'H';
    case AsymmetricRegion::kBoundary: return '+';
  }
  return '?';
}

/// Classifies the whole `steps` x `steps` grid into `cells`.
void SweepGrid(const TwoPlayerGameParams& params, int steps, int threads,
               std::vector<kernel::AsymmetricCellKernel>& cells) {
  bench::KernelRows(static_cast<size_t>(steps) * steps, threads, cells,
                    [&](size_t i) {
                      return kernel::AsymmetricCellAt(params, steps, i);
                    });
}

void PrintReproduction() {
  bench::PrintRule(
      "E6 / Figure 3: (f1, f2) equilibrium landscape, P1 = 20, P2 = 15");

  TwoPlayerGameParams params = BaseParams();
  double crit1 = CriticalFrequency(10, 30, 20);
  double crit2 = CriticalFrequency(6, 20, 15);
  std::printf("Analytic boundaries: f1* = (F1-B1)/(F1+P1) = %.4f,  "
              "f2* = (F2-B2)/(F2+P2) = %.4f\n\n", crit1, crit2);

  const int kSteps = 26;
  std::vector<kernel::AsymmetricCellKernel> cells;
  SweepGrid(params, kSteps, bench::Flags().threads, cells);

  std::printf("Legend: '.' (C,C)   'c' (C,H)   'k' (H,C)   'H' (H,H)   "
              "'+' boundary\n\n");
  // cells are in row-major (i = f1 index, j = f2 index); print f2 as the
  // vertical axis, top = 1.0 (as in the paper's figure).
  for (int j = kSteps - 1; j >= 0; --j) {
    std::printf("  f2=%.2f ", static_cast<double>(j) / (kSteps - 1));
    for (int i = 0; i < kSteps; ++i) {
      const size_t k = static_cast<size_t>(i) * kSteps + static_cast<size_t>(j);
      std::printf("%c", RegionChar(cells[k].region));
    }
    std::printf("\n");
  }
  std::printf("          f1: 0.00 ... 1.00\n\n");

  int mismatches = 0, counts[5] = {0, 0, 0, 0, 0};
  for (size_t k = 0; k < cells.size(); ++k) {
    mismatches += !cells[k].matches;
    counts[static_cast<int>(cells[k].region)]++;
  }
  std::printf("Grid cells: %zu   (C,C)=%d  (C,H)=%d  (H,C)=%d  (H,H)=%d  "
              "boundary=%d\n",
              cells.size(), counts[0], counts[1], counts[2], counts[3],
              counts[4]);
  std::printf("Brute-force enumeration agrees with the analytic region on "
              "every cell: %s\n",
              bench::Verdict(mismatches == 0) ? "yes — Figure 3 REPRODUCED"
                                              : "NO — MISMATCH");
  std::printf("\nNote the paper's warning realized: in the 'c' strip the\n"
              "heavily-audited Colie plays honestly while Rowi cheats —\n"
              "careless (f1, f2) choices force unintuitive behavior.\n");
}

void BM_KernelAsymmetricGrid26(benchmark::State& state) {
  TwoPlayerGameParams params = BaseParams();
  std::vector<kernel::AsymmetricCellKernel> cells;
  for (auto _ : state) {
    SweepGrid(params, 26, 1, cells);
    benchmark::DoNotOptimize(cells.data());
  }
}
BENCHMARK(BM_KernelAsymmetricGrid26);

void BM_KernelAsymmetricGrid200(benchmark::State& state) {
  TwoPlayerGameParams params = BaseParams();
  int threads = static_cast<int>(state.range(0));
  std::vector<kernel::AsymmetricCellKernel> cells;
  for (auto _ : state) {
    SweepGrid(params, 200, threads, cells);
    benchmark::DoNotOptimize(cells.data());
  }
}
BENCHMARK(BM_KernelAsymmetricGrid200)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// `--speedup` mode: times the 200x200 Figure 3 grid serially and with
/// the requested `--threads=N` (default: hardware concurrency) and
/// verifies the outputs are bit-identical — the determinism contract of
/// the sweep engine, demonstrated on the acceptance workload.
void PrintSpeedup() {
  bench::PrintRule("Figure 3 sweep engine: serial vs parallel, 200x200 grid");
  TwoPlayerGameParams params = BaseParams();
  const int kGrid = 200;
  int threads = bench::Flags().threads == 1 ? 0 : bench::Flags().threads;
  int resolved = common::ResolveThreadCount(threads);

  using Clock = std::chrono::steady_clock;
  auto time_sweep = [&](int t,
                        std::vector<kernel::AsymmetricCellKernel>* out) {
    Clock::time_point start = Clock::now();
    SweepGrid(params, kGrid, t, *out);
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::vector<kernel::AsymmetricCellKernel> serial_cells, parallel_cells,
      two_cells;
  double serial_s = time_sweep(1, &serial_cells);
  double two_s = time_sweep(2, &two_cells);
  double parallel_s = time_sweep(resolved, &parallel_cells);

  std::printf("grid cells: %d x %d = %d (each: 2x2 payoff build + "
              "exact NE bitmask)\n\n", kGrid, kGrid, kGrid * kGrid);
  std::printf("  threads=1   %8.3f s\n", serial_s);
  std::printf("  threads=2   %8.3f s   speedup %.2fx\n", two_s,
              serial_s / two_s);
  std::printf("  threads=%-3d %8.3f s   speedup %.2fx\n", resolved,
              parallel_s, serial_s / parallel_s);
  std::printf("\nbit-identical across thread counts: %s\n",
              bench::Verdict(serial_cells == parallel_cells &&
                             serial_cells == two_cells)
                  ? "yes"
                  : "NO — DETERMINISM VIOLATION");
}

/// Times the frozen pre-kernel per-cell path (landscape_baseline.h)
/// against the row kernel in 256-row tiles on the 200x200 acceptance
/// grid and reports cells/sec; the kernel number becomes one `--json`
/// record.
void PrintKernelThroughput() {
  bench::PrintRule(
      "Figure 3 kernel throughput: pre-kernel per-cell path vs batch "
      "kernel");
  TwoPlayerGameParams params = BaseParams();
  const int kGrid = 200;
  const size_t kCells = static_cast<size_t>(kGrid) * kGrid;
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

  double baseline_s = best_of([&] {
    common::ParallelFor(threads, kCells, [&](size_t idx) {
      bench::baseline::AsymmetricGridCell cell =
          bench::baseline::AsymmetricCell(params, kGrid, idx);
      benchmark::DoNotOptimize(cell);
    });
  });
  double baseline_cps = static_cast<double>(kCells) / baseline_s;
  std::printf("cells: %zu, threads=%d (best of 3)\n\n", kCells, threads);
  std::printf("  pre-kernel path   %8.2f ms   %12.0f cells/sec\n",
              baseline_s * 1e3, baseline_cps);

  std::vector<kernel::AsymmetricCellKernel> cells;
  double kernel_s = best_of([&] {
    SweepGrid(params, kGrid, threads, cells);
    benchmark::DoNotOptimize(cells.data());
  });
  double kernel_cps = static_cast<double>(kCells) / kernel_s;
  std::printf("  batch kernel      %8.2f ms   %12.0f cells/sec   (%.2fx)\n",
              kernel_s * 1e3, kernel_cps, kernel_cps / baseline_cps);
  bench::WriteJsonRecord("figure3_asymmetric_grid_kernel", threads, kernel_cps,
                         kernel_s * 1e3);
}

void PrintMain() {
  if (bench::Flags().speedup) {
    PrintSpeedup();
  } else {
    PrintReproduction();
    PrintKernelThroughput();
  }
}

}  // namespace

HSIS_BENCH_MAIN(PrintMain)
