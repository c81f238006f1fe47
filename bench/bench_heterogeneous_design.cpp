// Extension — heterogeneous consortium design: Section 4.2's asymmetric
// analysis joined with Section 5's n players.
//
// A consortium's members differ in how much cheating tempts them; the
// device operator gets per-member audit frequencies and penalties.
// Reproduces per-member thresholds, equilibrium structure, a cost-
// optimal audit plan, and the budgeted variant (who to audit when you
// cannot afford everyone).

#include <chrono>
#include <cstring>

#include "bench_util.h"
#include "common/parallel.h"
#include "game/heterogeneous.h"

namespace {

using namespace hsis;
using namespace hsis::game;
using Spec = HeterogeneousHonestyGame::PlayerSpec;

std::vector<Spec> Consortium() {
  // Six members: from barely-tempted regional partners to a ruthless
  // direct competitor.
  auto member = [](double b, double gain_base, double gain_slope,
                   double penalty) {
    Spec s;
    s.benefit = b;
    s.gain = LinearGain(gain_base, gain_slope);
    s.penalty = penalty;
    s.frequency = 0;  // to be designed
    return s;
  };
  return {
      member(20, 22, 0.5, 50),  // loyal: barely tempted
      member(15, 25, 1.0, 50),
      member(12, 28, 1.5, 40),
      member(10, 32, 2.0, 40),
      member(8, 40, 2.5, 30),
      member(6, 55, 3.0, 30),  // ruthless competitor
  };
}

void PrintReproduction() {
  bench::PrintRule("Extension: heterogeneous consortium audit design");

  std::vector<Spec> members = Consortium();
  const int n = static_cast<int>(members.size());
  DesignSearchOptions options;
  options.threads = bench::Flags().threads;

  std::printf("Six members, per-member economics (F_i at worst case x = %d):\n\n",
              n - 1);
  std::printf("  %-8s %-8s %-10s %-10s %s\n", "member", "B_i", "F_i(n-1)",
              "P_i cap", "req. audit f_i");
  auto plan = std::move(
      MinCostFrequencies(members, std::vector<double>(6, 1.0), 1e-6, options)
          .value());
  for (int i = 0; i < n; ++i) {
    std::printf("  %-8d %-8.0f %-10.1f %-10.0f %.4f\n", i,
                members[static_cast<size_t>(i)].benefit,
                members[static_cast<size_t>(i)].gain(n - 1),
                members[static_cast<size_t>(i)].penalty,
                plan.frequencies[static_cast<size_t>(i)]);
  }
  std::printf("\nTotal audit load of the cost-optimal plan: %.3f "
              "(sum of f_i)\n\n", plan.total_cost);

  // Verify the plan makes all-honest dominant & the unique equilibrium.
  std::vector<Spec> deployed = members;
  for (int i = 0; i < n; ++i) {
    deployed[static_cast<size_t>(i)].frequency =
        plan.frequencies[static_cast<size_t>(i)];
  }
  HeterogeneousHonestyGame game =
      std::move(HeterogeneousHonestyGame::Create(deployed).value());
  auto equilibria = std::move(game.AllEquilibria().value());
  std::printf("Deployed plan: honest dominant for all = %s; equilibria = %zu",
              game.IsHonestDominantForAll() ? "yes" : "NO", equilibria.size());
  if (equilibria.size() == 1) {
    int honest = 0;
    for (bool h : equilibria[0]) honest += h;
    std::printf(" (all %d honest)", honest);
  }
  std::printf("\n\n");

  std::printf("Budgeted design (cannot audit everyone enough):\n\n");
  std::printf("  %-10s %-12s %s\n", "budget", "deterred", "who cheats");
  for (double budget : {0.2, 0.5, 0.9, 1.3, 2.0}) {
    auto alloc = std::move(
        MaxDeterredUnderBudget(members, budget, 1e-6, options).value());
    std::string cheaters;
    std::vector<Spec> funded = members;
    for (int i = 0; i < n; ++i) {
      funded[static_cast<size_t>(i)].frequency =
          alloc.frequencies[static_cast<size_t>(i)];
      if (!alloc.deterred[static_cast<size_t>(i)]) {
        cheaters += std::to_string(i) + " ";
      }
    }
    HeterogeneousHonestyGame budget_game =
        std::move(HeterogeneousHonestyGame::Create(funded).value());
    auto eq = std::move(budget_game.AllEquilibria().value());
    std::printf("  %-10.2f %-12d %-14s (equilibria: %zu)\n", budget,
                alloc.deterred_count,
                cheaters.empty() ? "nobody" : cheaters.c_str(), eq.size());
  }
  std::printf("\n  -> the greedy funds the cheapest-to-deter members first;\n"
              "     the most tempted member (5) is the last to come clean.\n");
}

/// A consortium of `n` synthetic members with varied economics — the
/// fine-grid workload for the parallel budget search.
std::vector<Spec> SyntheticPopulation(size_t n) {
  std::vector<Spec> players;
  players.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Spec s;
    s.benefit = 5.0 + static_cast<double>(i % 17);
    s.gain = LinearGain(20.0 + static_cast<double>(i % 41),
                        0.001 * static_cast<double>(i % 7));
    s.penalty = 10.0 + static_cast<double>(i % 29);
    s.frequency = 0.25;
    players.push_back(std::move(s));
  }
  return players;
}

bool AllocationsIdentical(const BudgetedAllocation& a,
                          const BudgetedAllocation& b) {
  auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  if (a.deterred_count != b.deterred_count ||
      bits(a.budget_used) != bits(b.budget_used) ||
      a.frequencies.size() != b.frequencies.size()) {
    return false;
  }
  for (size_t i = 0; i < a.frequencies.size(); ++i) {
    if (bits(a.frequencies[i]) != bits(b.frequencies[i]) ||
        a.deterred[i] != b.deterred[i]) {
      return false;
    }
  }
  return true;
}

/// `--speedup` mode: times the budget search on a 200k-member synthetic
/// consortium serially and with `--threads=N` (default: hardware), and
/// verifies bit-identity across thread counts.
void PrintSpeedup() {
  bench::PrintRule(
      "Heterogeneous budget search: serial vs parallel, 200k members");
  int threads = bench::Flags().threads == 1 ? 0 : bench::Flags().threads;
  int resolved = common::ResolveThreadCount(threads);
  std::vector<Spec> players = SyntheticPopulation(200000);
  const double budget = 20000;

  using Clock = std::chrono::steady_clock;
  auto time_search = [&](int t, BudgetedAllocation* out) {
    DesignSearchOptions options;
    options.threads = t;
    Clock::time_point start = Clock::now();
    *out = MaxDeterredUnderBudget(players, budget, 1e-6, options).value();
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  BudgetedAllocation serial, two, parallel;
  double serial_s = time_search(1, &serial);
  double two_s = time_search(2, &two);
  double parallel_s = time_search(resolved, &parallel);

  std::printf("population: %zu members, budget %.0f (deterred: %d)\n\n",
              players.size(), budget, serial.deterred_count);
  std::printf("  threads=1   %8.3f s\n", serial_s);
  std::printf("  threads=2   %8.3f s   speedup %.2fx\n", two_s,
              serial_s / two_s);
  std::printf("  threads=%-3d %8.3f s   speedup %.2fx\n", resolved, parallel_s,
              serial_s / parallel_s);
  std::printf("\nbit-identical across thread counts: %s\n",
              bench::Verdict(AllocationsIdentical(serial, two) &&
                             AllocationsIdentical(serial, parallel))
                  ? "yes"
                  : "NO — DETERMINISM VIOLATION");
}

void PrintMain() {
  if (bench::Flags().speedup) {
    PrintSpeedup();
  } else {
    PrintReproduction();
  }
}

void BM_AllEquilibriaHeterogeneous(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Spec> members;
  for (int i = 0; i < n; ++i) {
    Spec s;
    s.benefit = 10;
    s.gain = LinearGain(20 + i, 1);
    s.frequency = 0.3;
    s.penalty = 30;
    members.push_back(s);
  }
  HeterogeneousHonestyGame game =
      std::move(HeterogeneousHonestyGame::Create(members).value());
  for (auto _ : state) {
    auto eq = game.AllEquilibria();
    benchmark::DoNotOptimize(eq);
  }
  state.SetLabel("2^n subset enumeration");
}
BENCHMARK(BM_AllEquilibriaHeterogeneous)->Arg(8)->Arg(12)->Arg(16);

void BM_BudgetedAllocation(benchmark::State& state) {
  std::vector<Spec> members = Consortium();
  for (auto _ : state) {
    auto alloc = MaxDeterredUnderBudget(members, 1.0);
    benchmark::DoNotOptimize(alloc);
  }
}
BENCHMARK(BM_BudgetedAllocation);

}  // namespace

HSIS_BENCH_MAIN(PrintMain)
