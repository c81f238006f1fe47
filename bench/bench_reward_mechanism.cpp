// Extension — the paper's Section 7 future work, answered: incentives
// (rewards) instead of penalties.
//
// Result: rewards and penalties are perfect substitutes for the
// *players'* incentives — only f(R + P) matters, so every Observation
// 2/3 threshold carries over with R + P in P's place — but they are
// wildly different for the *operator*: at the honest equilibrium a
// penalty device is free while a reward device pays n f R forever.

#include "bench_util.h"
#include "game/equilibrium.h"
#include "game/honesty_games.h"
#include "game/reward_mechanism.h"

namespace {

using namespace hsis;
using namespace hsis::game;

constexpr double kB = 10, kF = 25, kL = 8;

void PrintReproduction() {
  bench::PrintRule(
      "Extension / Section 7: reward-based honesty enforcement");

  const double f = 0.3;
  double r_star = CriticalReward(kB, kF, f, 0);
  std::printf("Pure-reward device at f = %.2f: critical reward R* = %.2f\n"
              "(same closed form as Observation 3's P*).\n\n", f, r_star);

  std::printf("Equilibria across the reward sweep (enumeration-verified):\n\n");
  std::printf("  %-8s %-18s %-10s %s\n", "R", "device", "NE", "honest payoff");
  for (double reward : {0.0, r_star * 0.5, r_star * 0.9, r_star, r_star * 1.1,
                        r_star * 1.5}) {
    RewardTerms terms{f, reward, 0};
    NormalFormGame g =
        std::move(MakeRewardAuditedGame(kB, kF, kL, terms).value());
    std::string ne;
    for (const auto& e : PureNashEquilibria(g)) ne += ProfileLabel(e) + " ";
    std::printf("  %-8.2f %-18s %-10s %.2f\n", reward,
                DeviceEffectivenessName(ClassifyRewardDevice(kB, kF, terms)),
                ne.c_str(), kB + f * reward);
  }

  std::printf("\nSubstitution frontier: every (R, P) with R + P = %.2f is\n"
              "transformative — verified by enumeration:\n\n", r_star + 2);
  std::printf("  %-8s %-8s %-18s %s\n", "R", "P", "device", "NE");
  bool all_ok = true;
  for (double share : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    double reward = share * (r_star + 2);
    RewardTerms terms{f, reward, (r_star + 2) - reward};
    NormalFormGame g =
        std::move(MakeRewardAuditedGame(kB, kF, kL, terms).value());
    auto ne = PureNashEquilibria(g);
    bool honest_unique = ne.size() == 1 && ProfileLabel(ne[0]) == "HH";
    all_ok = all_ok && honest_unique;
    std::printf("  %-8.2f %-8.2f %-18s %s\n", terms.reward, terms.penalty,
                DeviceEffectivenessName(ClassifyRewardDevice(kB, kF, terms)),
                honest_unique ? "HH (unique)" : "UNEXPECTED");
  }
  std::printf("  -> %s\n\n",
              bench::Verdict(all_ok) ? "confirmed" : "MISMATCH");

  std::printf("Operator economics, n = 10 players, per round at the honest\n"
              "equilibrium (and off-equilibrium at x honest):\n\n");
  double total = r_star + 2;
  RewardTerms pure_reward{f, total, 0};
  RewardTerms hybrid{f, total / 2, total / 2};
  RewardTerms pure_penalty{f, 0, total};
  std::printf("  %-16s %-18s %-18s %-18s\n", "device", "cost @ x=10",
              "cost @ x=5", "cost @ x=0");
  struct Row { const char* name; RewardTerms terms; };
  for (Row row : {Row{"pure reward", pure_reward}, Row{"hybrid 50/50", hybrid},
                  Row{"pure penalty", pure_penalty}}) {
    std::printf("  %-16s %-18.2f %-18.2f %-18.2f\n", row.name,
                OperatorCostAtHonestCount(10, 10, row.terms),
                OperatorCostAtHonestCount(10, 5, row.terms),
                OperatorCostAtHonestCount(10, 0, row.terms));
  }
  std::printf("\n  -> Identical deterrence; the penalty device is free at\n"
              "     the equilibrium it creates, while rewards must be\n"
              "     funded forever. 'Appropriately designed incentives can\n"
              "     also lead to honesty' — yes, at a standing cost.\n");
}

void BM_BuildRewardGame(benchmark::State& state) {
  RewardTerms terms{0.3, 20, 10};
  for (auto _ : state) {
    auto g = MakeRewardAuditedGame(kB, kF, kL, terms);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_BuildRewardGame);

void BM_ClassifyRewardDevice(benchmark::State& state) {
  RewardTerms terms{0.3, 20, 10};
  for (auto _ : state) {
    auto c = ClassifyRewardDevice(kB, kF, terms);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ClassifyRewardDevice);

}  // namespace

HSIS_BENCH_MAIN(PrintReproduction)
