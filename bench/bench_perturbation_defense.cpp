// Related-work comparison (Section 1.2, [Zhang & Zhao VLDB'05]):
// defending against malicious probes by perturbing one's *own* input vs
// the paper's approach of making cheating irrational.
//
// Perturbation couples privacy to accuracy (block a fraction q of
// probes <=> lose a fraction q of the result); the audit mechanism
// keeps the result exact and suppresses probing at its origin.

#include "bench_util.h"
#include "core/campaign.h"
#include "game/thresholds.h"
#include "sim/workload.h"
#include "sovereign/perturbation_defense.h"

namespace {

using namespace hsis;
using namespace hsis::sovereign;

crypto::MultisetHashFamily MuFamily() {
  return std::move(
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup())
          .value());
}

void PrintReproduction() {
  bench::PrintRule(
      "Related work: input-perturbation defense vs audit mechanism");

  Rng rng(42);
  sim::TwoFirmWorkload w = sim::MakeTwoFirmWorkload(40, 40, 30, rng);
  Dataset defender = Dataset::FromStrings(w.firm_a);
  Dataset adversary = Dataset::FromStrings(w.firm_b);
  std::vector<std::string> probes =
      sim::MakeProbeList(w.a_private, 15, 1.0, rng);

  std::printf("Defender holds %zu tuples (30 shared); adversary probes 15\n"
              "of the defender's private tuples every exchange.\n\n",
              defender.size());

  std::printf("Perturbation sweep (averaged over 20 runs each):\n\n");
  std::printf("  %-12s %-18s %-18s\n", "withhold q", "result recall",
              "probe hit rate");
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9}) {
    PerturbationPolicy policy;
    policy.withhold_probability = q;
    double recall = 0, hits = 0;
    const int kTrials = 20;
    for (int t = 0; t < kTrials; ++t) {
      auto eval = EvaluatePerturbationDefense(
          defender, adversary, probes, policy,
          crypto::PrimeGroup::SmallTestGroup(), MuFamily(), rng);
      recall += eval->intersection_recall;
      hits += eval->probe_hit_rate;
    }
    std::printf("  %-12.2f %-18.2f %-18.2f\n", q, recall / kTrials,
                hits / kTrials);
  }
  std::printf("\n  -> recall ≈ hit rate ≈ 1 - q: every unit of privacy is\n"
              "     paid for with a unit of result accuracy. And the\n"
              "     defense punishes *honest* counterparties identically —\n"
              "     the defender now cheats in every exchange.\n\n");

  std::printf("The paper's alternative at the same threat level:\n\n");
  const double kB = 10, kF = 25;
  double f = 0.4;
  double p_star = game::CriticalPenalty(kB, kF, f);
  std::printf("  audit f = %.1f, P = %.1f (> P* = %.1f): result recall 1.00\n"
              "  by construction, and the probing strategy has expected\n"
              "  payoff %.2f < honest %.0f — a rational adversary stops\n"
              "  probing, so the realized probe hit rate is 0.\n",
              f, p_star + 5, p_star,
              (1 - f) * kF - f * (p_star + 5), kB);
  std::printf("\n  Exactness + deterrence vs a coupled accuracy/privacy\n"
              "  trade-off: the two designs are not interchangeable, which\n"
              "  is the contrast Section 1.2 draws.\n");
}

void BM_PerturbDataset(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(std::string("t").append(std::to_string(i)));
  }
  Dataset data = Dataset::FromStrings(values);
  PerturbationPolicy policy;
  policy.withhold_probability = 0.3;
  policy.decoy_count = 50;
  for (auto _ : state) {
    Dataset d = PerturbDataset(data, policy, rng);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_PerturbDataset);

void BM_DefendedExchange(benchmark::State& state) {
  Rng rng(2);
  sim::TwoFirmWorkload w = sim::MakeTwoFirmWorkload(20, 20, 10, rng);
  Dataset defender = Dataset::FromStrings(w.firm_a);
  Dataset adversary = Dataset::FromStrings(w.firm_b);
  std::vector<std::string> probes = sim::MakeProbeList(w.a_private, 5, 1.0, rng);
  PerturbationPolicy policy;
  policy.withhold_probability = 0.3;
  crypto::MultisetHashFamily family = MuFamily();
  for (auto _ : state) {
    auto eval = EvaluatePerturbationDefense(
        defender, adversary, probes, policy,
        crypto::PrimeGroup::SmallTestGroup(), family, rng);
    benchmark::DoNotOptimize(eval);
  }
}
BENCHMARK(BM_DefendedExchange);

}  // namespace

HSIS_BENCH_MAIN(PrintReproduction)
