// The Rowi & Colie story from Section 3 of the paper, end to end.
//
// Two successful competitors want to jointly market to their common
// customers. We (1) build their game and show why, without enforcement,
// both rationally cheat; (2) add the auditing device at the paper's
// thresholds; (3) run the real system — customer workload, tuple
// generators, sovereign intersection, Bernoulli audits — and compare the
// realized economics of honesty vs cheating.
//
// Build & run:  ./build/examples/marketing_alliance

#include <cstdio>

#include "core/honest_sharing_session.h"
#include "core/mechanism_designer.h"
#include "game/equilibrium.h"
#include "game/honesty_games.h"
#include "sim/workload.h"

using namespace hsis;

namespace {

constexpr double kBenefit = 10;    // B: value of joint marketing
constexpr double kCheatGain = 25;  // F: value of stealing private customers
constexpr double kLoss = 8;        // L: damage from the peer's cheating

void PrintEquilibria(const game::NormalFormGame& g, const char* title) {
  std::printf("%s\n%s", title,
              game::FormatPayoffMatrix(g, "Rowi", "Colie").c_str());
  std::printf("Nash equilibria:");
  for (const auto& ne : game::PureNashEquilibria(g)) {
    std::printf(" (%s,%s)", game::ActionName(ne[0]), game::ActionName(ne[1]));
  }
  auto dse = game::DominantStrategyEquilibrium(g);
  if (dse.has_value()) {
    std::printf("   DSE: (%s,%s)", game::ActionName((*dse)[0]),
                game::ActionName((*dse)[1]));
  }
  std::printf("\n\n");
}

}  // namespace

int main() {
  std::printf("=== 1. The dilemma (Table 1: no auditing) ===\n\n");
  game::NormalFormGame no_audit =
      std::move(game::MakeNoAuditGame(kBenefit, kCheatGain, kLoss).value());
  PrintEquilibria(no_audit, "Payoffs (B=10, F=25, L=8):");
  std::printf("Observation 1: (C,C) is the only equilibrium — rational\n"
              "players cheat even though (H,H) would pay both more than\n"
              "(C,C) does (10 vs %.0f).\n\n", kCheatGain - kLoss);

  std::printf("=== 2. Designing the auditing device ===\n\n");
  core::MechanismDesigner designer =
      std::move(core::MechanismDesigner::Create(kBenefit, kCheatGain).value());
  const double f = 0.4;
  const double penalty = designer.MinPenalty(f).value();
  std::printf("At audit frequency f = %.2f the minimum penalty is P = %.2f\n",
              f, penalty);
  std::printf("(Observation 3: P* = ((1-f)F - B)/f = %.2f; zero penalty\n"
              " suffices once f > (F-B)/F = %.2f.)\n\n",
              game::CriticalPenalty(kBenefit, kCheatGain, f),
              designer.ZeroPenaltyFrequency());

  game::NormalFormGame audited = std::move(
      game::MakeSymmetricAuditedGame(kBenefit, kCheatGain, kLoss, f, penalty)
          .value());
  PrintEquilibria(audited, "Payoffs with auditing (Table 2 instance):");

  std::printf("=== 3. Running the real system ===\n\n");
  Rng rng(7);
  sim::TwoFirmWorkload workload =
      sim::MakeTwoFirmWorkload(/*a_private=*/60, /*b_private=*/40,
                               /*common=*/25, rng);

  core::SessionConfig config;
  config.audit_frequency = f;
  config.penalty = penalty;
  config.seed = 11;
  core::HonestSharingSession session =
      std::move(core::HonestSharingSession::Create(config).value());
  session.AddParty("rowi");
  session.AddParty("colie");
  session.IssueTuples("rowi", workload.firm_a);
  session.IssueTuples("colie", workload.firm_b);

  core::ExchangeResult honest = session.RunExchange("rowi", "colie").value();
  std::printf("Honest exchange: both learn the %zu common customers;\n"
              "audits pass (rowi detected=%d, colie detected=%d).\n\n",
              honest.a.intersection_size, honest.a.detected,
              honest.b.detected);

  // Rowi tries the Section 1 attack across many campaigns: probe lists
  // guessing Colie's private customers.
  const int kRounds = 200;
  double cheat_units = 0;  // accumulated in units of the game's payoffs
  int caught = 0;
  size_t stolen = 0;
  for (int i = 0; i < kRounds; ++i) {
    core::CheatPlan plan;
    plan.fabricate = sim::MakeProbeList(workload.b_private, 10, 0.5, rng);
    core::ExchangeResult r =
        session.RunExchange("rowi", "colie", plan, {}).value();
    stolen += r.a.probe_hits;
    caught += r.a.detected;
    cheat_units += r.a.detected ? -penalty : kCheatGain;
  }
  std::printf("Cheating for %d campaigns: probed 10 names each time,\n"
              "stole %zu private customers, but was caught %d times.\n",
              kRounds, stolen, caught);
  std::printf("Average cheating payoff: %.2f per round vs honest %.2f —\n"
              "the device made honesty the better strategy, as designed.\n",
              cheat_units / kRounds, kBenefit);
  std::printf("Total fines charged to Rowi: %.0f\n",
              session.TotalPenalties("rowi"));
  return 0;
}
