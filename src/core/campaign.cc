#include "core/campaign.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/parallel.h"

namespace hsis::core {

CheatPolicy HonestPolicy() {
  return [](int, Rng&) { return CheatPlan{}; };
}

CheatPolicy PersistentProberPolicy(std::vector<std::string> probe_pool,
                                   size_t probes_per_round) {
  return [pool = std::move(probe_pool), probes_per_round,
          cursor = size_t{0}](int, Rng&) mutable {
    CheatPlan plan;
    if (pool.empty()) return plan;
    for (size_t i = 0; i < probes_per_round; ++i) {
      plan.fabricate.push_back(pool[cursor % pool.size()]);
      ++cursor;
    }
    return plan;
  };
}

CheatPolicy OpportunisticProberPolicy(std::vector<std::string> probe_pool,
                                      size_t probes_per_round,
                                      double cheat_probability) {
  CheatPolicy prober =
      PersistentProberPolicy(std::move(probe_pool), probes_per_round);
  return [prober = std::move(prober), cheat_probability](int round,
                                                         Rng& rng) mutable {
    if (!rng.Bernoulli(cheat_probability)) return CheatPlan{};
    return prober(round, rng);
  };
}

Result<CampaignResult> RunCampaign(HonestSharingSession& session,
                                   const std::string& party_a,
                                   const std::string& party_b, int rounds,
                                   const CheatPolicy& policy_a,
                                   const CheatPolicy& policy_b,
                                   const CampaignEconomics& economics,
                                   Rng& rng) {
  if (rounds < 1) return Status::InvalidArgument("rounds must be >= 1");
  if (!policy_a || !policy_b) {
    return Status::InvalidArgument("both cheat policies are required");
  }

  CampaignResult result;
  auto account = [&economics](PartyCampaignStats& stats,
                              const ExchangeStats& round) {
    ++stats.exchanges;
    stats.times_audited += round.audited;
    stats.times_detected += round.detected;
    stats.penalties_paid += round.penalty_paid;
    stats.tuples_stolen += round.probe_hits;
    stats.tuples_leaked += round.leaked_tuples;
    stats.realized_payoff +=
        economics.honest_benefit +
        economics.gain_per_probe_hit * static_cast<double>(round.probe_hits) -
        economics.loss_per_leaked_tuple *
            static_cast<double>(round.leaked_tuples) -
        round.penalty_paid;
  };

  for (int round = 0; round < rounds; ++round) {
    CheatPlan plan_a = policy_a(round, rng);
    CheatPlan plan_b = policy_b(round, rng);
    HSIS_ASSIGN_OR_RETURN(
        ExchangeResult exchange,
        session.RunExchange(party_a, party_b, plan_a, plan_b));
    account(result.a, exchange.a);
    account(result.b, exchange.b);
  }
  return result;
}

namespace {

Status ValidateEnsembleArgs(const CampaignSessionFactory& make_session,
                            const std::vector<CampaignPolicyPair>& policies,
                            const CampaignEnsembleConfig& config) {
  if (!make_session) {
    return Status::InvalidArgument("a session factory is required");
  }
  if (policies.empty()) {
    return Status::InvalidArgument("at least one policy pair is required");
  }
  for (const CampaignPolicyPair& pair : policies) {
    if (!pair.make_a || !pair.make_b) {
      return Status::InvalidArgument("every policy pair needs both factories");
    }
  }
  if (config.rounds < 1) {
    return Status::InvalidArgument(
        "CampaignEnsembleConfig.rounds must be >= 1");
  }
  if (config.replicates < 1) {
    return Status::InvalidArgument(
        "CampaignEnsembleConfig.replicates must be >= 1");
  }
  if (config.threads < 0) {
    return Status::InvalidArgument(
        "CampaignEnsembleConfig.threads must be >= 0 "
        "(0 selects hardware concurrency)");
  }
  // A non-finite rate would poison every payoff of every cell.
  const std::pair<const char*, double> rates[] = {
      {"honest_benefit", config.economics.honest_benefit},
      {"gain_per_probe_hit", config.economics.gain_per_probe_hit},
      {"loss_per_leaked_tuple", config.economics.loss_per_leaked_tuple},
  };
  for (const auto& [name, value] : rates) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(
          std::string("CampaignEnsembleConfig.economics.") + name +
          " must be finite");
    }
  }
  return Status::OK();
}

}  // namespace

Result<CampaignCellResult> RunCampaignEnsembleCell(
    const CampaignSessionFactory& make_session, const std::string& party_a,
    const std::string& party_b,
    const std::vector<CampaignPolicyPair>& policies,
    const CampaignEnsembleConfig& config, size_t cell_index) {
  HSIS_RETURN_IF_ERROR(ValidateEnsembleArgs(make_session, policies, config));
  const size_t replicates = static_cast<size_t>(config.replicates);
  if (cell_index >= policies.size() * replicates) {
    return Status::InvalidArgument("cell index out of range");
  }
  CampaignCellResult cell;
  cell.policy_index = cell_index / replicates;
  cell.replicate = static_cast<int>(cell_index % replicates);
  // Everything stochastic about the cell flows from this stream,
  // a pure function of (base_seed, cell_index).
  Rng rng = Rng::ForIndex(config.base_seed, cell_index);
  cell.session_seed = rng.NextUint64();
  HSIS_ASSIGN_OR_RETURN(HonestSharingSession session,
                        make_session(cell.session_seed));
  const CampaignPolicyPair& pair = policies[cell.policy_index];
  CheatPolicy policy_a = pair.make_a();
  CheatPolicy policy_b = pair.make_b();
  HSIS_ASSIGN_OR_RETURN(
      cell.result,
      RunCampaign(session, party_a, party_b, config.rounds, policy_a, policy_b,
                  config.economics, rng));
  return cell;
}

Result<CampaignEnsembleResult> RunCampaignEnsemble(
    const CampaignSessionFactory& make_session, const std::string& party_a,
    const std::string& party_b,
    const std::vector<CampaignPolicyPair>& policies,
    const CampaignEnsembleConfig& config) {
  HSIS_RETURN_IF_ERROR(ValidateEnsembleArgs(make_session, policies, config));

  const size_t replicates = static_cast<size_t>(config.replicates);
  const size_t cells = policies.size() * replicates;
  CampaignEnsembleResult out;
  out.cells.resize(cells);
  HSIS_RETURN_IF_ERROR(common::ParallelForWithStatus(
      config.threads, cells, [&](size_t i) -> Status {
        HSIS_ASSIGN_OR_RETURN(
            out.cells[i], RunCampaignEnsembleCell(make_session, party_a,
                                                  party_b, policies, config,
                                                  i));
        return Status::OK();
      }));

  // Cross-cell reduction stays serial in cell order so the FP addition
  // order never depends on scheduling.
  out.mean_payoff_a.assign(policies.size(), 0.0);
  out.mean_payoff_b.assign(policies.size(), 0.0);
  for (const CampaignCellResult& cell : out.cells) {
    out.mean_payoff_a[cell.policy_index] += cell.result.a.average_payoff();
    out.mean_payoff_b[cell.policy_index] += cell.result.b.average_payoff();
  }
  for (size_t p = 0; p < policies.size(); ++p) {
    out.mean_payoff_a[p] /= static_cast<double>(replicates);
    out.mean_payoff_b[p] /= static_cast<double>(replicates);
  }
  return out;
}

}  // namespace hsis::core
