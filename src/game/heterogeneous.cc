#include "game/heterogeneous.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/parallel.h"
#include "game/equilibrium.h"

namespace hsis::game {

Result<HeterogeneousHonestyGame> HeterogeneousHonestyGame::Create(
    std::vector<PlayerSpec> players) {
  if (players.size() < 2) {
    return Status::InvalidArgument("need at least 2 players");
  }
  for (const PlayerSpec& p : players) {
    if (!p.gain) return Status::InvalidArgument("every player needs a gain F_i");
    if (p.frequency < 0 || p.frequency > 1) {
      return Status::InvalidArgument("frequency must be in [0, 1]");
    }
    if (p.penalty < 0 || p.benefit < 0) {
      return Status::InvalidArgument("B_i and P_i must be non-negative");
    }
    for (size_t x = 0; x + 1 < players.size(); ++x) {
      if (p.gain(static_cast<int>(x) + 1) <
          p.gain(static_cast<int>(x)) - kGainMonotoneTolerance) {
        return Status::InvalidArgument("gain functions must be monotone");
      }
    }
  }
  return HeterogeneousHonestyGame(std::move(players));
}

double HeterogeneousHonestyGame::CheatAdvantage(int player,
                                                int honest_others) const {
  const PlayerSpec& p = players_[static_cast<size_t>(player)];
  return (1 - p.frequency) * p.gain(honest_others) -
         p.frequency * p.penalty - p.benefit;
}

bool HeterogeneousHonestyGame::IsEquilibrium(
    const std::vector<bool>& honest) const {
  HSIS_CHECK(honest.size() == players_.size());
  int honest_total = 0;
  for (bool h : honest) honest_total += h;
  for (int i = 0; i < n(); ++i) {
    bool is_honest = honest[static_cast<size_t>(i)];
    int others = honest_total - (is_honest ? 1 : 0);
    double adv = CheatAdvantage(i, others);
    if (is_honest && adv > kPayoffEpsilon) return false;
    if (!is_honest && adv < -kPayoffEpsilon) return false;
  }
  return true;
}

Result<std::vector<std::vector<bool>>> HeterogeneousHonestyGame::AllEquilibria()
    const {
  if (n() > 20) {
    return Status::OutOfRange("subset enumeration limited to n <= 20");
  }
  std::vector<std::vector<bool>> out;
  std::vector<bool> profile(players_.size());
  for (uint32_t mask = 0; mask < (1u << n()); ++mask) {
    for (int i = 0; i < n(); ++i) {
      profile[static_cast<size_t>(i)] = (mask >> i) & 1;
    }
    if (IsEquilibrium(profile)) out.push_back(profile);
  }
  return out;
}

bool HeterogeneousHonestyGame::IsHonestDominantForAll() const {
  for (int i = 0; i < n(); ++i) {
    if (CheatAdvantage(i, n() - 1) > kPayoffEpsilon) return false;
  }
  return true;
}

namespace {

/// Players per dispatch batch of the per-player loops: on large
/// populations (tens of thousands of cheap cells) batching cuts the
/// per-index dispatch overhead.
constexpr size_t kPlayerBatch = 64;

/// Rejects a negative thread count and NaN/inf economics before they can
/// propagate into a search: a non-finite bound would silently turn the
/// whole landscape into NaN.
Status ValidateSearchInputs(
    const std::vector<HeterogeneousHonestyGame::PlayerSpec>& players,
    double margin, const DesignSearchOptions& options) {
  if (options.threads < 0) {
    return Status::InvalidArgument(
        "DesignSearchOptions.threads must be >= 0 "
        "(0 selects hardware concurrency)");
  }
  if (!std::isfinite(margin)) {
    return Status::InvalidArgument("margin must be finite");
  }
  for (const auto& p : players) {
    if (!p.gain) {
      return Status::InvalidArgument("every player needs a gain F_i");
    }
    if (!std::isfinite(p.frequency) || !std::isfinite(p.penalty) ||
        !std::isfinite(p.benefit)) {
      return Status::InvalidArgument(
          "player frequency/penalty/benefit bounds must be finite");
    }
  }
  return Status::OK();
}

/// The frequency that makes honesty dominant for one player at its
/// given penalty: f_i >= (F_i(n-1) - B_i) / (F_i(n-1) + P_i).
Result<double> RequiredFrequency(
    const HeterogeneousHonestyGame::PlayerSpec& p, int worst_case,
    double margin) {
  double gain = p.gain(worst_case);
  if (!std::isfinite(gain)) {
    return Status::InvalidArgument("gain F_i(n-1) must be finite");
  }
  if (gain <= p.benefit) return 0.0;  // no temptation at all
  double denom = gain + p.penalty;
  if (denom <= 0) return Status::Internal("non-positive threshold denominator");
  return std::min(1.0, (gain - p.benefit) / denom + margin);
}

/// Per-player required frequencies into ordered slots, fanned out over
/// `options.threads` in `kPlayerBatch` batches.
Result<std::vector<double>> RequiredFrequencies(
    const std::vector<HeterogeneousHonestyGame::PlayerSpec>& players,
    double margin, const DesignSearchOptions& options) {
  int worst_case = static_cast<int>(players.size()) - 1;
  std::vector<double> out(players.size());
  HSIS_RETURN_IF_ERROR(common::ParallelForWithStatus(
      options.threads, players.size(), kPlayerBatch,
      [&](size_t i) -> Status {
        HSIS_ASSIGN_OR_RETURN(
            out[i], RequiredFrequency(players[i], worst_case, margin));
        return Status::OK();
      }));
  return out;
}

}  // namespace

Result<std::vector<double>> MinPenaltiesForAllHonest(
    const std::vector<HeterogeneousHonestyGame::PlayerSpec>& players,
    double margin, const DesignSearchOptions& options) {
  HSIS_RETURN_IF_ERROR(ValidateSearchInputs(players, margin, options));
  int worst_case = static_cast<int>(players.size()) - 1;
  std::vector<double> out(players.size());
  HSIS_RETURN_IF_ERROR(common::ParallelForWithStatus(
      options.threads, players.size(), kPlayerBatch,
      [&](size_t i) -> Status {
        const auto& p = players[i];
        if (p.frequency <= 0) {
          return Status::InvalidArgument(
              "penalties cannot deter a never-audited player (f_i = 0)");
        }
        double gain = p.gain(worst_case);
        if (!std::isfinite(gain)) {
          return Status::InvalidArgument("gain F_i(n-1) must be finite");
        }
        double needed = ((1 - p.frequency) * gain - p.benefit) / p.frequency;
        out[i] = std::max(0.0, needed) + margin;
        return Status::OK();
      }));
  return out;
}

Result<AuditAllocation> MinCostFrequencies(
    const std::vector<HeterogeneousHonestyGame::PlayerSpec>& players,
    const std::vector<double>& audit_costs, double margin,
    const DesignSearchOptions& options) {
  HSIS_RETURN_IF_ERROR(ValidateSearchInputs(players, margin, options));
  if (audit_costs.size() != players.size()) {
    return Status::InvalidArgument("one audit cost per player required");
  }
  for (double cost : audit_costs) {
    if (!std::isfinite(cost)) {
      return Status::InvalidArgument("audit costs must be finite");
    }
    if (cost < 0) {
      return Status::InvalidArgument("audit costs must be non-negative");
    }
  }
  AuditAllocation out;
  HSIS_ASSIGN_OR_RETURN(out.frequencies,
                        RequiredFrequencies(players, margin, options));
  // The cost reduction runs serially in player order — the historical
  // FP accumulation order, independent of thread count.
  for (size_t i = 0; i < players.size(); ++i) {
    out.total_cost += out.frequencies[i] * audit_costs[i];
  }
  return out;
}

Result<BudgetedAllocation> MaxDeterredUnderBudget(
    const std::vector<HeterogeneousHonestyGame::PlayerSpec>& players,
    double total_frequency_budget, double margin,
    const DesignSearchOptions& options) {
  HSIS_RETURN_IF_ERROR(ValidateSearchInputs(players, margin, options));
  if (!std::isfinite(total_frequency_budget)) {
    return Status::InvalidArgument("budget must be finite");
  }
  if (total_frequency_budget < 0) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  HSIS_ASSIGN_OR_RETURN(std::vector<double> frequencies,
                        RequiredFrequencies(players, margin, options));
  std::vector<std::pair<double, size_t>> required;  // (f_i, player index)
  required.reserve(players.size());
  for (size_t i = 0; i < players.size(); ++i) {
    required.push_back({frequencies[i], i});
  }
  // Ties broken by player index — the sort is fully deterministic.
  std::sort(required.begin(), required.end());

  BudgetedAllocation out;
  out.frequencies.assign(players.size(), 0.0);
  out.deterred.assign(players.size(), false);
  double remaining = total_frequency_budget;
  for (const auto& [f, idx] : required) {
    if (f <= remaining) {
      remaining -= f;
      out.frequencies[idx] = f;
      out.deterred[idx] = true;
      ++out.deterred_count;
    }
  }
  out.budget_used = total_frequency_budget - remaining;
  return out;
}

}  // namespace hsis::game
