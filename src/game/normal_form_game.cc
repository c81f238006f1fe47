#include "game/normal_form_game.h"

#include "common/logging.h"

namespace hsis::game {

Result<NormalFormGame> NormalFormGame::Create(
    std::vector<int> strategy_counts) {
  if (strategy_counts.empty()) {
    return Status::InvalidArgument("game needs at least one player");
  }
  size_t profiles = 1;
  for (int c : strategy_counts) {
    if (c < 1) {
      return Status::InvalidArgument("each player needs at least one strategy");
    }
    profiles *= static_cast<size_t>(c);
    if (profiles > (1u << 26)) {
      return Status::OutOfRange(
          "profile space too large for dense storage; use SymmetricBinaryGame");
    }
  }
  return NormalFormGame(std::move(strategy_counts));
}

NormalFormGame::NormalFormGame(std::vector<int> strategy_counts)
    : strategy_counts_(std::move(strategy_counts)) {
  num_profiles_ = 1;
  for (int c : strategy_counts_) num_profiles_ *= static_cast<size_t>(c);
  payoffs_.assign(num_profiles_ * strategy_counts_.size(), 0.0);
  int max_strategies = 0;
  for (int c : strategy_counts_) max_strategies = std::max(max_strategies, c);
  for (int s = 0; s < max_strategies; ++s) {
    strategy_names_.push_back(std::string("s").append(std::to_string(s)));
  }
}

size_t NormalFormGame::ProfileIndex(const StrategyProfile& profile) const {
  HSIS_CHECK(profile.size() == strategy_counts_.size());
  size_t index = 0;
  for (size_t i = 0; i < profile.size(); ++i) {
    HSIS_CHECK(profile[i] >= 0 && profile[i] < strategy_counts_[i]);
    index = index * static_cast<size_t>(strategy_counts_[i]) +
            static_cast<size_t>(profile[i]);
  }
  return index;
}

StrategyProfile NormalFormGame::ProfileFromIndex(size_t index) const {
  StrategyProfile profile;
  ProfileFromIndex(index, profile);
  return profile;
}

void NormalFormGame::ProfileFromIndex(size_t index, StrategyProfile& out) const {
  HSIS_CHECK(index < num_profiles_);
  out.resize(strategy_counts_.size());
  for (size_t i = strategy_counts_.size(); i-- > 0;) {
    size_t c = static_cast<size_t>(strategy_counts_[i]);
    out[i] = static_cast<int>(index % c);
    index /= c;
  }
}

void NormalFormGame::SetPayoff(const StrategyProfile& profile, int player,
                               double value) {
  payoffs_[ProfileIndex(profile) * static_cast<size_t>(num_players()) +
           static_cast<size_t>(player)] = value;
}

void NormalFormGame::SetPayoffs(const StrategyProfile& profile,
                                const std::vector<double>& values) {
  HSIS_CHECK(values.size() == strategy_counts_.size());
  for (int p = 0; p < num_players(); ++p) {
    SetPayoff(profile, p, values[static_cast<size_t>(p)]);
  }
}

double NormalFormGame::Payoff(const StrategyProfile& profile,
                              int player) const {
  return payoffs_[ProfileIndex(profile) * static_cast<size_t>(num_players()) +
                  static_cast<size_t>(player)];
}

void NormalFormGame::SetStrategyNames(std::vector<std::string> names) {
  HSIS_CHECK(names.size() >= strategy_names_.size());
  strategy_names_ = std::move(names);
}

const std::string& NormalFormGame::StrategyName(int strategy) const {
  HSIS_CHECK(strategy >= 0 &&
             static_cast<size_t>(strategy) < strategy_names_.size());
  return strategy_names_[static_cast<size_t>(strategy)];
}

}  // namespace hsis::game
