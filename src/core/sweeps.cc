#include "core/sweeps.h"

#include <utility>

#include "common/file.h"
#include "core/campaign.h"
#include "crypto/group.h"
#include "game/heterogeneous.h"
#include "game/kernel.h"
#include "game/report.h"

namespace hsis::core {

namespace {

namespace kernel = game::kernel;
using game::AppendCsvDouble;

using Record = std::function<Result<Bytes>(size_t)>;

// ---------------------------------------------------------------------------
// Figure landscapes: the canonical export_landscapes economics. A record
// is one kernel row (game/kernel.h) rendered by its game/report.h
// serializer; the parameters are constants, so no per-row validation
// is repeated.
// ---------------------------------------------------------------------------

constexpr double kB = 10, kF = 25, kL = 8;
constexpr int kLineSteps = 201;   // Figures 1, 2, 4
constexpr int kGridSteps = 41;    // Figure 3
constexpr double kFigure1Penalty = 40;
constexpr double kFigure2MaxPenalty = 120;

game::TwoPlayerGameParams Figure3Params() {
  game::TwoPlayerGameParams params;
  params.player1 = {10, 30};
  params.player2 = {6, 20};
  params.loss_to_1 = 4;
  params.loss_to_2 = 9;
  params.audit1 = {0, 20};
  params.audit2 = {0, 15};
  return params;
}

game::NPlayerHonestyGame::Params Figure4Params() {
  game::NPlayerHonestyGame::Params params;
  params.n = 8;
  params.benefit = kB;
  params.gain = game::LinearGain(20, 2);
  params.frequency = 0.3;
  params.uniform_loss = 4;
  return params;
}

double Figure4MaxPenalty() {
  game::NPlayerHonestyGame::Params params = Figure4Params();
  return game::NPlayerPenaltyBound(kB, params.gain, params.frequency,
                                   params.n - 1) *
         1.2;
}

// ---------------------------------------------------------------------------
// Heterogeneous design searches
// ---------------------------------------------------------------------------

constexpr int kDesignPlayers = 48;
constexpr double kDesignMargin = 1e-6;
constexpr double kDesignBudget = 0.12 * kDesignPlayers;

/// The canonical mixed population: deterministic, spans weak and strong
/// economics, every frequency strictly positive (MinPenaltiesForAllHonest
/// requires it). Built once per process.
const std::vector<game::HeterogeneousHonestyGame::PlayerSpec>&
DesignPopulation() {
  static const auto players = [] {
    std::vector<game::HeterogeneousHonestyGame::PlayerSpec> out;
    out.reserve(kDesignPlayers);
    for (int i = 0; i < kDesignPlayers; ++i) {
      game::HeterogeneousHonestyGame::PlayerSpec spec;
      spec.benefit = 6 + i % 7;
      spec.gain = game::LinearGain(16 + i % 9, 1 + i % 4);
      spec.frequency = 0.1 + 0.8 * i / (kDesignPlayers - 1);
      spec.penalty = 5 + i % 11;
      out.push_back(std::move(spec));
    }
    return out;
  }();
  return players;
}

const std::vector<double>& DesignAuditCosts() {
  static const auto costs = [] {
    std::vector<double> out(kDesignPlayers);
    for (int i = 0; i < kDesignPlayers; ++i) {
      out[static_cast<size_t>(i)] = 1 + i % 5;
    }
    return out;
  }();
  return costs;
}

// Each design sweep runs its search once per process; record `i` then
// formats player `i` of the one result.

Status CheckDesignRow(size_t i) {
  if (i >= static_cast<size_t>(kDesignPlayers)) {
    return Status::InvalidArgument("design row index out of range");
  }
  return Status::OK();
}

Result<Bytes> MinPenaltiesRecord(size_t i) {
  HSIS_RETURN_IF_ERROR(CheckDesignRow(i));
  static const Result<std::vector<double>> penalties =
      game::MinPenaltiesForAllHonest(DesignPopulation(), kDesignMargin);
  HSIS_RETURN_IF_ERROR(penalties.status());
  std::string row = std::to_string(i);
  row += ',';
  AppendCsvDouble(row, DesignPopulation()[i].frequency);
  row += ',';
  AppendCsvDouble(row, (*penalties)[i]);
  row += '\n';
  return ToBytes(row);
}

Result<Bytes> MinCostFrequenciesRecord(size_t i) {
  HSIS_RETURN_IF_ERROR(CheckDesignRow(i));
  static const Result<game::AuditAllocation> alloc = game::MinCostFrequencies(
      DesignPopulation(), DesignAuditCosts(), kDesignMargin);
  HSIS_RETURN_IF_ERROR(alloc.status());
  const double cost = DesignAuditCosts()[i];
  std::string row = std::to_string(i);
  row += ',';
  AppendCsvDouble(row, cost);
  row += ',';
  AppendCsvDouble(row, alloc->frequencies[i]);
  row += ',';
  AppendCsvDouble(row, alloc->frequencies[i] * cost);
  row += '\n';
  return ToBytes(row);
}

Result<Bytes> BudgetDeterrenceRecord(size_t i) {
  HSIS_RETURN_IF_ERROR(CheckDesignRow(i));
  static const Result<game::BudgetedAllocation> alloc =
      game::MaxDeterredUnderBudget(DesignPopulation(), kDesignBudget,
                                   kDesignMargin);
  HSIS_RETURN_IF_ERROR(alloc.status());
  std::string row = std::to_string(i);
  row += ',';
  AppendCsvDouble(row, alloc->frequencies[i]);
  row += ',';
  row += alloc->deterred[i] ? "1" : "0";
  row += '\n';
  return ToBytes(row);
}

// ---------------------------------------------------------------------------
// Campaign ensemble: the bench_repeated_enforcement economics (B = 10
// honest benefit, 5 per probe hit, 4 per leaked tuple) at audit frequency
// 0.5 and penalty 30, three policy pairs, 40 rounds and 16 replicates per
// pair. A record is one grid cell.
// ---------------------------------------------------------------------------

constexpr int kCampaignRounds = 40;
constexpr int kCampaignReplicates = 16;
constexpr uint64_t kCampaignBaseSeed = 20260806;

CampaignSessionFactory MakeCampaignSessionFactory() {
  return [](uint64_t seed) -> Result<HonestSharingSession> {
    SessionConfig config;
    config.audit_frequency = 0.5;
    config.penalty = 30;
    config.group = &crypto::PrimeGroup::SmallTestGroup();
    config.seed = seed;
    HSIS_ASSIGN_OR_RETURN(HonestSharingSession s,
                          HonestSharingSession::Create(config));
    HSIS_RETURN_IF_ERROR(s.AddParty("alice"));
    HSIS_RETURN_IF_ERROR(s.AddParty("bob"));
    HSIS_RETURN_IF_ERROR(s.IssueTuples("alice", {"u", "v", "a1", "a2"}));
    HSIS_RETURN_IF_ERROR(s.IssueTuples("bob", {"u", "v", "b1", "b2", "b3"}));
    return s;
  };
}

std::vector<CampaignPolicyPair> CampaignPolicyGrid() {
  std::vector<CampaignPolicyPair> policies;
  policies.push_back({"honest/honest", HonestPolicy, HonestPolicy});
  policies.push_back({"prober/honest",
                      [] {
                        return PersistentProberPolicy({"b1", "b2", "miss"}, 2);
                      },
                      HonestPolicy});
  policies.push_back(
      {"opportunist/honest",
       [] { return OpportunisticProberPolicy({"b1", "b2", "miss"}, 2, 0.3); },
       HonestPolicy});
  return policies;
}

CampaignEnsembleConfig CampaignConfig() {
  CampaignEnsembleConfig config;
  config.rounds = kCampaignRounds;
  config.replicates = kCampaignReplicates;
  config.base_seed = kCampaignBaseSeed;
  config.economics.honest_benefit = 10;
  config.economics.gain_per_probe_hit = 5;
  config.economics.loss_per_leaked_tuple = 4;
  return config;
}

Result<Bytes> CampaignCellRecord(size_t cell) {
  const auto policies = CampaignPolicyGrid();
  HSIS_ASSIGN_OR_RETURN(
      CampaignCellResult result,
      RunCampaignEnsembleCell(MakeCampaignSessionFactory(), "alice", "bob",
                              policies, CampaignConfig(), cell));
  std::string row = policies[result.policy_index].label;
  row += ',';
  row += std::to_string(result.replicate);
  row += ',';
  row += std::to_string(result.session_seed);
  row += ',';
  AppendCsvDouble(row, result.result.a.realized_payoff);
  row += ',';
  AppendCsvDouble(row, result.result.b.realized_payoff);
  row += ',';
  row += std::to_string(result.result.a.times_detected);
  row += ',';
  row += std::to_string(result.result.b.times_detected);
  row += '\n';
  return ToBytes(row);
}

// ---------------------------------------------------------------------------
// The catalogue
// ---------------------------------------------------------------------------

/// A figure entry: record `i < total` is `row_csv(i)`.
template <typename RowCsv>
Sweep Figure(std::string name, size_t total, RowCsv row_csv,
             std::string header, std::string filename) {
  Record record = [total, row_csv](size_t i) -> Result<Bytes> {
    if (i >= total) {
      return Status::InvalidArgument("row range exceeds sweep index space");
    }
    return ToBytes(row_csv(i));
  };
  return {{std::move(name), total, 0, std::move(record)}, std::move(header),
          std::move(filename), true};
}

Sweep Design(std::string name, Record record, std::string header) {
  std::string filename = name + ".csv";
  return {{std::move(name), kDesignPlayers, 0, std::move(record)},
          std::move(header), std::move(filename), false};
}

std::vector<Sweep> BuildCatalogue() {
  const game::TwoPlayerGameParams figure3 = Figure3Params();
  const kernel::NPlayerKernelParams figure4 =
      kernel::MakeNPlayerKernelParams(Figure4Params()).value();
  const double figure4_max_penalty = Figure4MaxPenalty();
  const auto figure2 = [](double frequency) {
    return [frequency](size_t i) {
      return game::PenaltyKernelRowToCsv(kernel::PenaltyRowAt(
          kB, kF, kL, frequency, kFigure2MaxPenalty, kLineSteps, i));
    };
  };

  std::vector<Sweep> sweeps;
  sweeps.push_back(Figure(
      "figure1", kLineSteps,
      [](size_t i) {
        return game::FrequencyKernelRowToCsv(kernel::FrequencyRowAt(
            kB, kF, kL, kFigure1Penalty, kLineSteps, i));
      },
      game::FrequencySweepCsvHeader(), "figure1_frequency_sweep.csv"));
  sweeps.push_back(Figure("figure2_f02", kLineSteps, figure2(0.2),
                          game::PenaltySweepCsvHeader(),
                          "figure2_penalty_sweep_f02.csv"));
  sweeps.push_back(Figure("figure2_f07", kLineSteps, figure2(0.7),
                          game::PenaltySweepCsvHeader(),
                          "figure2_penalty_sweep_f07.csv"));
  sweeps.push_back(Figure(
      "figure3", static_cast<size_t>(kGridSteps) * kGridSteps,
      [figure3](size_t i) {
        return game::AsymmetricKernelCellToCsv(
            kernel::AsymmetricCellAt(figure3, kGridSteps, i));
      },
      game::AsymmetricGridCsvHeader(), "figure3_asymmetric_grid.csv"));
  sweeps.push_back(Figure(
      "figure4", kLineSteps,
      [figure4, figure4_max_penalty](size_t i) {
        return game::NPlayerKernelRowToCsv(kernel::NPlayerBandRowAt(
            figure4, figure4_max_penalty, kLineSteps, i));
      },
      game::NPlayerBandsCsvHeader(), "figure4_nplayer_bands.csv"));
  sweeps.push_back(Design("design_min_penalties", MinPenaltiesRecord,
                          "player,frequency,min_penalty\n"));
  sweeps.push_back(Design("design_min_cost_frequencies",
                          MinCostFrequenciesRecord,
                          "player,audit_cost,frequency,cost\n"));
  sweeps.push_back(Design("design_budget_deterrence", BudgetDeterrenceRecord,
                          "player,frequency,deterred\n"));
  sweeps.push_back(
      {{"campaign_ensemble", CampaignPolicyGrid().size() * kCampaignReplicates,
        kCampaignBaseSeed, CampaignCellRecord},
       "policy,replicate,session_seed,payoff_a,payoff_b,"
       "detections_a,detections_b\n",
       "campaign_ensemble.csv",
       false});
  return sweeps;
}

}  // namespace

const std::vector<Sweep>& SweepCatalogue() {
  static const std::vector<Sweep> catalogue = BuildCatalogue();
  return catalogue;
}

Result<const Sweep*> FindSweep(const std::string& name) {
  std::string known;
  for (const Sweep& sweep : SweepCatalogue()) {
    if (sweep.spec.name == name) return &sweep;
    if (!known.empty()) known += ", ";
    known += sweep.spec.name;
  }
  return Status::NotFound("unknown landscape sweep '" + name + "' (known: " +
                          known + ")");
}

Result<std::string> LandscapeCsv(const std::string& name, int threads) {
  HSIS_ASSIGN_OR_RETURN(const Sweep* sweep, FindSweep(name));
  HSIS_ASSIGN_OR_RETURN(
      std::vector<Bytes> rows,
      common::ComputeShardRecords(sweep->spec, {0, sweep->spec.total},
                                  threads));
  size_t size = sweep->header.size();
  for (const Bytes& row : rows) size += row.size();
  std::string out;
  out.reserve(size);
  out = sweep->header;
  for (const Bytes& row : rows) out.append(row.begin(), row.end());
  return out;
}

Result<common::ShardPlanInfo> PlanLandscapeShards(const std::string& name,
                                                  int shards,
                                                  const std::string& dir) {
  HSIS_ASSIGN_OR_RETURN(const Sweep* sweep, FindSweep(name));
  const common::ShardSweepSpec& spec = sweep->spec;
  HSIS_ASSIGN_OR_RETURN(common::ShardPlan plan,
                        common::ShardPlan::Create(spec.total, shards));
  HSIS_RETURN_IF_ERROR(CreateDirectories(dir));
  HSIS_RETURN_IF_ERROR(common::WriteShardPlan(spec, plan, dir));
  return common::ShardPlanInfo{spec.name, spec.total, plan.shards(),
                               spec.seed};
}

Result<common::ShardPlanInfo> ResumeOrPlanLandscapeShards(
    const std::string& name, int shards, const std::string& dir,
    bool* planned) {
  const bool fresh = !FileExists(common::ShardPlanPath(dir));
  if (planned != nullptr) *planned = fresh;
  if (fresh) {
    if (name.empty()) {
      return Status::InvalidArgument(
          "no plan in " + dir +
          " and no --sweep to plan one; pass --sweep=NAME --shards=K");
    }
    return PlanLandscapeShards(name, shards, dir);
  }
  HSIS_ASSIGN_OR_RETURN(common::ShardPlanInfo info, common::ReadShardPlan(dir));
  if (!name.empty() && name != info.sweep) {
    return Status::InvalidArgument(
        "--sweep=" + name + " contradicts the plan in " + dir + " (sweep '" +
        info.sweep + "'); clear the directory to start over");
  }
  return info;
}

Result<LandscapeShards> OpenLandscapeShards(const std::string& dir) {
  HSIS_ASSIGN_OR_RETURN(common::ShardPlanInfo info, common::ReadShardPlan(dir));
  HSIS_ASSIGN_OR_RETURN(const Sweep* sweep, FindSweep(info.sweep));
  HSIS_ASSIGN_OR_RETURN(common::ShardPlan plan,
                        common::ShardPlan::Create(info.total, info.shards));
  return LandscapeShards{std::move(info),
                         common::ShardRunner(sweep->spec, plan)};
}

Result<MergedLandscapeCsv> MergeLandscapeShards(const std::string& dir) {
  HSIS_ASSIGN_OR_RETURN(common::ShardPlanInfo info, common::ReadShardPlan(dir));
  HSIS_ASSIGN_OR_RETURN(Bytes rows, common::MergeShards(dir, info.sweep));
  HSIS_ASSIGN_OR_RETURN(const Sweep* sweep, FindSweep(info.sweep));
  std::string csv = sweep->header + BytesToString(rows);
  return MergedLandscapeCsv{std::move(info), std::move(csv)};
}

}  // namespace hsis::core
