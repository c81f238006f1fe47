#include "game/landscape_shards.h"

#include <map>

#include "common/file.h"
#include "common/parallel.h"
#include "game/heterogeneous.h"
#include "game/kernel.h"
#include "game/report.h"

namespace hsis::game {

namespace {

// The canonical export_landscapes economics.
constexpr double kB = 10, kF = 25, kL = 8;
constexpr int kLineSteps = 201;   // Figures 1, 2, 4
constexpr int kGridSteps = 41;    // Figure 3
constexpr double kFigure1Penalty = 40;
constexpr double kFigure2MaxPenalty = 120;

TwoPlayerGameParams Figure3Params() {
  TwoPlayerGameParams params;
  params.player1 = {10, 30};
  params.player2 = {6, 20};
  params.loss_to_1 = 4;
  params.loss_to_2 = 9;
  params.audit1 = {0, 20};
  params.audit2 = {0, 15};
  return params;
}

NPlayerHonestyGame::Params Figure4Params() {
  NPlayerHonestyGame::Params params;
  params.n = 8;
  params.benefit = kB;
  params.gain = LinearGain(20, 2);
  params.frequency = 0.3;
  params.uniform_loss = 4;
  return params;
}

double Figure4MaxPenalty() {
  NPlayerHonestyGame::Params params = Figure4Params();
  return NPlayerPenaltyBound(kB, params.gain, params.frequency, params.n - 1) *
         1.2;
}

/// Registered (non-builtin) sweeps, in registration order. Lookups and
/// registrations are expected to happen at startup, before concurrent
/// sweep execution.
std::map<std::string, NamedSweep>& Registry() {
  static std::map<std::string, NamedSweep> registry;
  return registry;
}

std::vector<std::string>& KnownNames() {
  static std::vector<std::string> names = {
      "figure1", "figure2_f02", "figure2_f07", "figure3", "figure4"};
  return names;
}

bool IsBuiltin(const std::string& name) {
  return name == "figure1" || name == "figure2_f02" || name == "figure2_f07" ||
         name == "figure3" || name == "figure4";
}

Status UnknownSweep(const std::string& name) {
  std::string known;
  for (const std::string& n : LandscapeSweepNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("unknown landscape sweep '" + name + "' (known: " +
                          known + ")");
}

const NamedSweep* FindRegistered(const std::string& name) {
  auto it = Registry().find(name);
  return it == Registry().end() ? nullptr : &it->second;
}

/// Header + every record of `spec` with `threads` workers and ordered
/// output slots — the serial-equivalent CSV of a registered sweep.
Result<std::string> RegisteredSweepCsv(const NamedSweep& sweep, int threads) {
  HSIS_ASSIGN_OR_RETURN(common::ShardSweepSpec spec, sweep.make_spec());
  std::vector<Bytes> rows(spec.total);
  HSIS_RETURN_IF_ERROR(common::ParallelForWithStatus(
      threads, spec.total, [&](size_t i) -> Status {
        HSIS_ASSIGN_OR_RETURN(rows[i], spec.record(i));
        return Status::OK();
      }));
  std::string out = sweep.header;
  for (const Bytes& row : rows) out.append(row.begin(), row.end());
  return out;
}

// ---------------------------------------------------------------------------
// Heterogeneous design-search sweeps
// ---------------------------------------------------------------------------

constexpr int kDesignPlayers = 48;
constexpr double kDesignMargin = 1e-6;
constexpr double kDesignBudget = 0.12 * kDesignPlayers;

/// The canonical mixed population: deterministic, spans weak and strong
/// economics, every frequency strictly positive (MinPenaltiesForAllHonest
/// requires it).
std::vector<HeterogeneousHonestyGame::PlayerSpec> DesignPopulation() {
  std::vector<HeterogeneousHonestyGame::PlayerSpec> players;
  players.reserve(kDesignPlayers);
  for (int i = 0; i < kDesignPlayers; ++i) {
    HeterogeneousHonestyGame::PlayerSpec spec;
    spec.benefit = 6 + i % 7;
    spec.gain = LinearGain(16 + i % 9, 1 + i % 4);
    spec.frequency = 0.1 + 0.8 * i / (kDesignPlayers - 1);
    spec.penalty = 5 + i % 11;
    players.push_back(std::move(spec));
  }
  return players;
}

std::vector<double> DesignAuditCosts() {
  std::vector<double> costs(kDesignPlayers);
  for (int i = 0; i < kDesignPlayers; ++i) {
    costs[static_cast<size_t>(i)] = 1 + i % 5;
  }
  return costs;
}

Result<Bytes> MinPenaltiesRecord(size_t i) {
  if (i >= static_cast<size_t>(kDesignPlayers)) {
    return Status::InvalidArgument("design row index out of range");
  }
  const auto players = DesignPopulation();
  HSIS_ASSIGN_OR_RETURN(std::vector<double> penalties,
                        MinPenaltiesForAllHonest(players, kDesignMargin));
  std::string row = std::to_string(i);
  row += ',';
  AppendCsvDouble(row, players[i].frequency);
  row += ',';
  AppendCsvDouble(row, penalties[i]);
  row += '\n';
  return ToBytes(row);
}

Result<Bytes> MinCostFrequenciesRecord(size_t i) {
  if (i >= static_cast<size_t>(kDesignPlayers)) {
    return Status::InvalidArgument("design row index out of range");
  }
  const auto players = DesignPopulation();
  const auto costs = DesignAuditCosts();
  HSIS_ASSIGN_OR_RETURN(AuditAllocation alloc,
                        MinCostFrequencies(players, costs, kDesignMargin));
  std::string row = std::to_string(i);
  row += ',';
  AppendCsvDouble(row, costs[i]);
  row += ',';
  AppendCsvDouble(row, alloc.frequencies[i]);
  row += ',';
  AppendCsvDouble(row, alloc.frequencies[i] * costs[i]);
  row += '\n';
  return ToBytes(row);
}

Result<Bytes> BudgetDeterrenceRecord(size_t i) {
  if (i >= static_cast<size_t>(kDesignPlayers)) {
    return Status::InvalidArgument("design row index out of range");
  }
  HSIS_ASSIGN_OR_RETURN(
      BudgetedAllocation alloc,
      MaxDeterredUnderBudget(DesignPopulation(), kDesignBudget, kDesignMargin));
  std::string row = std::to_string(i);
  row += ',';
  AppendCsvDouble(row, alloc.frequencies[i]);
  row += ',';
  row += alloc.deterred[i] ? "1" : "0";
  row += '\n';
  return ToBytes(row);
}

}  // namespace

const std::vector<std::string>& LandscapeSweepNames() { return KnownNames(); }

Status RegisterNamedSweep(const std::string& name, NamedSweep sweep) {
  if (name.empty()) {
    return Status::InvalidArgument("sweep name must be non-empty");
  }
  if (!sweep.make_spec) {
    return Status::InvalidArgument("sweep '" + name + "' needs a spec factory");
  }
  if (sweep.header.empty() || sweep.header.back() != '\n') {
    return Status::InvalidArgument(
        "sweep '" + name + "' needs a newline-terminated CSV header");
  }
  if (sweep.filename.empty()) {
    return Status::InvalidArgument("sweep '" + name + "' needs a filename");
  }
  if (IsBuiltin(name) || Registry().count(name) != 0) {
    return Status::AlreadyExists("sweep '" + name + "' already registered");
  }
  Registry().emplace(name, std::move(sweep));
  KnownNames().push_back(name);
  return Status::OK();
}

Result<common::ShardSweepSpec> LandscapeSweepSpec(const std::string& name) {
  common::ShardSweepSpec spec;
  spec.name = name;
  spec.seed = 0;  // analytic sweeps draw no randomness
  if (name == "figure1") {
    spec.total = kLineSteps;
    spec.record = [](size_t i) -> Result<Bytes> {
      std::vector<kernel::FrequencyRowKernel> rows;
      HSIS_RETURN_IF_ERROR(kernel::EvalFrequencyRows(
          kB, kF, kL, kFigure1Penalty, kLineSteps, i, 1, rows));
      return ToBytes(FrequencyKernelRowToCsv(rows[0]));
    };
  } else if (name == "figure2_f02" || name == "figure2_f07") {
    double frequency = name == "figure2_f02" ? 0.2 : 0.7;
    spec.total = kLineSteps;
    spec.record = [frequency](size_t i) -> Result<Bytes> {
      std::vector<kernel::PenaltyRowKernel> rows;
      HSIS_RETURN_IF_ERROR(kernel::EvalPenaltyRows(
          kB, kF, kL, frequency, kFigure2MaxPenalty, kLineSteps, i, 1, rows));
      return ToBytes(PenaltyKernelRowToCsv(rows[0]));
    };
  } else if (name == "figure3") {
    spec.total = static_cast<size_t>(kGridSteps) * kGridSteps;
    spec.record = [](size_t i) -> Result<Bytes> {
      std::vector<kernel::AsymmetricCellKernel> cells;
      HSIS_RETURN_IF_ERROR(kernel::EvalAsymmetricCells(Figure3Params(),
                                                       kGridSteps, i, 1, cells));
      return ToBytes(AsymmetricKernelCellToCsv(cells[0]));
    };
  } else if (name == "figure4") {
    spec.total = kLineSteps;
    spec.record = [](size_t i) -> Result<Bytes> {
      std::vector<kernel::NPlayerBandRowKernel> rows;
      HSIS_RETURN_IF_ERROR(kernel::EvalNPlayerBandRows(
          Figure4Params(), Figure4MaxPenalty(), kLineSteps, i, 1, rows));
      return ToBytes(NPlayerKernelRowToCsv(rows[0]));
    };
  } else if (const NamedSweep* registered = FindRegistered(name)) {
    return registered->make_spec();
  } else {
    return UnknownSweep(name);
  }
  return spec;
}

Result<std::string> LandscapeCsvHeader(const std::string& name) {
  if (name == "figure1") return FrequencySweepCsvHeader();
  if (name == "figure2_f02" || name == "figure2_f07") {
    return PenaltySweepCsvHeader();
  }
  if (name == "figure3") return AsymmetricGridCsvHeader();
  if (name == "figure4") return NPlayerBandsCsvHeader();
  if (const NamedSweep* registered = FindRegistered(name)) {
    return registered->header;
  }
  return UnknownSweep(name);
}

Result<std::string> LandscapeCsvFilename(const std::string& name) {
  if (name == "figure1") return std::string("figure1_frequency_sweep.csv");
  if (name == "figure2_f02") {
    return std::string("figure2_penalty_sweep_f02.csv");
  }
  if (name == "figure2_f07") {
    return std::string("figure2_penalty_sweep_f07.csv");
  }
  if (name == "figure3") return std::string("figure3_asymmetric_grid.csv");
  if (name == "figure4") return std::string("figure4_nplayer_bands.csv");
  if (const NamedSweep* registered = FindRegistered(name)) {
    return registered->filename;
  }
  return UnknownSweep(name);
}

Result<std::string> LandscapeCsv(const std::string& name, int threads) {
  // Figure sweeps render through the kernel layer: classify into row
  // vectors (zero allocations per cell), then serialize via the interned
  // label table — byte-identical to the historical per-row path.
  if (name == "figure1") {
    std::vector<kernel::FrequencyRowKernel> rows;
    HSIS_RETURN_IF_ERROR(kernel::EvalFrequencyRows(
        kB, kF, kL, kFigure1Penalty, kLineSteps, 0, kLineSteps, rows,
        threads));
    return FrequencySweepToCsv(rows);
  }
  if (name == "figure2_f02" || name == "figure2_f07") {
    double frequency = name == "figure2_f02" ? 0.2 : 0.7;
    std::vector<kernel::PenaltyRowKernel> rows;
    HSIS_RETURN_IF_ERROR(kernel::EvalPenaltyRows(
        kB, kF, kL, frequency, kFigure2MaxPenalty, kLineSteps, 0, kLineSteps,
        rows, threads));
    return PenaltySweepToCsv(rows);
  }
  if (name == "figure3") {
    std::vector<kernel::AsymmetricCellKernel> cells;
    HSIS_RETURN_IF_ERROR(kernel::EvalAsymmetricCells(
        Figure3Params(), kGridSteps, 0,
        static_cast<size_t>(kGridSteps) * kGridSteps, cells, threads));
    return AsymmetricGridToCsv(cells);
  }
  if (name == "figure4") {
    std::vector<kernel::NPlayerBandRowKernel> rows;
    HSIS_RETURN_IF_ERROR(kernel::EvalNPlayerBandRows(
        Figure4Params(), Figure4MaxPenalty(), kLineSteps, 0, kLineSteps, rows,
        threads));
    return NPlayerBandsToCsv(rows);
  }
  if (const NamedSweep* registered = FindRegistered(name)) {
    return RegisteredSweepCsv(*registered, threads);
  }
  return UnknownSweep(name);
}

Result<common::ShardPlanInfo> PlanLandscapeShards(const std::string& name,
                                                  int shards,
                                                  const std::string& dir) {
  HSIS_ASSIGN_OR_RETURN(common::ShardSweepSpec spec, LandscapeSweepSpec(name));
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
  HSIS_ASSIGN_OR_RETURN(common::ShardSweepSpec spec,
                        LandscapeSweepSpec(info.sweep));
  HSIS_ASSIGN_OR_RETURN(common::ShardPlan plan,
                        common::ShardPlan::Create(info.total, info.shards));
  return LandscapeShards{std::move(info),
                         common::ShardRunner(std::move(spec), plan)};
}

Result<MergedLandscapeCsv> MergeLandscapeShards(const std::string& dir) {
  HSIS_ASSIGN_OR_RETURN(common::ShardPlanInfo info, common::ReadShardPlan(dir));
  HSIS_ASSIGN_OR_RETURN(Bytes rows, common::MergeShards(dir, info.sweep));
  HSIS_ASSIGN_OR_RETURN(std::string csv, LandscapeCsvHeader(info.sweep));
  csv += BytesToString(rows);
  return MergedLandscapeCsv{std::move(info), std::move(csv)};
}

Status RegisterHeterogeneousDesignSweeps() {
  if (FindRegistered("design_min_penalties") != nullptr) {
    return Status::OK();  // idempotent
  }
  NamedSweep min_penalties;
  min_penalties.make_spec = []() -> Result<common::ShardSweepSpec> {
    common::ShardSweepSpec spec;
    spec.name = "design_min_penalties";
    spec.total = kDesignPlayers;
    spec.seed = 0;
    spec.record = MinPenaltiesRecord;
    return spec;
  };
  min_penalties.header = "player,frequency,min_penalty\n";
  min_penalties.filename = "design_min_penalties.csv";
  HSIS_RETURN_IF_ERROR(
      RegisterNamedSweep("design_min_penalties", std::move(min_penalties)));

  NamedSweep min_cost;
  min_cost.make_spec = []() -> Result<common::ShardSweepSpec> {
    common::ShardSweepSpec spec;
    spec.name = "design_min_cost_frequencies";
    spec.total = kDesignPlayers;
    spec.seed = 0;
    spec.record = MinCostFrequenciesRecord;
    return spec;
  };
  min_cost.header = "player,audit_cost,frequency,cost\n";
  min_cost.filename = "design_min_cost_frequencies.csv";
  HSIS_RETURN_IF_ERROR(RegisterNamedSweep("design_min_cost_frequencies",
                                          std::move(min_cost)));

  NamedSweep budget;
  budget.make_spec = []() -> Result<common::ShardSweepSpec> {
    common::ShardSweepSpec spec;
    spec.name = "design_budget_deterrence";
    spec.total = kDesignPlayers;
    spec.seed = 0;
    spec.record = BudgetDeterrenceRecord;
    return spec;
  };
  budget.header = "player,frequency,deterred\n";
  budget.filename = "design_budget_deterrence.csv";
  return RegisterNamedSweep("design_budget_deterrence", std::move(budget));
}

}  // namespace hsis::game
