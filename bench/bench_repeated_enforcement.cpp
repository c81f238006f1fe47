// Extension — enforcement without (or with less) auditing: the folk
// theorem applied to the honesty game.
//
// Grim-trigger repetition sustains honesty in the *unaudited* game iff
// the collateral damage of mutual cheating exceeds the cheating gain
// (L >= F - B) and players are patient (delta >= (F-B)/L). Auditing and
// patience trade off along the generalized Observation 2 frontier
// f*(delta) = (F - delta L - B)/(F - delta L + P).

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "bench_util.h"
#include "common/file.h"
#include "common/parallel.h"
#include "common/scheduler.h"
#include "common/shard.h"
#include "core/campaign.h"
#include "game/repeated_analysis.h"
#include "game/thresholds.h"

namespace {

using namespace hsis;
using namespace hsis::game;

constexpr double kB = 10, kF = 25;

// --- Campaign ensembles: repeated enforcement through the full stack ---

core::CampaignSessionFactory MakeSessionFactory(double frequency,
                                                double penalty) {
  return [frequency,
          penalty](uint64_t seed) -> Result<core::HonestSharingSession> {
    core::SessionConfig config;
    config.audit_frequency = frequency;
    config.penalty = penalty;
    config.group = &crypto::PrimeGroup::SmallTestGroup();
    config.seed = seed;
    HSIS_ASSIGN_OR_RETURN(core::HonestSharingSession s,
                          core::HonestSharingSession::Create(config));
    HSIS_RETURN_IF_ERROR(s.AddParty("alice"));
    HSIS_RETURN_IF_ERROR(s.AddParty("bob"));
    HSIS_RETURN_IF_ERROR(s.IssueTuples("alice", {"u", "v", "a1", "a2"}));
    HSIS_RETURN_IF_ERROR(s.IssueTuples("bob", {"u", "v", "b1", "b2", "b3"}));
    return s;
  };
}

std::vector<core::CampaignPolicyPair> PolicyGrid() {
  using core::CheatPolicy;
  std::vector<core::CampaignPolicyPair> policies;
  policies.push_back({"honest/honest", core::HonestPolicy,
                      core::HonestPolicy});
  policies.push_back({"prober/honest",
                      [] {
                        return core::PersistentProberPolicy(
                            {"b1", "b2", "miss"}, 2);
                      },
                      core::HonestPolicy});
  policies.push_back({"opportunist/honest",
                      [] {
                        return core::OpportunisticProberPolicy(
                            {"b1", "b2", "miss"}, 2, 0.3);
                      },
                      core::HonestPolicy});
  return policies;
}

void PrintCampaignEnsemble() {
  std::printf("(4) Campaign ensembles (policy x seed grid through the full\n"
              "    session stack; threads=%d):\n\n", bench::Flags().threads);
  std::printf("  %-22s %-14s %-14s\n", "policy pair", "mean payoff A",
              "mean payoff B");
  core::CampaignEnsembleConfig config;
  config.rounds = 30;
  config.replicates = 8;
  config.base_seed = 20260806;
  config.economics.honest_benefit = 10;
  config.economics.gain_per_probe_hit = 5;
  config.economics.loss_per_leaked_tuple = 4;
  config.threads = bench::Flags().threads;
  auto policies = PolicyGrid();
  auto ensemble = core::RunCampaignEnsemble(MakeSessionFactory(0.5, 30),
                                            "alice", "bob", policies, config);
  if (!ensemble.ok()) {
    std::printf("  ensemble failed: %s\n", ensemble.status().ToString().c_str());
    return;
  }
  for (size_t p = 0; p < policies.size(); ++p) {
    std::printf("  %-22s %-14.3f %-14.3f\n", policies[p].label.c_str(),
                ensemble->mean_payoff_a[p], ensemble->mean_payoff_b[p]);
  }
  std::printf("\n  -> at f = 0.5, P = 30 the expected penalty exceeds the\n"
              "     probe surplus: persistent probing earns less than\n"
              "     honest collaboration, round after round.\n");
}

bool EnsemblesIdentical(const core::CampaignEnsembleResult& a,
                        const core::CampaignEnsembleResult& b) {
  auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t i = 0; i < a.cells.size(); ++i) {
    if (bits(a.cells[i].result.a.realized_payoff) !=
            bits(b.cells[i].result.a.realized_payoff) ||
        bits(a.cells[i].result.b.realized_payoff) !=
            bits(b.cells[i].result.b.realized_payoff) ||
        a.cells[i].result.a.times_detected !=
            b.cells[i].result.a.times_detected ||
        a.cells[i].session_seed != b.cells[i].session_seed) {
      return false;
    }
  }
  for (size_t p = 0; p < a.mean_payoff_a.size(); ++p) {
    if (bits(a.mean_payoff_a[p]) != bits(b.mean_payoff_a[p]) ||
        bits(a.mean_payoff_b[p]) != bits(b.mean_payoff_b[p])) {
      return false;
    }
  }
  return true;
}

/// `--speedup` mode: times the campaign-ensemble grid serially and with
/// the requested `--threads=N` (default: hardware concurrency) and
/// verifies bit-identity — the determinism contract, demonstrated on
/// the repeated-enforcement workload.
void PrintSpeedup() {
  bench::PrintRule(
      "Campaign ensemble engine: serial vs parallel, policy x seed grid");
  int threads = bench::Flags().threads == 1 ? 0 : bench::Flags().threads;
  int resolved = common::ResolveThreadCount(threads);

  core::CampaignEnsembleConfig config;
  config.rounds = 60;
  config.replicates = 32;
  config.base_seed = 20260806;
  config.economics.honest_benefit = 10;
  config.economics.gain_per_probe_hit = 5;
  config.economics.loss_per_leaked_tuple = 4;
  auto policies = PolicyGrid();
  auto factory = MakeSessionFactory(0.5, 30);

  using Clock = std::chrono::steady_clock;
  auto time_run = [&](int t, core::CampaignEnsembleResult* out) {
    config.threads = t;
    Clock::time_point start = Clock::now();
    *out = core::RunCampaignEnsemble(factory, "alice", "bob", policies, config)
               .value();
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  core::CampaignEnsembleResult serial, two, parallel;
  double serial_s = time_run(1, &serial);
  double two_s = time_run(2, &two);
  double parallel_s = time_run(resolved, &parallel);

  std::printf("grid: %zu policies x %d replicates x %d rounds = %zu cells\n\n",
              policies.size(), config.replicates, config.rounds,
              serial.cells.size());
  std::printf("  threads=1   %8.3f s\n", serial_s);
  std::printf("  threads=2   %8.3f s   speedup %.2fx\n", two_s,
              serial_s / two_s);
  std::printf("  threads=%-3d %8.3f s   speedup %.2fx\n", resolved, parallel_s,
              serial_s / parallel_s);
  std::printf("\nbit-identical across thread counts: %s\n",
              bench::Verdict(EnsemblesIdentical(serial, parallel) &&
                             EnsemblesIdentical(serial, two))
                  ? "yes"
                  : "NO — DETERMINISM VIOLATION");
}

void PrintReproduction() {
  bench::PrintRule(
      "Extension: repetition-based enforcement (folk-theorem analysis)");

  std::printf("(1) Can patience alone replace the auditing device?\n"
              "    delta* = (F - B)/L for the unaudited game (B=10, F=25):\n\n");
  std::printf("  %-8s %-14s %s\n", "L", "delta*", "verdict");
  for (double loss : {5.0, 10.0, 15.0, 20.0, 30.0, 60.0}) {
    double d = CriticalDiscount(kB, kF, loss);
    if (std::isinf(d)) {
      std::printf("  %-8.0f %-14s cheating damage too small — repetition "
                  "can never deter\n", loss, "unreachable");
    } else {
      std::printf("  %-8.0f %-14.3f honest iff players discount above this\n",
                  loss, d);
    }
  }
  std::printf("\n  -> The paper's device is *necessary* whenever L < F - B\n"
              "     or participants are impatient; otherwise repetition is\n"
              "     an audit-free alternative.\n\n");

  std::printf("(2) The audit/patience frontier f*(delta) at L = 12, P = 10\n"
              "    (delta = 0 is exactly Observation 2):\n\n");
  std::printf("  %-8s %-10s\n", "delta", "f*");
  for (double delta : {0.0, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    std::printf("  %-8.2f %-10.4f\n", delta,
                CriticalFrequencyWithPatience(kB, kF, 12, 10, delta));
  }
  std::printf("\n  Consistency: delta = 0 gives %.4f = CriticalFrequency = "
              "%.4f\n\n",
              CriticalFrequencyWithPatience(kB, kF, 12, 10, 0),
              CriticalFrequency(kB, kF, 10));

  std::printf("(3) Value-function verification at L = 20, f = 0.1, P = 5:\n\n");
  const double loss = 20, f = 0.1, penalty = 5;
  double deviation = (1 - f) * kF - f * penalty;
  double punishment = deviation - (1 - f) * loss;
  double d_star = CriticalDiscount(kB, kF, loss, f, penalty);
  std::printf("  delta* = %.4f; discounted streams around it:\n", d_star);
  std::printf("  %-8s %-16s %-16s %s\n", "delta", "honest value",
              "deviate value", "honesty holds");
  for (double delta : {d_star - 0.1, d_star - 0.01, d_star + 0.01,
                       d_star + 0.1}) {
    double hv = DiscountedValue(kB, delta);
    double dv = DeviationValue(deviation, punishment, delta);
    std::printf("  %-8.3f %-16.2f %-16.2f %s\n", delta, hv, dv,
                hv >= dv ? "yes" : "no");
  }
  std::printf("\n  -> the incentive flips exactly at delta*, matching the\n"
              "     closed form. REPRODUCED (extension-internal check).\n\n");

  PrintCampaignEnsemble();
}

/// `--shards=K` mode: runs the campaign-ensemble grid through the full
/// multi-process shard lifecycle of common/shard.h (plan, K shard runs,
/// validated merge) in a scratch directory and verifies the merged
/// record stream is byte-identical to the serial single-process run.
/// With `--schedule` the K shard runs go through the fault-tolerant
/// ShardScheduler (`--workers` concurrent jobs, `--max-retries`,
/// `--shard-timeout-ms`) instead of a serial loop, and `--json=PATH`
/// records the scheduled throughput as the headline measurement.
void PrintSharded() {
  bench::PrintRule(
      bench::Flags().schedule
          ? "Campaign ensemble engine: scheduled shards vs serial, "
            "policy x seed grid"
          : "Campaign ensemble engine: sharded run vs serial, "
            "policy x seed grid");
  const int shards = bench::Flags().shards;

  core::CampaignEnsembleConfig config;
  config.rounds = 60;
  config.replicates = 32;
  config.base_seed = 20260806;
  config.economics.honest_benefit = 10;
  config.economics.gain_per_probe_hit = 5;
  config.economics.loss_per_leaked_tuple = 4;
  auto policies = PolicyGrid();
  auto factory = MakeSessionFactory(0.5, 30);

  auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  auto cell_record = [&](const core::CampaignCellResult& cell) {
    Bytes out;
    AppendUint64BE(out, cell.session_seed);
    AppendUint64BE(out, bits(cell.result.a.realized_payoff));
    AppendUint64BE(out, bits(cell.result.b.realized_payoff));
    AppendUint64BE(out, static_cast<uint64_t>(cell.result.a.times_detected));
    AppendUint64BE(out, static_cast<uint64_t>(cell.result.b.times_detected));
    return out;
  };

  common::ShardSweepSpec spec;
  spec.name = "campaign_ensemble";
  spec.total = policies.size() * static_cast<size_t>(config.replicates);
  spec.seed = config.base_seed;
  spec.record = [&](size_t i) -> Result<Bytes> {
    HSIS_ASSIGN_OR_RETURN(core::CampaignCellResult cell,
                          core::RunCampaignEnsembleCell(factory, "alice", "bob",
                                                        policies, config, i));
    return cell_record(cell);
  };

  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  config.threads = 1;
  auto serial =
      core::RunCampaignEnsemble(factory, "alice", "bob", policies, config);
  double serial_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!serial.ok()) {
    std::printf("serial ensemble failed: %s\n",
                serial.status().ToString().c_str());
    return;
  }
  Bytes serial_bytes;
  for (const core::CampaignCellResult& cell : serial->cells) {
    Append(serial_bytes, cell_record(cell));
  }

  std::string dir = (std::filesystem::temp_directory_path() /
                     ("hsis_bench_shards_" + std::to_string(::getpid())))
                        .string();
  auto fail = [&](const Status& status) {
    std::printf("shard lifecycle failed: %s\n", status.ToString().c_str());
    std::filesystem::remove_all(dir);
  };
  if (Status s = CreateDirectories(dir); !s.ok()) return fail(s);
  auto plan = common::ShardPlan::Create(spec.total, shards);
  if (!plan.ok()) return fail(plan.status());
  if (Status s = common::WriteShardPlan(spec, *plan, dir); !s.ok()) {
    return fail(s);
  }

  start = Clock::now();
  common::ShardScheduleSummary summary;
  if (bench::Flags().schedule) {
    auto info = common::ReadShardPlan(dir);
    if (!info.ok()) return fail(info.status());
    common::ShardScheduler scheduler(
        *info, dir, common::MakeRunnerShardExecutor(spec, *plan, dir),
        bench::Flags().schedule_options);
    auto run = scheduler.Run();
    if (!run.ok()) return fail(run.status());
    summary = *std::move(run);
  } else {
    common::ShardRunner runner(spec, *plan);
    for (int k = 0; k < shards; ++k) {
      if (Status s = runner.Run(k, dir); !s.ok()) return fail(s);
    }
  }
  auto merged = common::MergeShards(dir, spec.name);
  double sharded_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!merged.ok()) return fail(merged.status());
  std::filesystem::remove_all(dir);

  std::printf("grid: %zu policies x %d replicates x %d rounds = %zu cells, "
              "%d shards\n\n",
              policies.size(), config.replicates, config.rounds, spec.total,
              shards);
  std::printf("  serial (1 process)        %8.3f s\n", serial_s);
  if (bench::Flags().schedule) {
    std::printf("  scheduled %d shards x %d workers + merge  %8.3f s\n",
                shards, bench::Flags().schedule_options.workers, sharded_s);
    std::printf("  (%d resumed, %d retries, %d quarantined, %d timeouts)\n",
                summary.resumed, summary.retries, summary.quarantined,
                summary.timeouts);
  } else {
    std::printf("  plan + %d shards + merge  %8.3f s\n", shards, sharded_s);
  }
  const bool identical = *merged == serial_bytes;
  std::printf("\nmerged output bit-identical to serial: %s\n",
              bench::Verdict(identical) ? "yes" : "NO — SHARDING VIOLATION");
  if (identical && bench::Flags().schedule) {
    bench::WriteJsonRecord("campaign_ensemble_scheduled",
                           bench::Flags().schedule_options.workers,
                           static_cast<double>(spec.total) / sharded_s,
                           sharded_s * 1e3);
  }
}

void PrintMain() {
  if (bench::Flags().shards > 1) {
    PrintSharded();
  } else if (bench::Flags().speedup) {
    PrintSpeedup();
  } else {
    PrintReproduction();
  }
}

void BM_CriticalDiscount(benchmark::State& state) {
  for (auto _ : state) {
    double d = CriticalDiscount(kB, kF, 20, 0.1, 5);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_CriticalDiscount);

void BM_FrontierSweep(benchmark::State& state) {
  for (auto _ : state) {
    double acc = 0;
    for (int i = 0; i <= 100; ++i) {
      acc += CriticalFrequencyWithPatience(kB, kF, 12, 10, i / 101.0);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetLabel("101-point frontier");
}
BENCHMARK(BM_FrontierSweep);

}  // namespace

HSIS_BENCH_MAIN(PrintMain)
