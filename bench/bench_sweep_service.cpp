// Sweep-service daemon overhead (PR 10, common/sweep_service.h).
// The daemon's job is coordination, not computation, so the question
// this bench answers is: what does a lease cost? Two measurements over
// a real daemon on a loopback socket:
//
//  * `status-rpc` — round-trips/sec of the cheapest RPC
//    (status-request → status-reply), the floor for any worker
//    interaction: one frame each way through the strict codec plus one
//    locked snapshot of the lease table.
//  * `lease-drain` — full lease cycles/sec of `RunLeaseWorker`, the
//    one worker loop: grant → ShardRunner commit under a heartbeat
//    thread → SHA-256-checked complete, over a many-shard toy sweep
//    with near-zero compute per shard, so the daemon-side overhead
//    (validate, manifest parse, state transitions, event emission)
//    dominates. This bounds how fine-grained sharding can get before
//    coordination outweighs work.
//
// Both results are also emitted as hsis-bench-v1 records (`--json`,
// the `algo` field distinguishing the two paths; BENCH_10.json is the
// committed artifact).

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/file.h"
#include "common/shard.h"
#include "common/sweep_service.h"

namespace {

using namespace hsis;

constexpr size_t kTotal = 4096;   // toy records in the drained sweep
constexpr int kShards = 128;      // leases granted per drain pass
constexpr int kStatusRpcs = 2000; // status round-trips timed

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

common::ShardSweepSpec ToySpec() {
  common::ShardSweepSpec spec;
  spec.name = "bench_toy";
  spec.total = kTotal;
  spec.seed = 11;
  spec.record = [](size_t i) -> Result<Bytes> {
    return ToBytes(std::string("r").append(std::to_string(i)) + "\n");
  };
  return spec;
}

[[noreturn]] void Die(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(1);
}

void PrintMain() {
  bench::PrintRule("sweep-service daemon: coordination overhead per lease");

  const std::string dir =
      "/tmp/hsis_bench_sweepd." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  if (Status s = CreateDirectories(dir); !s.ok()) Die(s);

  common::ShardSweepSpec spec = ToySpec();
  auto plan = common::ShardPlan::Create(kTotal, kShards);
  if (!plan.ok()) Die(plan.status());
  if (Status s = common::WriteShardPlan(spec, *plan, dir); !s.ok()) Die(s);
  auto info = common::ReadShardPlan(dir);
  if (!info.ok()) Die(info.status());

  common::SweepServiceOptions options;
  options.lease.lease_ms = 60000;
  options.lease.retry_ms = 1;
  auto service = common::SweepService::Start(*info, dir, options);
  if (!service.ok()) Die(service.status());

  auto client = common::SweepServiceClient::Connect("127.0.0.1",
                                                    (*service)->port());
  if (!client.ok()) Die(client.status());

  // Status RPC floor: frame out, frame back, one table snapshot.
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kStatusRpcs; ++i) {
    auto snap = (*client)->QueryStatus();
    if (!snap.ok()) Die(snap.status());
  }
  const double rpc_ms = MsSince(start);
  const double rpc_per_sec = 1000.0 * kStatusRpcs / rpc_ms;
  std::printf("  status-rpc:  %8.1f ms  %10.0f rpc/s  (%d round-trips)\n",
              rpc_ms, rpc_per_sec, kStatusRpcs);

  // Full lease cycles through the library's worker loop: grant -> run
  // under a heartbeat thread -> sha-checked complete, one worker,
  // shards sized so coordination dominates compute.
  common::ShardRunner runner(spec, *plan);
  common::LeaseWorkerOptions worker;
  worker.worker = "bench";
  start = std::chrono::steady_clock::now();
  auto end = common::RunLeaseWorker(**client, *info, runner, dir, worker);
  if (!end.ok()) Die(end.status());
  const double drain_ms = MsSince(start);
  const double leases_per_sec = 1000.0 * kShards / drain_ms;
  std::printf("  lease-drain: %8.1f ms  %10.0f leases/s  (%d shards, %zu "
              "records)\n\n",
              drain_ms, leases_per_sec, kShards, kTotal);

  if (!(*service)->drained()) {
    std::fprintf(stderr, "drain did not complete\n");
    std::exit(1);
  }
  (*service)->Stop();

  // The coordination tax must stay small: merged bytes are pinned
  // byte-identical elsewhere (tests + CI); here we only assert the
  // drain actually exercised every shard.
  auto merged = common::MergeShards(dir, spec.name);
  if (!merged.ok()) Die(merged.status());
  std::printf("  merged %d shards, %zu bytes\n", kShards, merged->size());

  bench::WriteJsonRecordAlgo("sweep_service", 1, "status-rpc", rpc_per_sec,
                             rpc_ms);
  bench::WriteJsonRecordAlgo("sweep_service", 1, "lease-drain",
                             leases_per_sec, drain_ms);

  std::filesystem::remove_all(dir);
}

// google-benchmark micro for the RPC floor: one status round-trip
// against a daemon serving an undrained single-shard plan.
void BM_StatusRpc(benchmark::State& state) {
  const std::string dir =
      "/tmp/hsis_bench_sweepd_bm." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  if (Status s = CreateDirectories(dir); !s.ok()) Die(s);
  common::ShardSweepSpec spec = ToySpec();
  auto plan = common::ShardPlan::Create(kTotal, 1);
  if (!plan.ok()) Die(plan.status());
  if (Status s = common::WriteShardPlan(spec, *plan, dir); !s.ok()) Die(s);
  auto info = common::ReadShardPlan(dir);
  if (!info.ok()) Die(info.status());
  auto service =
      common::SweepService::Start(*info, dir, common::SweepServiceOptions{});
  if (!service.ok()) Die(service.status());
  auto client = common::SweepServiceClient::Connect("127.0.0.1",
                                                    (*service)->port());
  if (!client.ok()) Die(client.status());
  for (auto _ : state) {
    auto snap = (*client)->QueryStatus();
    if (!snap.ok()) Die(snap.status());
    benchmark::DoNotOptimize(snap->committed);
  }
  (*service)->Stop();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StatusRpc);

}  // namespace

HSIS_BENCH_MAIN(PrintMain)
