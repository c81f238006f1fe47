// Lease-pulling worker for the sweep-service daemon (hsis-sweepd-v1,
// common/sweep_service.h): connects to a running `sweep_service`,
// pulls shard leases until the sweep drains, computes each shard with
// the ordinary ShardRunner into the shared results directory, and
// reports completions with the manifest's SHA-256.
//
//   sweep_client --connect=HOST:PORT --out=DIR [--threads=N]
//                [--worker=NAME] [--max-idle-ms=T]
//   sweep_client --connect=HOST:PORT --status
//   sweep_client --connect=HOST:PORT --shutdown
//
// The loop is the library's `common::RunLeaseWorker`; this CLI parses
// flags, prints one line per grant, completion and end, and hooks in
// the kill marker below. A background thread heartbeats every lease at
// a third of its duration, so slow shards stay alive as long as the worker does; a
// worker that dies mid-lease is reclaimed by the daemon at the lease
// deadline and the shard re-granted. The worker exits 0 when the
// daemon reports the sweep drained — or when the daemon vanishes after
// this worker already spoke to it (the daemon exits shortly after the
// merge; racing stragglers are expected).
//
// Deterministic fault injection for integration drills (mirrors
// shard_worker's kill marker): touching `DIR/kill-client-<k>` makes
// the worker holding a lease on shard k consume the marker, leave a
// partial payload behind, and die by SIGKILL mid-lease.

#include <signal.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <variant>

#include "common/file.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/shard.h"
#include "common/sweep_service.h"
#include "core/sweeps.h"

using namespace hsis;
using namespace hsis::core;
using common::Fail;

namespace {

constexpr char kUsage[] =
    "usage:\n"
    "  sweep_client --connect=HOST:PORT --out=DIR [--threads=N]\n"
    "               [--worker=NAME] [--max-idle-ms=T]\n"
    "  sweep_client --connect=HOST:PORT --status\n"
    "  sweep_client --connect=HOST:PORT --shutdown\n";

// See the file comment: SIGKILL fault hook for integration drills.
void MaybeDieAtKillMarker(int shard, const std::string& out) {
  const std::string marker = out + "/kill-client-" + std::to_string(shard);
  if (!FileExists(marker)) return;
  (void)std::remove(marker.c_str());
  (void)WriteFile(common::ShardPayloadPath(out, shard), "partial write, no ");
  ::raise(SIGKILL);
}

int PrintStatus(common::SweepServiceClient* client) {
  auto status = client->QueryStatus();
  if (!status.ok()) return Fail(status.status());
  std::printf(
      "sweep=%s committed=%u/%u leased=%u pending=%u resumed=%u "
      "retries=%u expired=%u quarantined=%u drained=%u\n",
      status->sweep.c_str(), status->committed, status->shards,
      status->leased, status->pending, status->resumed, status->retries,
      status->expired, status->quarantined, status->drained);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool status_mode = false, shutdown_mode = false;
  std::string host, out, worker;
  int port = 0;
  int threads = 1;
  int64_t max_idle_ms = 0;
  // --connect=HOST:PORT, split at the last colon.
  const common::Flag connect = {
      "--connect", true, [&](std::string_view endpoint) -> Status {
        const size_t colon = endpoint.rfind(':');
        if (colon == std::string_view::npos || colon == 0) {
          std::exit(common::PrintUsage(kUsage));  // no HOST:PORT shape
        }
        host = endpoint.substr(0, colon);
        HSIS_ASSIGN_OR_RETURN(
            int64_t parsed,
            common::ParseIntFlag("--connect port", endpoint.substr(colon + 1),
                                 1, 65535));
        port = static_cast<int>(parsed);
        return Status::OK();
      }};
  // The name rides in every lease request: past the wire's string cap
  // the daemon would refuse the frame, so refuse the flag here.
  const common::Flag worker_name = {
      "--worker", true, [&](std::string_view name) -> Status {
        worker = name;
        if (worker.size() <= common::kSweepWireMaxString) return Status::OK();
        return Status::InvalidArgument(
            "--worker expects a name of at most " +
            std::to_string(common::kSweepWireMaxString) + " bytes, got " +
            std::to_string(worker.size()) + " bytes");
      }};
  common::ReadCommandLine(
      argc, argv,
      {connect, worker_name, common::TextFlag("--out", &out),
       common::SwitchFlag("--status", &status_mode),
       common::SwitchFlag("--shutdown", &shutdown_mode),
       common::ThreadsFlag(&threads),
       common::IntFlag("--max-idle-ms", 0, INT_MAX, &max_idle_ms)},
      kUsage);
  if (host.empty()) return common::PrintUsage(kUsage);
  if (status_mode || shutdown_mode) {
    auto client = common::SweepServiceClient::Connect(host, port);
    if (!client.ok()) return Fail(client.status());
    if (status_mode) return PrintStatus(client->get());
    auto ack = (*client)->RequestShutdown();
    if (!ack.ok()) return Fail(ack.status());
    std::printf("shutdown acknowledged: %u/%u shards committed\n",
                ack->committed, ack->shards);
    return 0;
  }
  if (out.empty()) return common::PrintUsage(kUsage);
  if (worker.empty()) {
    char hostname[256] = "worker";
    (void)::gethostname(hostname, sizeof(hostname) - 1);
    worker = std::string(hostname) + ":" + std::to_string(::getpid());
  }

  auto connected = common::SweepServiceClient::Connect(host, port);
  if (!connected.ok()) return Fail(connected.status());

  // The grant frames carry the plan identity; the loop cross-checks
  // them against the plan manifest in the shared results directory so
  // a worker pointed at the wrong DIR fails fast instead of committing
  // garbage.
  auto sweep = OpenLandscapeShards(out);
  if (!sweep.ok()) return Fail(sweep.status());

  common::LeaseWorkerOptions options;
  options.worker = worker;
  options.threads = threads;
  options.max_idle_ms = max_idle_ms;
  auto end = common::RunLeaseWorker(
      **connected, sweep->plan, sweep->runner, out, options,
      [&](const common::SweepFrame& reply) {
        if (const auto* grant = std::get_if<common::SweepLeaseGrant>(&reply)) {
          std::printf("worker %s: leased shard %u [%llu, %llu) lease=%llu\n",
                      worker.c_str(), grant->shard,
                      static_cast<unsigned long long>(grant->begin),
                      static_cast<unsigned long long>(grant->end),
                      static_cast<unsigned long long>(grant->lease_id));
          MaybeDieAtKillMarker(static_cast<int>(grant->shard), out);
        } else if (const auto* ack =
                       std::get_if<common::SweepCompleteAck>(&reply)) {
          std::printf("worker %s: shard %u %s (%u/%u committed)\n",
                      worker.c_str(), ack->shard,
                      ack->duplicate != 0 ? "duplicate" : "committed",
                      ack->committed, ack->shards);
        }
      });
  if (!end.ok()) return Fail(end.status());
  switch (end->kind) {
    case common::LeaseWorkerEnd::Kind::kDrained:
      std::printf("worker %s: sweep drained (%u/%u shards)\n", worker.c_str(),
                  end->notice.committed, end->notice.shards);
      break;
    case common::LeaseWorkerEnd::Kind::kIdle:
      std::printf("worker %s: idle for %lld ms, giving up\n", worker.c_str(),
                  static_cast<long long>(end->idle_ms));
      break;
    case common::LeaseWorkerEnd::Kind::kDaemonGone:
      std::printf("worker %s: daemon gone (%s); assuming drained\n",
                  worker.c_str(), end->transport.ToString().c_str());
      break;
  }
  return 0;
}
