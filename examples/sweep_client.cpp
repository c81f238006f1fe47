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
// A background thread heartbeats every lease at a third of its
// duration, so slow shards stay alive as long as the worker does; a
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

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>

#include "common/file.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/shard.h"
#include "common/sweep_service.h"
#include "core/sweeps.h"

using namespace hsis;
using namespace hsis::core;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  sweep_client --connect=HOST:PORT --out=DIR [--threads=N]\n"
      "               [--worker=NAME] [--max-idle-ms=T]\n"
      "  sweep_client --connect=HOST:PORT --status\n"
      "  sweep_client --connect=HOST:PORT --shutdown\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

// See the file comment: SIGKILL fault hook for integration drills.
void MaybeDieAtKillMarker(int shard, const std::string& out) {
  const std::string marker = out + "/kill-client-" + std::to_string(shard);
  if (!FileExists(marker)) return;
  (void)std::remove(marker.c_str());
  (void)WriteFile(common::ShardPayloadPath(out, shard), "partial write, no ");
  ::raise(SIGKILL);
}

// Renews one lease at a fixed cadence until released. Failures are
// logged but not fatal: a lost lease only means a duplicate completion
// later, which the daemon resolves idempotently.
class HeartbeatThread {
 public:
  HeartbeatThread(common::SweepServiceClient* client, uint64_t lease_id,
                  int shard, int64_t interval_ms)
      : thread_([=, this] {
          std::unique_lock<std::mutex> lock(mu_);
          for (;;) {
            cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [&] { return done_; });
            if (done_) return;
            lock.unlock();
            auto ack = client->Heartbeat(lease_id, shard);
            if (!ack.ok()) {
              std::fprintf(stderr, "heartbeat for shard %d: %s\n", shard,
                           ack.status().ToString().c_str());
            }
            lock.lock();
          }
        }) {}

  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

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
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--connect=", 10) == 0) {
      // HOST:PORT, split at the last colon.
      const std::string_view endpoint = arg + 10;
      const size_t colon = endpoint.rfind(':');
      if (colon == std::string_view::npos || colon == 0) return Usage();
      host = endpoint.substr(0, colon);
      port = static_cast<int>(common::FlagOrExit(common::ParseIntFlag(
          "--connect port", endpoint.substr(colon + 1), 1, 65535)));
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else if (std::strncmp(arg, "--worker=", 9) == 0) {
      worker = arg + 9;
    } else if (std::strcmp(arg, "--status") == 0) {
      status_mode = true;
    } else if (std::strcmp(arg, "--shutdown") == 0) {
      shutdown_mode = true;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = common::FlagOrExit(common::ParseThreadsValue(arg + 10));
    } else if (std::strncmp(arg, "--max-idle-ms=", 14) == 0) {
      max_idle_ms = common::FlagOrExit(
          common::ParseIntFlag("--max-idle-ms", arg + 14, 0, INT_MAX));
    } else {
      return Usage();
    }
  }
  if (host.empty()) return Usage();
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
  if (out.empty()) return Usage();
  if (worker.empty()) {
    char hostname[256] = "worker";
    (void)::gethostname(hostname, sizeof(hostname) - 1);
    worker = std::string(hostname) + ":" + std::to_string(::getpid());
  }

  auto connected = common::SweepServiceClient::Connect(host, port);
  if (!connected.ok()) return Fail(connected.status());
  common::SweepServiceClient* client = connected->get();

  // The grant frames carry the plan identity; cross-check them against
  // the plan manifest in the shared results directory so a worker
  // pointed at the wrong DIR fails fast instead of committing garbage.
  auto sweep = OpenLandscapeShards(out);
  if (!sweep.ok()) return Fail(sweep.status());
  const common::ShardPlanInfo& info = sweep->plan;

  bool spoke = false;  // one successful RPC means a vanished daemon is
                       // a drained sweep, not an error
  int64_t idle_ms = 0;
  // Transport-level failures (connection gone, timeouts, framing) all
  // carry the "sweepd " message prefix from common/sweep_service.cc;
  // everything else is a daemon-side answer and keeps its taxonomy.
  auto is_transport = [](const Status& s) {
    return s.message().rfind("sweepd ", 0) == 0;
  };
  auto daemon_gone = [&](const Status& s) {
    if (spoke && is_transport(s)) {
      std::printf("worker %s: daemon gone (%s); assuming drained\n",
                  worker.c_str(), s.ToString().c_str());
      return 0;
    }
    return Fail(s);
  };

  for (;;) {
    auto lease = client->RequestLease(worker);
    if (!lease.ok()) return daemon_gone(lease.status());
    spoke = true;

    if (const auto* none = std::get_if<common::SweepNoWork>(&*lease)) {
      if (none->drained != 0) {
        std::printf("worker %s: sweep drained (%u/%u shards)\n",
                    worker.c_str(), none->committed, none->shards);
        return 0;
      }
      idle_ms += static_cast<int64_t>(none->retry_ms);
      if (max_idle_ms > 0 && idle_ms >= max_idle_ms) {
        std::printf("worker %s: idle for %lld ms, giving up\n",
                    worker.c_str(), static_cast<long long>(idle_ms));
        return 0;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(none->retry_ms));
      continue;
    }

    const auto& grant = std::get<common::SweepLeaseGrant>(*lease);
    idle_ms = 0;
    const int shard = static_cast<int>(grant.shard);
    if (grant.sweep != info.sweep || grant.total != info.total ||
        grant.shards != static_cast<uint32_t>(info.shards) ||
        grant.seed != info.seed) {
      return Fail(Status::InvalidArgument(
          "lease grant for sweep '" + grant.sweep +
          "' contradicts the plan in " + out + " (sweep '" + info.sweep +
          "'); is --out the daemon's results directory?"));
    }
    std::printf("worker %s: leased shard %d [%llu, %llu) lease=%llu\n",
                worker.c_str(), shard,
                static_cast<unsigned long long>(grant.begin),
                static_cast<unsigned long long>(grant.end),
                static_cast<unsigned long long>(grant.lease_id));
    MaybeDieAtKillMarker(shard, out);

    Status run;
    {
      int64_t interval =
          std::max<int64_t>(50, static_cast<int64_t>(grant.lease_ms) / 3);
      HeartbeatThread heartbeat(client, grant.lease_id, shard, interval);
      run = sweep->runner.Run(shard, out, threads);
    }

    if (!run.ok()) {
      std::fprintf(stderr, "worker %s: shard %d failed: %s\n",
                   worker.c_str(), shard, run.ToString().c_str());
      auto ack = client->ReportFailure(grant.lease_id, shard,
                                       run.ToString());
      if (!ack.ok()) {
        if (is_transport(ack.status())) return daemon_gone(ack.status());
        // e.g. the lease already expired and was reclaimed — fine.
        std::fprintf(stderr, "worker %s: failure report: %s\n",
                     worker.c_str(), ack.status().ToString().c_str());
      }
      continue;
    }

    auto manifest_text = ReadFile(common::ShardManifestPath(out, shard));
    if (!manifest_text.ok()) return Fail(manifest_text.status());
    auto manifest = common::ParseShardManifest(*manifest_text);
    if (!manifest.ok()) return Fail(manifest.status());

    auto ack = client->Complete(grant.lease_id, shard,
                                manifest->payload_sha256);
    if (!ack.ok()) {
      if (is_transport(ack.status())) return daemon_gone(ack.status());
      // NotFound = claim rejected (wrong --out), InvalidArgument /
      // Internal = the run is dead: all fatal for this worker.
      return Fail(ack.status());
    }
    std::printf("worker %s: shard %d %s (%u/%u committed)\n", worker.c_str(),
                shard, ack->duplicate != 0 ? "duplicate" : "committed",
                ack->committed, ack->shards);
  }
}
