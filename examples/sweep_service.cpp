// Sweep-service daemon: serves time-bounded shard leases of one
// landscape sweep to pull-based workers over TCP (hsis-sweepd-v1,
// common/sweep_service.h), then merges the drained directory into the
// serial-identical CSV.
//
//   1. Start the daemon (plans the sweep if DIR has no plan yet):
//        sweep_service --out=DIR --sweep=figure1 --shards=8
//                      [--host=A --port=P] [--lease-ms=T] [--max-retries=R]
//                      [--port-file=FILE] [--events=FILE] [--csv=FILE]
//   2. Point any number of workers at it, on any host that shares DIR:
//        sweep_client --connect=HOST:PORT --out=DIR [--threads=N]
//   3. The daemon exits 0 once every shard is committed and the merged
//      CSV — byte-identical to the serial run — is written.
//
// Restarting the daemon over the same DIR resumes: committed shards
// are never recomputed. --port defaults to 0 (kernel-assigned); the
// bound port is printed and written to --port-file (default
// DIR/sweepd.port) for scripted handshakes. Every lease-table state
// transition is appended to --events (default DIR/events.log). See
// docs/SWEEP_SERVICE.md for the operator runbook and wire contract.

#include <chrono>
#include <climits>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "common/file.h"
#include "common/flags.h"
#include "common/scheduler.h"
#include "common/shard.h"
#include "common/sweep_service.h"
#include "core/sweeps.h"

using namespace hsis;
using namespace hsis::core;
using common::Fail;

namespace {

constexpr char kUsage[] =
    "usage:\n"
    "  sweep_service --out=DIR [--sweep=NAME --shards=K]\n"
    "                [--host=A] [--port=P] [--lease-ms=T]\n"
    "                [--max-retries=R] [--retry-ms=T]\n"
    "                [--port-file=FILE] [--events=FILE] [--csv=FILE]\n"
    "                [--linger-ms=T]\n";

// Serializes event lines from the daemon's service thread onto one
// append-only log (and stdout), flushed per line so a SIGKILLed daemon
// loses at most the line in flight.
class EventLog {
 public:
  ~EventLog() {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "a");
    if (file_ == nullptr) {
      return Status::Internal("cannot open event log " + path);
    }
    return Status::OK();
  }

  void Write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    std::printf("[sweepd] %s\n", line.c_str());
    std::fflush(stdout);
    if (file_ != nullptr) {
      std::fprintf(file_, "%s\n", line.c_str());
      std::fflush(file_);
    }
  }

 private:
  std::mutex mu_;
  FILE* file_ = nullptr;
};

int Merge(const std::string& out, std::string csv_path) {
  auto merged = MergeLandscapeShards(out);
  if (!merged.ok()) return Fail(merged.status());
  const common::ShardPlanInfo& info = merged->plan;
  if (csv_path.empty()) {
    csv_path = out + "/" + FindSweep(info.sweep).value()->filename;
  }
  if (Status s = WriteFile(csv_path, merged->csv); !s.ok()) return Fail(s);
  std::printf("merged %d shards of '%s' -> %s\n", info.shards,
              info.sweep.c_str(), csv_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sweep, out, csv, port_file, events_path;
  int shards = 1;
  int64_t linger_ms = 1000;
  common::SweepServiceOptions options;
  common::ReadCommandLine(
      argc, argv,
      {common::TextFlag("--sweep", &sweep), common::TextFlag("--out", &out),
       common::TextFlag("--csv", &csv),
       common::TextFlag("--host", &options.host),
       common::TextFlag("--port-file", &port_file),
       common::TextFlag("--events", &events_path),
       common::ShardsFlag(&shards),
       common::IntFlag("--port", 0, 65535, &options.port),
       common::IntFlag("--lease-ms", 1, INT_MAX, &options.lease.lease_ms),
       common::IntFlag("--retry-ms", 1, INT_MAX, &options.lease.retry_ms),
       common::IntFlag("--linger-ms", 0, INT_MAX, &linger_ms),
       common::MaxRetriesFlag(&options.lease.max_attempts)},
      kUsage);
  if (out.empty()) return common::PrintUsage(kUsage);

  bool planned = false;
  auto info = ResumeOrPlanLandscapeShards(sweep, shards, out, &planned);
  if (!info.ok()) {
    // A contradicting --sweep, or neither a plan nor a sweep, is usage.
    Fail(info.status());
    return info.status().code() == StatusCode::kInvalidArgument
               ? common::kExitUsage
               : 1;
  }
  if (planned) {
    std::printf("planned sweep '%s': %zu indices in %d shards -> %s\n",
                info->sweep.c_str(), info->total, info->shards,
                common::ShardPlanPath(out).c_str());
  }

  EventLog log;
  if (events_path.empty()) events_path = out + "/events.log";
  if (Status s = log.Open(events_path); !s.ok()) return Fail(s);

  options.on_event = [&log](const std::string& line) { log.Write(line); };

  auto service = common::SweepService::Start(*info, out, options);
  if (!service.ok()) return Fail(service.status());
  std::printf("sweepd serving '%s' (%d shards) on %s:%d\n",
              info->sweep.c_str(), info->shards, options.host.c_str(),
              (*service)->port());
  std::fflush(stdout);
  if (port_file.empty()) port_file = out + "/sweepd.port";
  if (Status s = WriteFile(port_file, std::to_string((*service)->port()));
      !s.ok()) {
    return Fail(s);
  }

  Status done = (*service)->WaitUntilDone();
  if (!done.ok()) {
    // Late pollers still deserve the terminal answer before we vanish.
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
    (*service)->Stop();
    if (done.code() == StatusCode::kFailedPrecondition) {
      std::printf("sweepd: %s\n", done.message().c_str());
      return 0;  // operator-requested shutdown, not a failure
    }
    return Fail(done);
  }

  common::SweepStatusReply snap = (*service)->Snapshot();
  std::printf(
      "drained '%s': %u shards committed (%u resumed, %u retries, "
      "%u expired leases, %u quarantined)\n",
      snap.sweep.c_str(), snap.committed, snap.resumed, snap.retries,
      snap.expired, snap.quarantined);
  int rc = Merge(out, csv);

  // Keep answering "drained" for stragglers, then shut down.
  std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  (*service)->Stop();
  return rc;
}
