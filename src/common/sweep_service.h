#ifndef HSIS_COMMON_SWEEP_SERVICE_H_
#define HSIS_COMMON_SWEEP_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/scheduler.h"
#include "common/shard.h"
#include "common/sweep_wire.h"

/// \file
/// \brief The sweep-service daemon: lease-based fan-out of one
/// `ShardPlan` to pull-based workers over TCP.
///
/// The shard scheduler (common/scheduler.h) supervises one run by
/// *pushing* attempts into processes it forked itself — it cannot use
/// workers it did not start. The sweep service inverts control for the
/// multi-machine case: a long-running daemon owns the queue of pending
/// shards, and any number of worker processes — on any host that
/// shares the results directory — *pull* time-bounded shard leases
/// over the `hsis-sweepd-v1` protocol (common/sweep_wire.h), compute
/// the shard with the ordinary `ShardRunner`, and report completion.
/// Workers are disposable: a lease that is neither completed nor
/// heartbeat-renewed by its deadline is reclaimed and the shard
/// re-granted, so a SIGKILLed worker delays the sweep by at most one
/// lease period and never corrupts it.
///
/// Every fault decision lives in `ShardLeaseTable` (common/scheduler.h),
/// the fault policy the in-process scheduler drives too; this header
/// only adds the network around it:
///
///  * `SweepService` — the TCP daemon: accept loop, per-connection
///    handler threads, a periodic expiry sweep, and the frame
///    dispatch, all serialized onto one `ShardLeaseTable` by a mutex.
///  * `SweepServiceClient` — a thread-safe blocking RPC client used by
///    the worker CLI (examples/sweep_client.cpp), the tests, and the
///    bench harness.
///
/// The merge stays byte-identical to a serial run for the same reason
/// sharded runs are (common/shard.h): records are pure functions of
/// the global index, commits are payload-first / manifest-last, and
/// duplicate executions of one shard write identical bytes, so even a
/// zombie worker racing its replacement is harmless. The daemon merges
/// with the ordinary `MergeShards` once every shard is committed.
///
/// \par Usage
/// \code
///   ShardPlanInfo info = ReadShardPlan(dir).value();
///   SweepServiceOptions options;
///   options.lease.lease_ms = 30000;
///   auto service = SweepService::Start(info, dir, options).value();
///   std::printf("listening on port %d\n", service->port());
///   Status done = service->WaitUntilDone();   // drained, failed, or shutdown
///   service->Stop();
///   if (done.ok()) {
///     Bytes merged = MergeShards(dir, info.sweep).value();  // == serial
///   }
/// \endcode

namespace hsis::common {

/// Daemon configuration.
struct SweepServiceOptions {
  /// Interface to bind; loopback by default — bind a routable address
  /// explicitly when workers live on other hosts.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read it back
  /// via `SweepService::port`).
  int port = 0;
  /// Lease policy forwarded to the `ShardLeaseTable`.
  SweepLeaseOptions lease;
  /// Cadence of the daemon's own expiry sweep in milliseconds, the
  /// upper bound on lease-reclaim latency when no requests arrive.
  /// Must be in [1, INT_MAX] (the `poll` timeout).
  int64_t expiry_poll_ms = 50;
  /// Clock override for tests (monotonic milliseconds); defaults to
  /// `std::chrono::steady_clock`.
  std::function<int64_t()> now_ms;
  /// Optional sink for one-line state-transition events.
  std::function<void(const std::string&)> on_event;
};

/// The TCP daemon. `Start` binds, listens, and spawns the accept loop;
/// the owner then blocks on `WaitUntilDone` and finally calls `Stop`
/// (also run by the destructor). All public methods are thread-safe.
class SweepService {
 public:
  /// Binds `options.host:options.port`, scans `dir` for resumable
  /// shards (the `ShardLeaseTable::Create` contract), and starts
  /// serving. Errors: InvalidArgument for bad options or a directory
  /// contradicting the plan, Internal for socket failures.
  static Result<std::unique_ptr<SweepService>> Start(
      ShardPlanInfo info, std::string dir, SweepServiceOptions options);

  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// The bound TCP port (resolves ephemeral port 0 requests).
  int port() const { return port_; }

  /// True once every shard is committed.
  bool drained() const;

  /// The lease table's run status: OK while healthy, the terminal
  /// error once the run has failed.
  Status run_status() const;

  /// Wire-shaped progress snapshot (same struct the `status` frame
  /// returns).
  SweepStatusReply Snapshot() const;

  /// Per-shard grant counts, for the drain summary.
  std::vector<int> Attempts() const;

  /// Blocks until the sweep drains (returns OK), the run fails
  /// (returns the terminal status), a client requests shutdown
  /// (returns FailedPrecondition naming the remaining shards), or
  /// `Stop` is called from another thread (returns the state at that
  /// moment). The listener keeps serving after this returns — late
  /// pollers still receive the drained notice — until `Stop`.
  Status WaitUntilDone();

  /// Shuts the listener down, unblocks every connection, and joins
  /// all service threads. Idempotent.
  void Stop();

 private:
  SweepService() = default;

  void AcceptLoop();
  void ServeConnection(int fd);
  /// Dispatches one parsed request frame under the table mutex and
  /// returns the reply frame.
  SweepFrame Dispatch(const SweepFrame& request);
  int64_t NowMs() const;

  struct Impl;
  std::unique_ptr<Impl> impl_;
  int port_ = 0;
};

/// Blocking RPC client for the daemon. One instance holds one TCP
/// connection; calls are serialized by an internal mutex so a
/// heartbeat thread can share the instance with the worker loop.
/// Every RPC returns the daemon's typed error (`error` frame mapped
/// back through `FromSweepError`) or a transport-level Internal
/// status; a `ProtocolViolation` from either side poisons the
/// connection.
class SweepServiceClient {
 public:
  /// Connects to `host:port` with `timeout_ms` applied to every
  /// subsequent send and receive.
  static Result<std::unique_ptr<SweepServiceClient>> Connect(
      const std::string& host, int port, int64_t timeout_ms = 10000);

  ~SweepServiceClient();

  SweepServiceClient(const SweepServiceClient&) = delete;
  SweepServiceClient& operator=(const SweepServiceClient&) = delete;

  /// Requests the next lease for `worker`. The reply holds either a
  /// `SweepLeaseGrant` or the daemon's `SweepNoWork` notice; any other
  /// reply type is a `ProtocolViolation`.
  Result<SweepFrame> RequestLease(const std::string& worker);

  /// Renews a held lease; the ack carries the fresh duration.
  Result<SweepHeartbeatAck> Heartbeat(uint64_t lease_id, int shard);

  /// Reports a committed shard with its manifest digest.
  Result<SweepCompleteAck> Complete(uint64_t lease_id, int shard,
                                    const std::string& payload_sha256);

  /// Reports a failed attempt, releasing the lease early.
  Result<SweepFailAck> ReportFailure(uint64_t lease_id, int shard,
                                     const std::string& message);

  /// Fetches the daemon's progress snapshot.
  Result<SweepStatusReply> QueryStatus();

  /// Asks the daemon to stop serving.
  Result<SweepShutdownAck> RequestShutdown();

 private:
  SweepServiceClient() = default;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Reads exactly one length-prefixed `hsis-sweepd-v1` frame body from
/// connected socket `fd` (both daemon and client use this). Errors:
/// NotFound on clean EOF before the first byte, ProtocolViolation on a
/// zero or oversized length prefix or mid-frame EOF, Internal on
/// transport failures (including a receive timeout).
Result<Bytes> ReadSweepFrame(int fd);

/// Writes `body` as one length-prefixed frame to connected socket
/// `fd`. Internal on transport failures.
Status WriteSweepFrame(int fd, const Bytes& body);

}  // namespace hsis::common

#endif  // HSIS_COMMON_SWEEP_SERVICE_H_
