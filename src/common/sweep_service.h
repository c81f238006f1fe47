#ifndef HSIS_COMMON_SWEEP_SERVICE_H_
#define HSIS_COMMON_SWEEP_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

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
///  * `SweepService` — the TCP daemon: one service thread polls the
///    listen socket and every connection, runs the periodic expiry
///    sweep on the poll timeout, and dispatches each reassembled frame
///    onto one `ShardLeaseTable`. A mutex still guards the table
///    because the owner thread reads it (`WaitUntilDone`, `Snapshot`).
///  * `SweepServiceClient` — a thread-safe blocking RPC client;
///  * `RunLeaseWorker` — the worker's lease loop over that client, run
///    by the worker CLI (examples/sweep_client.cpp), the tests and the
///    bench harness.
///
/// The merge stays byte-identical to a serial run for the same reason
/// sharded runs are (common/shard.h): records are pure functions of
/// the global index, commits are payload-first / manifest-last with
/// each file renamed into place whole, and duplicate executions of one
/// shard write identical bytes, so even a zombie worker racing its
/// replacement is harmless. The daemon merges with the ordinary
/// `MergeShards` once every shard is committed.
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

/// Connections the daemon serves at once, well below the default
/// 1024-descriptor limit. A connection beyond the cap receives one
/// `FailedPrecondition` error reply naming the cap and is closed.
inline constexpr int kSweepServiceMaxConnections = 128;

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

/// The TCP daemon. `Start` binds, listens, and spawns the one service
/// thread; the owner then blocks on `WaitUntilDone` and finally calls
/// `Stop` (also run by the destructor). All public methods are
/// thread-safe.
///
/// Each connection carries at most one request and one reply at a time:
/// while a reply is unflushed the daemon reads nothing more from that
/// connection. A connection that owes or is owed bytes (a partial
/// request frame, an unflushed reply) and makes no progress for
/// `lease.lease_ms` is closed; an idle connection is never closed, since
/// a worker computing a shard may be silent for a long time.
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

  /// Wire-shaped progress snapshot (same struct the `status` frame
  /// returns).
  SweepStatusReply Snapshot() const;

  /// Blocks until the sweep drains (returns OK), the run fails
  /// (returns the terminal status), a client requests shutdown
  /// (returns FailedPrecondition naming the remaining shards), or
  /// `Stop` is called from another thread (returns the state at that
  /// moment). The listener keeps serving after this returns — late
  /// pollers still receive the drained notice — until `Stop`.
  Status WaitUntilDone();

  /// Stops the service thread within one `expiry_poll_ms` tick, closes
  /// every connection and the listener. Idempotent; concurrent callers
  /// return once the service has stopped.
  void Stop();

 private:
  SweepService() = default;

  /// The service thread: polls the listener and every connection,
  /// expires leases on each tick, until `Stop`.
  void ServeLoop();
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
/// back through `FromSweepError`) or a transport-level status. A
/// transport failure (timeout, reset, EOF, framing) or a
/// `ProtocolViolation` (including a reply of the wrong type) poisons
/// the connection: the client keeps that status and every later RPC
/// returns it without touching the socket, so a late reply is never
/// read as the answer to the next request. A daemon `error` reply does
/// not poison.
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

  /// Reports a failed attempt, releasing the lease early. `message` is
  /// cut to the wire's string cap, `kSweepWireMaxString` bytes.
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

/// True iff `status` is a transport failure of a `SweepServiceClient`
/// RPC (the connection closed, timed out or broke its framing) rather
/// than the daemon's typed answer. Every transport message carries the
/// `"sweepd "` prefix. So does the codec's ProtocolViolation for a
/// request the daemon could not parse, after which it closes the
/// connection; no other daemon rejection does.
bool IsSweepTransportError(const Status& status);

/// The worker CLI's settings (`sweep_client --worker --threads
/// --max-idle-ms`).
struct LeaseWorkerOptions {
  /// Name sent with every lease request.
  std::string worker;
  /// Threads each shard run uses (common/parallel.h knob).
  int threads = 1;
  /// Gives up after this many milliseconds of retry hints without a
  /// grant; 0 waits for as long as the sweep lasts.
  int64_t max_idle_ms = 0;
};

/// How `RunLeaseWorker` ended without an error.
struct LeaseWorkerEnd {
  /// Why the loop stopped.
  enum class Kind {
    kDrained,     ///< The daemon reported every shard committed.
    kIdle,        ///< `max_idle_ms` of retry hints passed without a grant.
    kDaemonGone,  ///< The transport failed after at least one good RPC.
  };
  /// Why this loop stopped.
  Kind kind = Kind::kDrained;
  /// The daemon's last no-work notice (kDrained, kIdle).
  SweepNoWork notice;
  /// Retry hints waited since the last grant (kIdle).
  int64_t idle_ms = 0;
  /// The transport failure read as the daemon's exit (kDaemonGone).
  Status transport;
};

/// The worker half of `hsis-sweepd-v1`, the one lease loop every
/// worker runs. Until it ends, it:
///
///  1. requests a lease as `options.worker`; a no-work notice either
///     ends the loop (drained, or idle past `max_idle_ms`) or sleeps
///     its retry hint;
///  2. cross-checks the grant against `info`, the plan manifest in
///     `dir`: a grant for another sweep, total, shard count or seed
///     is InvalidArgument before anything runs or is written;
///  3. calls `on_reply` with the grant, then runs the shard with
///     `runner` into `dir` while the call's one heartbeat thread
///     renews the lease at a third of its duration (a failed renewal,
///     such as a lost lease, is logged and the run goes on; none is
///     sent once the run has ended);
///  4. reports a failed run with `fail` and goes on, or reads the
///     manifest's payload digest and reports `complete`; each ack is
///     passed to `on_reply`.
///
/// A transport failure after one good RPC is the daemon exiting after
/// its merge, so the loop ends kDaemonGone; before one, it is the
/// error. Every other error is returned: a daemon rejection of
/// `complete` (NotFound for a claim with no files, IntegrityViolation,
/// a failed run), a protocol violation, or a manifest that cannot be
/// read. `client` is shared with the heartbeat thread.
Result<LeaseWorkerEnd> RunLeaseWorker(
    SweepServiceClient& client, const ShardPlanInfo& info,
    const ShardRunner& runner, const std::string& dir,
    const LeaseWorkerOptions& options,
    const std::function<void(const SweepFrame&)>& on_reply = {});

/// Reads exactly one length-prefixed `hsis-sweepd-v1` frame body from
/// connected blocking socket `fd` (the client's reader; the daemon
/// reassembles frames in its poll loop under the same length checks).
/// Errors:
/// NotFound on clean EOF before the first byte, ProtocolViolation on a
/// zero or oversized length prefix or mid-frame EOF, Internal on
/// transport failures (including a receive timeout).
Result<Bytes> ReadSweepFrame(int fd);

/// Writes `body` as one length-prefixed frame to connected socket
/// `fd`. Internal on transport failures.
Status WriteSweepFrame(int fd, const Bytes& body);

}  // namespace hsis::common

#endif  // HSIS_COMMON_SWEEP_SERVICE_H_
