#include "common/sweep_service.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace hsis::common {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

SweepStatusReply StatusReplyOf(const ShardLeaseTable& table) {
  SweepServiceStats s = table.stats();
  SweepStatusReply reply;
  reply.sweep = table.info().sweep;
  reply.shards = static_cast<uint32_t>(s.shards);
  reply.committed = static_cast<uint32_t>(s.committed);
  reply.leased = static_cast<uint32_t>(s.leased);
  reply.pending = static_cast<uint32_t>(s.pending);
  reply.resumed = static_cast<uint32_t>(s.resumed);
  reply.retries = static_cast<uint32_t>(s.retries);
  reply.expired = static_cast<uint32_t>(s.expired);
  reply.quarantined = static_cast<uint32_t>(s.quarantined);
  reply.drained = table.drained() ? 1 : 0;
  return reply;
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

Result<Bytes> ReadSweepFrame(int fd) {
  // Reads exactly n bytes; clean EOF is only legal at the very first
  // byte of the length prefix (between frames).
  auto recv_full = [fd](uint8_t* data, size_t n,
                        bool eof_ok) -> Result<size_t> {
    size_t off = 0;
    while (off < n) {
      ssize_t r = ::recv(fd, data + off, n - off, 0);
      if (r == 0) {
        if (off == 0 && eof_ok) return static_cast<size_t>(0);
        return Status::ProtocolViolation(
            "sweepd connection closed mid-frame");
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return Status::Internal("sweepd receive timed out");
        }
        return Status::Internal(Errno("sweepd recv failed"));
      }
      off += static_cast<size_t>(r);
    }
    return off;
  };

  uint8_t prefix[4];
  HSIS_ASSIGN_OR_RETURN(size_t got, recv_full(prefix, 4, /*eof_ok=*/true));
  if (got == 0) return Status::NotFound("sweepd connection closed");
  Bytes head(prefix, prefix + 4);
  uint32_t len = ReadUint32BE(head, 0);
  if (len == 0) {
    return Status::ProtocolViolation("sweepd frame with zero-length body");
  }
  if (len > kSweepWireMaxFrame) {
    return Status::ProtocolViolation(
        "sweepd frame of " + std::to_string(len) + " bytes exceeds the " +
        std::to_string(kSweepWireMaxFrame) + "-byte cap");
  }
  Bytes body(len);
  HSIS_ASSIGN_OR_RETURN(got, recv_full(body.data(), len, /*eof_ok=*/false));
  return body;
}

Status WriteSweepFrame(int fd, const Bytes& body) {
  if (body.empty() || body.size() > kSweepWireMaxFrame) {
    return Status::Internal("sweepd frame body of " +
                            std::to_string(body.size()) +
                            " bytes cannot be framed");
  }
  Bytes wire;
  wire.reserve(4 + body.size());
  AppendUint32BE(wire, static_cast<uint32_t>(body.size()));
  Append(wire, body);
  size_t off = 0;
  while (off < wire.size()) {
    ssize_t w = ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Internal("sweepd send timed out");
      }
      return Status::Internal(Errno("sweepd send failed"));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SweepService
// ---------------------------------------------------------------------------

struct SweepService::Impl {
  std::string dir;
  SweepServiceOptions options;
  int listen_fd = -1;

  std::mutex mu;  // guards everything below (and the lease table)
  std::condition_variable cv;
  std::optional<ShardLeaseTable> table;
  bool stopping = false;
  bool stopped = false;
  bool shutdown_requested = false;
  std::vector<int> open_fds;
  std::vector<std::thread> handlers;

  std::thread accept_thread;
};

int64_t SweepService::NowMs() const {
  if (impl_->options.now_ms) return impl_->options.now_ms();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<std::unique_ptr<SweepService>> SweepService::Start(
    ShardPlanInfo info, std::string dir, SweepServiceOptions options) {
  // The poll timeout is an int, and a negative one waits forever: the
  // expiry sweep would stall and Stop() would hang on the accept loop.
  if (options.expiry_poll_ms < 1 || options.expiry_poll_ms > INT_MAX) {
    return Status::InvalidArgument(
        "expiry_poll_ms must be in [1, " + std::to_string(INT_MAX) +
        "], got " + std::to_string(options.expiry_poll_ms));
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }

  auto service = std::unique_ptr<SweepService>(new SweepService());
  service->impl_ = std::make_unique<Impl>();
  Impl* impl = service->impl_.get();
  impl->dir = dir;
  impl->options = options;

  HSIS_ASSIGN_OR_RETURN(
      ShardLeaseTable table,
      ShardLeaseTable::Create(std::move(info), std::move(dir), options.lease,
                              options.on_event));
  impl->table.emplace(std::move(table));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("sweepd socket failed"));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("sweepd cannot parse bind address '" +
                                   options.host + "' (use dotted IPv4)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::Internal(Errno("sweepd bind failed"));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    Status s = Status::Internal(Errno("sweepd listen failed"));
    ::close(fd);
    return s;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    Status s = Status::Internal(Errno("sweepd getsockname failed"));
    ::close(fd);
    return s;
  }
  impl->listen_fd = fd;
  service->port_ = ntohs(bound.sin_port);

  impl->accept_thread = std::thread(&SweepService::AcceptLoop, service.get());
  return service;
}

SweepService::~SweepService() {
  if (impl_) Stop();
}

void SweepService::AcceptLoop() {
  Impl* impl = impl_.get();
  for (;;) {
    pollfd pfd{impl->listen_fd, POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(impl->options.expiry_poll_ms));
    {
      std::lock_guard<std::mutex> lock(impl->mu);
      if (impl->stopping) return;
      impl->table->ExpireLeases(NowMs());
      if (impl->table->drained() || !impl->table->run_status().ok()) {
        impl->cv.notify_all();
      }
    }
    if ((pfd.revents & POLLIN) == 0) continue;
    int cfd = ::accept(impl->listen_fd, nullptr, nullptr);
    if (cfd < 0) continue;  // EAGAIN, aborted handshake, or shutdown
    std::lock_guard<std::mutex> lock(impl->mu);
    if (impl->stopping) {
      ::close(cfd);
      return;
    }
    impl->open_fds.push_back(cfd);
    impl->handlers.emplace_back(&SweepService::ServeConnection, this, cfd);
  }
}

void SweepService::ServeConnection(int fd) {
  Impl* impl = impl_.get();
  for (;;) {
    auto body = ReadSweepFrame(fd);
    if (!body.ok()) {
      if (body.status().code() == StatusCode::kProtocolViolation) {
        // Best effort: name the defect before poisoning the connection.
        WriteSweepFrame(
            fd, SerializeSweepFrame(SweepFrame(ToSweepError(body.status()))));
      }
      break;
    }
    auto frame = ParseSweepFrame(*body);
    SweepFrame reply = frame.ok()
                           ? Dispatch(*frame)
                           : SweepFrame(ToSweepError(frame.status()));
    bool poison = false;
    if (const auto* err = std::get_if<SweepErrorReply>(&reply)) {
      poison = err->code ==
               static_cast<uint8_t>(StatusCode::kProtocolViolation);
    }
    if (!WriteSweepFrame(fd, SerializeSweepFrame(reply)).ok()) break;
    if (poison) break;
  }
  std::lock_guard<std::mutex> lock(impl->mu);
  for (auto it = impl->open_fds.begin(); it != impl->open_fds.end(); ++it) {
    if (*it == fd) {
      impl->open_fds.erase(it);
      break;
    }
  }
  ::close(fd);
}

SweepFrame SweepService::Dispatch(const SweepFrame& request) {
  Impl* impl = impl_.get();
  std::lock_guard<std::mutex> lock(impl->mu);
  ShardLeaseTable& table = *impl->table;
  const int64_t now = NowMs();
  const ShardPlanInfo& info = table.info();

  auto error = [](const Status& s) { return SweepFrame(ToSweepError(s)); };
  auto notify_if_done = [&]() {
    if (table.drained() || !table.run_status().ok()) impl->cv.notify_all();
  };

  if (const auto* req = std::get_if<SweepLeaseRequest>(&request)) {
    auto acquired = table.Acquire(req->worker, now);
    notify_if_done();
    if (!acquired.ok()) return error(acquired.status());
    if (const auto* grant = std::get_if<SweepGrant>(&*acquired)) {
      SweepLeaseGrant g;
      g.lease_id = grant->lease_id;
      g.shard = static_cast<uint32_t>(grant->shard);
      g.begin = grant->range.begin;
      g.end = grant->range.end;
      g.lease_ms = static_cast<uint64_t>(impl->options.lease.lease_ms);
      g.sweep = info.sweep;
      g.total = info.total;
      g.shards = static_cast<uint32_t>(info.shards);
      g.seed = info.seed;
      return SweepFrame(g);
    }
    const auto& none = std::get<SweepNoGrant>(*acquired);
    SweepServiceStats s = table.stats();
    SweepNoWork reply;
    reply.drained = none.drained ? 1 : 0;
    reply.retry_ms = static_cast<uint64_t>(none.retry_ms);
    reply.committed = static_cast<uint32_t>(s.committed);
    reply.shards = static_cast<uint32_t>(s.shards);
    return SweepFrame(reply);
  }
  if (const auto* req = std::get_if<SweepHeartbeat>(&request)) {
    auto renewed =
        table.Renew(req->lease_id, static_cast<int>(req->shard), now);
    if (!renewed.ok()) return error(renewed.status());
    return SweepFrame(SweepHeartbeatAck{
        req->lease_id, static_cast<uint64_t>(*renewed)});
  }
  if (const auto* req = std::get_if<SweepComplete>(&request)) {
    auto outcome = table.Complete(req->lease_id, static_cast<int>(req->shard),
                                  req->payload_sha256, now);
    notify_if_done();
    if (!outcome.ok()) return error(outcome.status());
    SweepCompleteAck ack;
    ack.shard = req->shard;
    ack.duplicate = outcome->duplicate ? 1 : 0;
    ack.committed = static_cast<uint32_t>(outcome->committed);
    ack.shards = static_cast<uint32_t>(info.shards);
    return SweepFrame(ack);
  }
  if (const auto* req = std::get_if<SweepFail>(&request)) {
    auto will_retry = table.ReportFailure(
        req->lease_id, static_cast<int>(req->shard), req->message, now);
    notify_if_done();
    if (!will_retry.ok()) return error(will_retry.status());
    return SweepFrame(
        SweepFailAck{req->shard, static_cast<uint8_t>(*will_retry ? 1 : 0)});
  }
  if (std::holds_alternative<SweepStatusRequest>(request)) {
    return SweepFrame(StatusReplyOf(table));
  }
  if (std::holds_alternative<SweepShutdown>(request)) {
    impl->shutdown_requested = true;
    impl->cv.notify_all();
    SweepServiceStats s = table.stats();
    return SweepFrame(SweepShutdownAck{static_cast<uint32_t>(s.committed),
                                       static_cast<uint32_t>(s.shards)});
  }
  return error(Status::ProtocolViolation(
      std::string("unexpected reply-type frame ") +
      SweepFrameTypeName(SweepFrameTypeOf(request)) + " from a client"));
}

bool SweepService::drained() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->table->drained();
}

Status SweepService::run_status() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->table->run_status();
}

SweepStatusReply SweepService::Snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return StatusReplyOf(*impl_->table);
}

std::vector<int> SweepService::Attempts() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->table->attempts();
}

Status SweepService::WaitUntilDone() {
  Impl* impl = impl_.get();
  std::unique_lock<std::mutex> lock(impl->mu);
  impl->cv.wait(lock, [&] {
    return impl->stopping || impl->shutdown_requested ||
           impl->table->drained() || !impl->table->run_status().ok();
  });
  if (!impl->table->run_status().ok()) return impl->table->run_status();
  if (impl->table->drained()) return Status::OK();
  SweepServiceStats s = impl->table->stats();
  return Status::FailedPrecondition(
      std::string(impl->shutdown_requested ? "shutdown requested"
                                           : "service stopped") +
      " with " + std::to_string(s.committed) + " of " +
      std::to_string(s.shards) + " shards committed");
}

void SweepService::Stop() {
  Impl* impl = impl_.get();
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    if (impl->stopped) return;
    impl->stopping = true;
    impl->cv.notify_all();
  }
  if (impl->accept_thread.joinable()) impl->accept_thread.join();
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    for (int fd : impl->open_fds) ::shutdown(fd, SHUT_RDWR);
    handlers.swap(impl->handlers);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  if (impl->listen_fd >= 0) {
    ::close(impl->listen_fd);
    impl->listen_fd = -1;
  }
  std::lock_guard<std::mutex> lock(impl->mu);
  impl->stopped = true;
}

// ---------------------------------------------------------------------------
// SweepServiceClient
// ---------------------------------------------------------------------------

struct SweepServiceClient::Impl {
  int fd = -1;
  std::mutex mu;  // serializes RPCs on the shared connection
};

Result<std::unique_ptr<SweepServiceClient>> SweepServiceClient::Connect(
    const std::string& host, int port, int64_t timeout_ms) {
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("port must be in [1, 65535]");
  }
  if (timeout_ms < 1) {
    return Status::InvalidArgument("timeout_ms must be >= 1");
  }

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &found);
  if (rc != 0 || found == nullptr) {
    return Status::Internal("sweepd cannot resolve '" + host +
                            "': " + ::gai_strerror(rc));
  }

  int fd = -1;
  Status last = Status::Internal("sweepd connect failed: no addresses");
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(Errno("sweepd socket failed"));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Status::Internal("sweepd connect to " + host + ":" +
                            std::to_string(port) +
                            " failed: " + std::strerror(errno));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) return last;

  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto client = std::unique_ptr<SweepServiceClient>(new SweepServiceClient());
  client->impl_ = std::make_unique<Impl>();
  client->impl_->fd = fd;
  return client;
}

SweepServiceClient::~SweepServiceClient() {
  if (impl_ && impl_->fd >= 0) ::close(impl_->fd);
}

namespace {

// One blocking RPC: send the request frame, read exactly one reply
// frame, map `error` replies back to their daemon-side Status.
Result<SweepFrame> RoundTrip(int fd, std::mutex& mu, const SweepFrame& req) {
  std::lock_guard<std::mutex> lock(mu);
  HSIS_RETURN_IF_ERROR(WriteSweepFrame(fd, SerializeSweepFrame(req)));
  auto body = ReadSweepFrame(fd);
  if (!body.ok()) {
    if (body.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("sweepd closed the connection mid-RPC");
    }
    return body.status();
  }
  HSIS_ASSIGN_OR_RETURN(SweepFrame reply, ParseSweepFrame(*body));
  if (const auto* err = std::get_if<SweepErrorReply>(&reply)) {
    return FromSweepError(*err);
  }
  return reply;
}

template <typename T>
Result<T> Expect(Result<SweepFrame> reply, const char* rpc) {
  if (!reply.ok()) return reply.status();
  if (auto* typed = std::get_if<T>(&*reply)) return std::move(*typed);
  return Status::ProtocolViolation(
      std::string("unexpected ") +
      SweepFrameTypeName(SweepFrameTypeOf(*reply)) + " reply to " + rpc);
}

}  // namespace

Result<SweepFrame> SweepServiceClient::RequestLease(const std::string& worker) {
  auto reply = RoundTrip(impl_->fd, impl_->mu,
                         SweepFrame(SweepLeaseRequest{worker}));
  if (!reply.ok() || std::holds_alternative<SweepLeaseGrant>(*reply) ||
      std::holds_alternative<SweepNoWork>(*reply)) {
    return reply;
  }
  return Status::ProtocolViolation(
      std::string("unexpected ") +
      SweepFrameTypeName(SweepFrameTypeOf(*reply)) +
      " reply to lease-request");
}

Result<SweepHeartbeatAck> SweepServiceClient::Heartbeat(uint64_t lease_id,
                                                        int shard) {
  return Expect<SweepHeartbeatAck>(
      RoundTrip(impl_->fd, impl_->mu,
                SweepFrame(SweepHeartbeat{lease_id,
                                          static_cast<uint32_t>(shard)})),
      "heartbeat");
}

Result<SweepCompleteAck> SweepServiceClient::Complete(
    uint64_t lease_id, int shard, const std::string& payload_sha256) {
  SweepComplete req;
  req.lease_id = lease_id;
  req.shard = static_cast<uint32_t>(shard);
  req.payload_sha256 = payload_sha256;
  return Expect<SweepCompleteAck>(
      RoundTrip(impl_->fd, impl_->mu, SweepFrame(req)), "complete");
}

Result<SweepFailAck> SweepServiceClient::ReportFailure(
    uint64_t lease_id, int shard, const std::string& message) {
  SweepFail req;
  req.lease_id = lease_id;
  req.shard = static_cast<uint32_t>(shard);
  req.message = message;
  return Expect<SweepFailAck>(
      RoundTrip(impl_->fd, impl_->mu, SweepFrame(req)), "fail");
}

Result<SweepStatusReply> SweepServiceClient::QueryStatus() {
  return Expect<SweepStatusReply>(
      RoundTrip(impl_->fd, impl_->mu, SweepFrame(SweepStatusRequest{})),
      "status-request");
}

Result<SweepShutdownAck> SweepServiceClient::RequestShutdown() {
  return Expect<SweepShutdownAck>(
      RoundTrip(impl_->fd, impl_->mu, SweepFrame(SweepShutdown{})),
      "shutdown");
}

}  // namespace hsis::common
