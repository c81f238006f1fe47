#include "common/sweep_service.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"

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

namespace {

// The length checks every reader applies to a frame's u32 prefix, the
// first four bytes of `head`.
Result<uint32_t> SweepFrameLength(const Bytes& head) {
  uint32_t len = ReadUint32BE(head, 0);
  if (len == 0) {
    return Status::ProtocolViolation("sweepd frame with zero-length body");
  }
  if (len > kSweepWireMaxFrame) {
    return Status::ProtocolViolation(
        "sweepd frame of " + std::to_string(len) + " bytes exceeds the " +
        std::to_string(kSweepWireMaxFrame) + "-byte cap");
  }
  return len;
}

Bytes WithLengthPrefix(const Bytes& body) {
  Bytes wire;
  wire.reserve(4 + body.size());
  AppendUint32BE(wire, static_cast<uint32_t>(body.size()));
  Append(wire, body);
  return wire;
}

}  // namespace

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

  Bytes head(4);
  HSIS_ASSIGN_OR_RETURN(size_t got,
                        recv_full(head.data(), 4, /*eof_ok=*/true));
  if (got == 0) return Status::NotFound("sweepd connection closed");
  HSIS_ASSIGN_OR_RETURN(uint32_t len, SweepFrameLength(head));
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
  Bytes wire = WithLengthPrefix(body);
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

namespace {

// One accepted connection, owned by the service thread. It is in one
// of four states: idle (both buffers empty), reading (`in` holds part
// of a request frame), replying (`out` holds an unflushed reply, and
// nothing more is read until it is flushed), or closing (the final
// reply is flushed and the write side shut; input is discarded until
// the peer's EOF, so closing never turns into an RST that destroys
// that reply).
struct Connection {
  int fd = -1;
  Bytes in;               // the request frame being reassembled
  Bytes out;              // the unflushed reply, prefix included
  size_t sent = 0;        // bytes of `out` already written
  bool closing = false;   // `out` is the last reply on this connection
  int64_t progress_ms = 0;  // last read or write (or the accept)

  // True while the connection owes or is owed bytes; only then does
  // the mid-exchange deadline apply.
  bool MidExchange() const { return !in.empty() || !out.empty() || closing; }

  void Close() {
    ::close(fd);
    fd = -1;
  }
};

bool WouldBlock() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

// Writes what the socket takes of the pending reply. Once the reply is
// out, a closing connection shuts its write side (FIN after the reply).
void Flush(Connection& c, int64_t now) {
  while (c.sent < c.out.size()) {
    ssize_t w = ::send(c.fd, c.out.data() + c.sent, c.out.size() - c.sent,
                       MSG_NOSIGNAL);
    if (w < 0) {
      if (!WouldBlock()) c.Close();
      return;
    }
    c.sent += static_cast<size_t>(w);
    c.progress_ms = now;
  }
  c.out.clear();
  c.sent = 0;
  if (c.closing) ::shutdown(c.fd, SHUT_WR);
}

// Queues `reply` as the connection's one reply in flight; a
// ProtocolViolation is the connection's last.
void QueueReply(Connection& c, const SweepFrame& reply, int64_t now) {
  const auto* err = std::get_if<SweepErrorReply>(&reply);
  if (err != nullptr &&
      err->code == static_cast<uint8_t>(StatusCode::kProtocolViolation)) {
    c.closing = true;
  }
  c.out = WithLengthPrefix(SerializeSweepFrame(reply));
  c.sent = 0;
  Flush(c, now);
}

// Reads what the current request frame still lacks, in chunks of at
// most 64 KiB so memory follows the bytes actually received. Returns
// the body once the frame is complete, nullopt while it is not (or
// when the connection closed), and the ProtocolViolation of a bad
// length prefix.
Result<std::optional<Bytes>> ReadFrame(Connection& c, int64_t now) {
  for (;;) {
    size_t want = 4;
    if (c.in.size() >= 4) {
      HSIS_ASSIGN_OR_RETURN(uint32_t len, SweepFrameLength(c.in));
      want += len;
      if (c.in.size() == want) {
        Bytes body(c.in.begin() + 4, c.in.end());
        c.in.clear();
        return std::optional<Bytes>(std::move(body));
      }
    }
    const size_t had = c.in.size();
    c.in.resize(had + std::min<size_t>(want - had, size_t{64} << 10));
    ssize_t r = ::recv(c.fd, c.in.data() + had, c.in.size() - had, 0);
    c.in.resize(had + static_cast<size_t>(r > 0 ? r : 0));
    if (r > 0) {
      c.progress_ms = now;
      continue;
    }
    if (r == 0 || !WouldBlock()) c.Close();  // EOF or transport failure
    return std::optional<Bytes>();
  }
}

}  // namespace

struct SweepService::Impl {
  SweepServiceOptions options;
  int listen_fd = -1;

  std::mutex mu;  // guards everything below (and the lease table)
  std::condition_variable cv;
  std::optional<ShardLeaseTable> table;
  bool stopping = false;
  bool stopped = false;
  bool shutdown_requested = false;

  std::mutex stop_mu;  // serializes `Stop` callers (one joins the thread)
  std::thread service_thread;
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
  // expiry sweep would stall and Stop() would hang on the service loop.
  if (options.expiry_poll_ms < 1 || options.expiry_poll_ms > INT_MAX) {
    return Status::InvalidArgument(
        "expiry_poll_ms must be in [1, " + std::to_string(INT_MAX) +
        "], got " + std::to_string(options.expiry_poll_ms));
  }
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }
  // Parsed before the lease table exists: its startup scan quarantines
  // corrupt shards, and a rejected option must leave the directory as is.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("host must be a dotted IPv4 address, got '" +
                                   options.host + "'");
  }

  auto service = std::unique_ptr<SweepService>(new SweepService());
  service->impl_ = std::make_unique<Impl>();
  Impl* impl = service->impl_.get();
  impl->options = options;

  HSIS_ASSIGN_OR_RETURN(
      ShardLeaseTable table,
      ShardLeaseTable::Create(std::move(info), std::move(dir), options.lease,
                              options.on_event));
  impl->table.emplace(std::move(table));

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal(Errno("sweepd socket failed"));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

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

  impl->service_thread = std::thread(&SweepService::ServeLoop, service.get());
  return service;
}

SweepService::~SweepService() {
  if (impl_) Stop();
}

void SweepService::ServeLoop() {
  Impl* impl = impl_.get();
  const size_t cap = kSweepServiceMaxConnections;
  std::vector<Connection> conns;
  std::vector<pollfd> pfds;
  bool out_of_fds = false;  // accept hit EMFILE/ENFILE: rest one tick
  for (;;) {
    // Over-cap connections linger only to deliver their error reply,
    // so at most 2 * cap descriptors are open; beyond that, new
    // connections wait in the listen backlog.
    pfds.assign(1, pollfd{impl->listen_fd, 0, 0});
    if (conns.size() < 2 * cap && !out_of_fds) pfds[0].events = POLLIN;
    out_of_fds = false;
    for (const Connection& c : conns) {
      const short events = c.out.empty() ? POLLIN : POLLOUT;
      pfds.push_back({c.fd, events, 0});
    }
    ::poll(pfds.data(), pfds.size(),
           static_cast<int>(impl->options.expiry_poll_ms));

    int64_t now;
    {
      std::lock_guard<std::mutex> lock(impl->mu);
      if (impl->stopping) break;
      now = NowMs();
      impl->table->ExpireLeases(now);
      if (impl->table->drained() || !impl->table->run_status().ok()) {
        impl->cv.notify_all();
      }
    }

    for (size_t i = 0; i < conns.size(); ++i) {
      if (pfds[i + 1].revents == 0) continue;
      Connection& c = conns[i];
      if (!c.out.empty()) {
        Flush(c, now);
      } else if (c.closing) {
        uint8_t discard[4096];
        ssize_t r = ::recv(c.fd, discard, sizeof(discard), 0);
        if (r == 0 || (r < 0 && !WouldBlock())) c.Close();
      } else {
        auto body = ReadFrame(c, now);
        if (!body.ok()) {
          QueueReply(c, SweepFrame(ToSweepError(body.status())), now);
        } else if (body->has_value()) {
          auto frame = ParseSweepFrame(**body);
          QueueReply(c,
                     frame.ok() ? Dispatch(*frame)
                                : SweepFrame(ToSweepError(frame.status())),
                     now);
        }
      }
    }

    const int64_t deadline_ms = impl->options.lease.lease_ms;
    std::erase_if(conns, [&](Connection& c) {
      if (c.fd >= 0 && c.MidExchange() && now - c.progress_ms >= deadline_ms) {
        c.Close();
      }
      return c.fd < 0;
    });

    if ((pfds[0].revents & POLLIN) == 0) continue;
    while (conns.size() < 2 * cap) {
      int fd = ::accept4(impl->listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        out_of_fds = errno == EMFILE || errno == ENFILE;
        break;
      }
      Connection c;
      c.fd = fd;
      c.progress_ms = now;
      const size_t served = static_cast<size_t>(std::count_if(
          conns.begin(), conns.end(),
          [](const Connection& o) { return !o.closing; }));
      if (served >= cap) {
        c.closing = true;
        QueueReply(c,
                   SweepFrame(ToSweepError(Status::FailedPrecondition(
                       "connection cap reached: the daemon serves at most " +
                       std::to_string(cap) + " connections at once"))),
                   now);
      }
      if (c.fd >= 0) conns.push_back(std::move(c));
    }
  }
  for (Connection& c : conns) {
    if (c.fd >= 0) c.Close();
  }
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

SweepStatusReply SweepService::Snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return StatusReplyOf(*impl_->table);
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
  std::lock_guard<std::mutex> stop_lock(impl->stop_mu);
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    if (impl->stopped) return;
    impl->stopping = true;
    impl->cv.notify_all();
  }
  if (impl->service_thread.joinable()) impl->service_thread.join();
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
  // The first transport failure or ProtocolViolation on the connection.
  // Once set, the stream may hold a late or partial reply, so every
  // later RPC returns this status without touching the socket.
  Status poisoned;

  // One blocking RPC: send the request frame, read exactly one reply
  // frame, map `error` replies back to their daemon-side Status, and
  // reject any reply whose type is not in `accepted`.
  Result<SweepFrame> RoundTrip(const SweepFrame& req,
                               std::initializer_list<SweepFrameType> accepted,
                               const char* rpc);
};

Result<SweepFrame> SweepServiceClient::Impl::RoundTrip(
    const SweepFrame& req, std::initializer_list<SweepFrameType> accepted,
    const char* rpc) {
  std::lock_guard<std::mutex> lock(mu);
  if (!poisoned.ok()) return poisoned;
  auto exchange = [&]() -> Result<SweepFrame> {
    HSIS_RETURN_IF_ERROR(WriteSweepFrame(fd, SerializeSweepFrame(req)));
    auto body = ReadSweepFrame(fd);
    if (!body.ok()) {
      if (body.status().code() == StatusCode::kNotFound) {
        return Status::NotFound("sweepd closed the connection mid-RPC");
      }
      return body.status();
    }
    HSIS_ASSIGN_OR_RETURN(SweepFrame reply, ParseSweepFrame(*body));
    if (std::holds_alternative<SweepErrorReply>(reply)) return reply;
    const SweepFrameType type = SweepFrameTypeOf(reply);
    if (std::find(accepted.begin(), accepted.end(), type) == accepted.end()) {
      return Status::ProtocolViolation(std::string("unexpected ") +
                                       SweepFrameTypeName(type) +
                                       " reply to " + rpc);
    }
    return reply;
  };
  Result<SweepFrame> reply = exchange();
  if (!reply.ok()) {
    poisoned = reply.status();
    return poisoned;
  }
  // A typed daemon answer: the exchange completed, the stream is intact.
  if (const auto* err = std::get_if<SweepErrorReply>(&*reply)) {
    return FromSweepError(*err);
  }
  return reply;
}

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

template <typename T>
Result<T> Expect(Result<SweepFrame> reply) {
  if (!reply.ok()) return reply.status();
  return std::get<T>(std::move(*reply));
}

}  // namespace

Result<SweepFrame> SweepServiceClient::RequestLease(const std::string& worker) {
  return impl_->RoundTrip(
      SweepFrame(SweepLeaseRequest{worker}),
      {SweepFrameType::kLeaseGrant, SweepFrameType::kNoWork}, "lease-request");
}

Result<SweepHeartbeatAck> SweepServiceClient::Heartbeat(uint64_t lease_id,
                                                        int shard) {
  return Expect<SweepHeartbeatAck>(impl_->RoundTrip(
      SweepFrame(SweepHeartbeat{lease_id, static_cast<uint32_t>(shard)}),
      {SweepFrameType::kHeartbeatAck}, "heartbeat"));
}

Result<SweepCompleteAck> SweepServiceClient::Complete(
    uint64_t lease_id, int shard, const std::string& payload_sha256) {
  SweepComplete req;
  req.lease_id = lease_id;
  req.shard = static_cast<uint32_t>(shard);
  req.payload_sha256 = payload_sha256;
  return Expect<SweepCompleteAck>(impl_->RoundTrip(
      SweepFrame(req), {SweepFrameType::kCompleteAck}, "complete"));
}

Result<SweepFailAck> SweepServiceClient::ReportFailure(
    uint64_t lease_id, int shard, const std::string& message) {
  SweepFail req;
  req.lease_id = lease_id;
  req.shard = static_cast<uint32_t>(shard);
  // The daemon refuses a longer string as a protocol violation and
  // closes the connection, which the worker would read as its exit.
  req.message = message.substr(0, kSweepWireMaxString);
  return Expect<SweepFailAck>(
      impl_->RoundTrip(SweepFrame(req), {SweepFrameType::kFailAck}, "fail"));
}

Result<SweepStatusReply> SweepServiceClient::QueryStatus() {
  return Expect<SweepStatusReply>(
      impl_->RoundTrip(SweepFrame(SweepStatusRequest{}),
                       {SweepFrameType::kStatusReply}, "status-request"));
}

Result<SweepShutdownAck> SweepServiceClient::RequestShutdown() {
  return Expect<SweepShutdownAck>(impl_->RoundTrip(
      SweepFrame(SweepShutdown{}), {SweepFrameType::kShutdownAck},
      "shutdown"));
}

// ---------------------------------------------------------------------------
// The lease worker
// ---------------------------------------------------------------------------

bool IsSweepTransportError(const Status& status) {
  return status.message().rfind("sweepd ", 0) == 0;
}

namespace {

// Renews the lease it is pointed at every third of its duration (at
// least 50 ms), on one thread for the worker's whole run. A failed
// renewal is only logged: a lost lease means at worst a duplicate
// completion, which the daemon resolves idempotently.
class HeartbeatThread {
 public:
  explicit HeartbeatThread(SweepServiceClient& client)
      : thread_([this, &client] {
          std::unique_lock<std::mutex> lock(mu_);
          for (;;) {
            cv_.wait(lock, [this] { return done_ || lease_; });
            if (done_) return;
            const uint64_t id = lease_->lease_id;
            const auto due = std::chrono::milliseconds(std::max<int64_t>(
                50, static_cast<int64_t>(lease_->lease_ms) / 3));
            if (cv_.wait_for(lock, due, [&] {
                  return done_ || !lease_ || lease_->lease_id != id;
                })) {
              continue;  // stopped or moved on before it was due
            }
            // Renewed under the lock, so Renew waits for a renewal in
            // flight: none is sent once the lease's run has ended.
            auto ack = client.Heartbeat(id, static_cast<int>(lease_->shard));
            if (!ack.ok()) {
              HSIS_LOG_WARNING << "heartbeat for shard " << lease_->shard
                               << ": " << ack.status().ToString();
            }
          }
        }) {}

  ~HeartbeatThread() {
    std::unique_lock<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
    lock.unlock();
    thread_.join();
  }

  // Renews `lease` from now on, or nothing for std::nullopt. Returns
  // once no renewal of the lease it replaces is in flight.
  void Renew(std::optional<SweepLeaseGrant> lease) {
    std::lock_guard<std::mutex> lock(mu_);
    lease_ = std::move(lease);
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<SweepLeaseGrant> lease_;  // the lease to renew, if any
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

Result<LeaseWorkerEnd> RunLeaseWorker(
    SweepServiceClient& client, const ShardPlanInfo& info,
    const ShardRunner& runner, const std::string& dir,
    const LeaseWorkerOptions& options,
    const std::function<void(const SweepFrame&)>& on_reply) {
  const std::string& worker = options.worker;
  HeartbeatThread heartbeat(client);
  bool spoke = false;  // one good RPC makes a vanished daemon a drained one
  int64_t idle_ms = 0;
  auto gone_or_error = [&](const Status& s) -> Result<LeaseWorkerEnd> {
    if (!spoke || !IsSweepTransportError(s)) return s;
    LeaseWorkerEnd end;
    end.kind = LeaseWorkerEnd::Kind::kDaemonGone;
    end.transport = s;
    return end;
  };

  for (;;) {
    auto lease = client.RequestLease(worker);
    if (!lease.ok()) return gone_or_error(lease.status());
    spoke = true;

    if (const auto* none = std::get_if<SweepNoWork>(&*lease)) {
      LeaseWorkerEnd end;
      end.notice = *none;
      if (none->drained != 0) return end;
      idle_ms += static_cast<int64_t>(none->retry_ms);
      if (options.max_idle_ms > 0 && idle_ms >= options.max_idle_ms) {
        end.kind = LeaseWorkerEnd::Kind::kIdle;
        end.idle_ms = idle_ms;
        return end;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(none->retry_ms));
      continue;
    }

    const auto& grant = std::get<SweepLeaseGrant>(*lease);
    idle_ms = 0;
    const int shard = static_cast<int>(grant.shard);
    if (grant.sweep != info.sweep || grant.total != info.total ||
        grant.shards != static_cast<uint32_t>(info.shards) ||
        grant.seed != info.seed) {
      return Status::InvalidArgument(
          "lease grant for sweep '" + grant.sweep +
          "' contradicts the plan in " + dir + " (sweep '" + info.sweep +
          "'); is --out the daemon's results directory?");
    }
    if (on_reply) on_reply(*lease);

    heartbeat.Renew(grant);
    ShardManifest manifest;
    const Status run = runner.Run(shard, dir, options.threads, &manifest);
    heartbeat.Renew(std::nullopt);

    if (!run.ok()) {
      HSIS_LOG_WARNING << "worker " << worker << ": shard " << shard
                       << " failed: " << run.ToString();
      auto ack = client.ReportFailure(grant.lease_id, shard, run.ToString());
      if (ack.ok()) {
        if (on_reply) on_reply(SweepFrame(*ack));
      } else if (IsSweepTransportError(ack.status())) {
        return gone_or_error(ack.status());
      } else {
        // e.g. the lease already expired and was reclaimed: fine.
        HSIS_LOG_WARNING << "worker " << worker << ": failure report: "
                         << ack.status().ToString();
      }
      continue;
    }

    auto ack = client.Complete(grant.lease_id, shard, manifest.payload_sha256);
    // NotFound (a claim with no files: the wrong directory),
    // IntegrityViolation and Internal (the run is dead) are all fatal.
    if (!ack.ok()) return gone_or_error(ack.status());
    if (on_reply) on_reply(SweepFrame(*ack));
  }
}

}  // namespace hsis::common
