#ifndef HSIS_SOVEREIGN_CHANNEL_H_
#define HSIS_SOVEREIGN_CHANNEL_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "common/result.h"
#include "crypto/authenticated_cipher.h"

namespace hsis::sovereign {

/// One end of a bidirectional authenticated-encrypted channel.
///
/// This models the paper's communication requirement: every message
/// between parties (and between parties and the auditing device) travels
/// with "both message privacy and message authenticity". Messages are
/// sealed with the channel's AEAD under a per-direction sequence number
/// carried as associated data, so replay, reorder, and tamper are all
/// detected at `Receive`.
///
/// The transport is an in-process queue (the library simulates the
/// network); the byte counters expose the wire cost for benchmarks.
///
/// Whole streams of messages fan out over the common/parallel.h pool on
/// both ends. `SendMany` draws every nonce on the calling thread, in
/// order, then writes and seals the messages on pool workers straight
/// into buffers the calling thread sized; `ReceivePending` verifies and
/// decrypts every queued inbound message in place on the pool. Neither
/// changes a byte, a sequence number or an `Rng` draw: the wire is that
/// of one-by-one `Send` calls, and `ReceivePending` returns what
/// calling `Receive` until one fails returns.
class ChannelEndpoint {
 public:
  /// Writes the plaintext of message `i` into `out`, which holds exactly
  /// the size declared for it.
  using MessageWriter = std::function<void(size_t i, std::span<uint8_t> out)>;

  /// Encrypts and enqueues `plaintext` for the peer.
  Status Send(const Bytes& plaintext);

  /// Sends `sizes.size()` messages in order, message `i` holding
  /// `sizes[i]` plaintext bytes that `write(i, out)` fills in. The
  /// nonces are drawn from the channel `Rng` on the calling thread, in
  /// order, and each sealed buffer is sized there; `write` and the seal
  /// (under sequence number `send seq + i`) run on up to `threads`
  /// workers (common/parallel.h). The enqueued bytes, `bytes_sent()`
  /// and the `Rng` end state equal `sizes.size()` single `Send`s. On
  /// error nothing is enqueued.
  Status SendMany(std::span<const size_t> sizes, const MessageWriter& write,
                  int threads);

  /// Dequeues, verifies, and decrypts the next message. Fails with
  /// `FailedPrecondition` when no message is pending and
  /// `IntegrityViolation` on any tamper or replay.
  Result<Bytes> Receive();

  /// Drains the inbox: verifies and decrypts every queued message in
  /// place on up to `threads` workers, message `i` under sequence number
  /// `receive seq + i`. Appends to `out` the plaintexts before the first
  /// message that fails, advances the receive sequence by that many and
  /// returns that failure (OK if none); the failed message and every
  /// later one are dropped. That is exactly what calling `Receive` until
  /// one fails returns. An empty inbox appends nothing and returns OK.
  Status ReceivePending(int threads, std::vector<Bytes>& out);

  /// True iff a message is waiting.
  bool HasPending() const;

  /// Total sealed bytes this endpoint has put on the wire.
  size_t bytes_sent() const { return bytes_sent_; }

  /// TEST ONLY: flips one bit of the oldest queued inbound message to
  /// exercise tamper detection end to end.
  void CorruptNextInboundForTest();

  /// TEST ONLY: the queued inbound messages as they travel on the wire
  /// (nonce || ciphertext || tag), oldest first.
  std::vector<Bytes> InboundWireForTest() const;

  /// TEST ONLY: queues `wire` as the next inbound message, exactly as
  /// the network would deliver it — the way tests replay, reorder or
  /// truncate captured messages.
  void InjectInboundForTest(Bytes wire);

 private:
  friend class SecureChannel;

  struct Shared;
  ChannelEndpoint(std::shared_ptr<Shared> shared, int side)
      : shared_(std::move(shared)), side_(side) {}

  std::shared_ptr<Shared> shared_;
  int side_;  // 0 or 1
  uint64_t send_seq_ = 0;
  uint64_t recv_seq_ = 0;
  size_t bytes_sent_ = 0;
};

/// Factory for channel endpoint pairs sharing a session key.
class SecureChannel {
 public:
  /// Creates a connected pair. The 32-byte `master_key` models the
  /// session secret the parties established out of band; `rng` drives
  /// nonce generation.
  static Result<std::pair<ChannelEndpoint, ChannelEndpoint>> CreatePair(
      const Bytes& master_key, Rng& rng);
};

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_CHANNEL_H_
