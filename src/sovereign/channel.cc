#include "sovereign/channel.h"

#include <algorithm>
#include <deque>

#include "common/parallel.h"

namespace hsis::sovereign {

namespace {

using crypto::AuthenticatedCipher;

/// AAD binding direction and sequence number: replayed or reordered
/// ciphertexts fail authentication at the receiver.
Bytes Aad(int from_side, uint64_t seq) {
  Bytes aad;
  aad.push_back(static_cast<uint8_t>(from_side));
  AppendUint64BE(aad, seq);
  return aad;
}

}  // namespace

/// A message on the wire: nonce || ciphertext || tag, or, once opened
/// ahead, nonce || plaintext || tag.
struct ChannelEndpoint::Inbound {
  Bytes bytes;
  bool opened = false;
  uint64_t seq = 0;  // the sequence number it was opened under
};

struct ChannelEndpoint::Shared {
  Shared(AuthenticatedCipher c, Rng r)
      : cipher(std::move(c)), rng(std::move(r)) {}

  AuthenticatedCipher cipher;
  Rng rng;
  // queues[d]: messages travelling toward side d.
  std::deque<Inbound> queues[2];
};

Status ChannelEndpoint::Send(const Bytes& plaintext) {
  const size_t size = plaintext.size();
  return SendMany(
      std::span(&size, 1),
      [&](size_t, std::span<uint8_t> out) {
        std::copy(plaintext.begin(), plaintext.end(), out.begin());
      },
      /*threads=*/1);
}

Status ChannelEndpoint::SendMany(std::span<const size_t> sizes,
                                 const MessageWriter& write, int threads) {
  constexpr size_t kNonce = AuthenticatedCipher::kNonceSize;
  std::vector<Bytes> sealed(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    const Bytes nonce = shared_->rng.RandomBytes(kNonce);
    sealed[i].resize(kNonce + sizes[i] + AuthenticatedCipher::kTagSize);
    std::copy(nonce.begin(), nonce.end(), sealed[i].begin());
  }
  HSIS_RETURN_IF_ERROR(common::ParallelForWithStatus(
      threads, sealed.size(), [&](size_t i) -> Status {
        write(i, std::span(sealed[i]).subspan(kNonce, sizes[i]));
        return shared_->cipher.SealInPlace(sealed[i],
                                           Aad(side_, send_seq_ + i));
      }));
  std::deque<Inbound>& outbox = shared_->queues[1 - side_];
  for (Bytes& message : sealed) {
    bytes_sent_ += message.size();
    outbox.push_back(Inbound{std::move(message)});
  }
  send_seq_ += sealed.size();
  return Status::OK();
}

Result<Bytes> ChannelEndpoint::Receive() {
  std::deque<Inbound>& inbox = shared_->queues[side_];
  if (inbox.empty()) {
    return Status::FailedPrecondition("no message pending on channel");
  }
  Inbound message = std::move(inbox.front());
  inbox.pop_front();
  const AuthenticatedCipher& cipher = shared_->cipher;
  if (message.opened && message.seq != recv_seq_) {
    // Opened ahead under a sequence number an earlier failure has since
    // invalidated: restore the sealed bytes and open one by one.
    HSIS_RETURN_IF_ERROR(
        cipher.SealInPlace(message.bytes, Aad(1 - side_, message.seq)));
    message.opened = false;
  }
  if (!message.opened) {
    HSIS_RETURN_IF_ERROR(
        cipher.OpenInPlace(message.bytes, Aad(1 - side_, recv_seq_)));
  }
  ++recv_seq_;
  // The plaintext stays in the buffer it travelled in.
  Bytes& bytes = message.bytes;
  bytes.resize(bytes.size() - AuthenticatedCipher::kTagSize);
  bytes.erase(bytes.begin(), bytes.begin() + AuthenticatedCipher::kNonceSize);
  return std::move(bytes);
}

void ChannelEndpoint::OpenAhead(int threads) {
  std::deque<Inbound>& inbox = shared_->queues[side_];
  common::ParallelFor(threads, inbox.size(), [&](size_t i) {
    Inbound& message = inbox[i];
    if (message.opened) return;
    message.seq = recv_seq_ + i;
    message.opened =
        shared_->cipher.OpenInPlace(message.bytes, Aad(1 - side_, message.seq))
            .ok();
  });
}

bool ChannelEndpoint::HasPending() const {
  return !shared_->queues[side_].empty();
}

void ChannelEndpoint::CorruptNextInboundForTest() {
  std::deque<Inbound>& inbox = shared_->queues[side_];
  if (inbox.empty()) return;
  Inbound& next = inbox.front();
  if (next.opened) {
    // Resealing an opened message cannot fail: it has nonce and tag.
    (void)shared_->cipher.SealInPlace(next.bytes, Aad(1 - side_, next.seq));
    next.opened = false;
  }
  if (!next.bytes.empty()) next.bytes[next.bytes.size() / 2] ^= 0x40;
}

std::vector<Bytes> ChannelEndpoint::InboundWireForTest() const {
  std::vector<Bytes> wire;
  for (const Inbound& message : shared_->queues[side_]) {
    wire.push_back(message.bytes);
    if (message.opened) {
      (void)shared_->cipher.SealInPlace(wire.back(),
                                        Aad(1 - side_, message.seq));
    }
  }
  return wire;
}

size_t ChannelEndpoint::OpenedInboundForTest() const {
  const std::deque<Inbound>& inbox = shared_->queues[side_];
  return static_cast<size_t>(
      std::count_if(inbox.begin(), inbox.end(),
                    [](const Inbound& message) { return message.opened; }));
}

void ChannelEndpoint::InjectInboundForTest(Bytes wire) {
  shared_->queues[side_].push_back(Inbound{std::move(wire)});
}

Result<std::pair<ChannelEndpoint, ChannelEndpoint>> SecureChannel::CreatePair(
    const Bytes& master_key, Rng& rng) {
  Result<AuthenticatedCipher> cipher = AuthenticatedCipher::Create(master_key);
  HSIS_RETURN_IF_ERROR(cipher.status());
  auto shared = std::make_shared<ChannelEndpoint::Shared>(std::move(*cipher),
                                                          rng.Fork());
  return std::make_pair(ChannelEndpoint(shared, 0), ChannelEndpoint(shared, 1));
}

}  // namespace hsis::sovereign
