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

/// Turns an opened message (nonce || plaintext || tag) into its
/// plaintext, in the buffer it travelled in.
void StripSeal(Bytes& message) {
  message.resize(message.size() - AuthenticatedCipher::kTagSize);
  message.erase(message.begin(),
                message.begin() + AuthenticatedCipher::kNonceSize);
}

}  // namespace

struct ChannelEndpoint::Shared {
  Shared(AuthenticatedCipher c, Rng r)
      : cipher(std::move(c)), rng(std::move(r)) {}

  AuthenticatedCipher cipher;
  Rng rng;
  // queues[d]: sealed messages (nonce || ciphertext || tag) travelling
  // toward side d.
  std::deque<Bytes> queues[2];
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
  // Every allocation and nonce on the calling thread; a worker zeroes
  // and first-touches each buffer within the capacity reserved here.
  std::vector<Bytes> sealed(sizes.size());
  std::vector<Bytes> nonces(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    nonces[i] = shared_->rng.RandomBytes(kNonce);
    sealed[i].reserve(kNonce + sizes[i] + AuthenticatedCipher::kTagSize);
  }
  HSIS_RETURN_IF_ERROR(common::ParallelForWithStatus(
      threads, sealed.size(), [&](size_t i) -> Status {
        sealed[i].resize(kNonce + sizes[i] + AuthenticatedCipher::kTagSize);
        std::copy(nonces[i].begin(), nonces[i].end(), sealed[i].begin());
        write(i, std::span(sealed[i]).subspan(kNonce, sizes[i]));
        return shared_->cipher.SealInPlace(sealed[i],
                                           Aad(side_, send_seq_ + i));
      }));
  std::deque<Bytes>& outbox = shared_->queues[1 - side_];
  for (Bytes& message : sealed) {
    bytes_sent_ += message.size();
    outbox.push_back(std::move(message));
  }
  send_seq_ += sealed.size();
  return Status::OK();
}

Result<Bytes> ChannelEndpoint::Receive() {
  std::deque<Bytes>& inbox = shared_->queues[side_];
  if (inbox.empty()) {
    return Status::FailedPrecondition("no message pending on channel");
  }
  Bytes message = std::move(inbox.front());
  inbox.pop_front();
  HSIS_RETURN_IF_ERROR(
      shared_->cipher.OpenInPlace(message, Aad(1 - side_, recv_seq_)));
  ++recv_seq_;
  StripSeal(message);
  return message;
}

Status ChannelEndpoint::ReceivePending(int threads, std::vector<Bytes>& out) {
  std::deque<Bytes>& inbox = shared_->queues[side_];
  std::vector<Status> opened(inbox.size());
  common::ParallelFor(threads, inbox.size(), [&](size_t i) {
    opened[i] =
        shared_->cipher.OpenInPlace(inbox[i], Aad(1 - side_, recv_seq_ + i));
    if (opened[i].ok()) StripSeal(inbox[i]);
  });
  size_t received = 0;
  for (; received < inbox.size() && opened[received].ok(); ++received) {
    out.push_back(std::move(inbox[received]));
  }
  recv_seq_ += received;
  inbox.clear();  // a failed message and everything after it
  return received < opened.size() ? opened[received] : Status::OK();
}

bool ChannelEndpoint::HasPending() const {
  return !shared_->queues[side_].empty();
}

void ChannelEndpoint::CorruptNextInboundForTest() {
  std::deque<Bytes>& inbox = shared_->queues[side_];
  if (!inbox.empty() && !inbox.front().empty()) {
    inbox.front()[inbox.front().size() / 2] ^= 0x40;
  }
}

std::vector<Bytes> ChannelEndpoint::InboundWireForTest() const {
  const std::deque<Bytes>& inbox = shared_->queues[side_];
  return std::vector<Bytes>(inbox.begin(), inbox.end());
}

void ChannelEndpoint::InjectInboundForTest(Bytes wire) {
  shared_->queues[side_].push_back(std::move(wire));
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
