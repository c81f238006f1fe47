#include "sovereign/intersection_protocol.h"

#include "crypto/commutative_cipher.h"
#include "sovereign/channel.h"
#include "sovereign/session_core.h"
#include "sovereign/stream_frame.h"

namespace hsis::sovereign {

namespace {

// The legacy whole-set message is exactly a single-chunk element stream
// (sovereign/stream_frame.h): serialization and parsing delegate to the
// shared codec, so the two paths cannot drift apart on the wire.
Bytes SerializeElements(uint8_t tag, const std::vector<U256>& elements) {
  return SerializeFirstFrame(tag, static_cast<uint32_t>(elements.size()),
                             elements);
}

Result<std::vector<U256>> ParseElements(uint8_t expected_tag,
                                        const Bytes& msg) {
  ElementStreamReader reader(expected_tag);
  HSIS_RETURN_IF_ERROR(reader.Consume(msg));
  if (!reader.complete()) {
    return Status::ProtocolViolation("malformed element list");
  }
  return reader.TakeElements();
}

/// Per-party protocol state.
struct Participant {
  Participant(const Dataset& reported, ChannelEndpoint endpoint,
              crypto::CommutativeCipher cipher)
      : data(&reported),
        channel(std::move(endpoint)),
        cipher(std::move(cipher)) {}

  const Dataset* data;
  ChannelEndpoint channel;
  crypto::CommutativeCipher cipher;

  // h(t) per own tuple, aligned with data->tuples().
  std::vector<U256> hashed;
  // E_self(h(t)), aligned with tuples.
  std::vector<U256> self_encrypted;
  // The peer's set after our encryption: {E_self(E_peer(h(peer tuple)))}.
  std::vector<U256> peer_double_encrypted;

  Bytes own_commitment;
  Bytes peer_commitment;
};

Status SendCommitment(Participant& p,
                      const crypto::MultisetHashFamily& family) {
  p.own_commitment = CommitTuples(family, p.data->tuples(), /*threads=*/1);
  Bytes msg;
  msg.push_back(kMsgCommitment);
  Append(msg, p.own_commitment);
  return p.channel.Send(msg);
}

Status ReceiveCommitment(Participant& p) {
  Result<Bytes> msg = p.channel.Receive();
  HSIS_RETURN_IF_ERROR(msg.status());
  if (msg->empty() || (*msg)[0] != kMsgCommitment) {
    return Status::ProtocolViolation("expected commitment message");
  }
  p.peer_commitment.assign(msg->begin() + 1, msg->end());
  return Status::OK();
}

Status SendEncryptedSet(Participant& p, const crypto::PrimeGroup& group,
                        Rng& rng) {
  p.hashed.reserve(p.data->size());
  for (const Tuple& t : p.data->tuples()) {
    p.hashed.push_back(group.HashToElement(t.value));
  }
  p.self_encrypted.resize(p.hashed.size());
  p.cipher.EncryptBatch(p.hashed, p.self_encrypted);
  // Shuffle the transmitted order; we keep our own aligned copy.
  std::vector<U256> shuffled = p.self_encrypted;
  rng.Shuffle(shuffled);
  return p.channel.Send(SerializeElements(kMsgEncryptedSet, shuffled));
}

/// Receives the peer's singly-encrypted set, double-encrypts it, records
/// the double-encrypted multiset locally, and returns it to the peer —
/// paired (v, E(v)) in full mode, shuffled bare values in size-only mode.
/// `faults` (robustness testing) makes this participant deviate.
Status EncryptPeerSet(Participant& p, bool size_only, Rng& rng,
                      const FaultInjection& faults = {}) {
  Result<Bytes> msg = p.channel.Receive();
  HSIS_RETURN_IF_ERROR(msg.status());
  Result<std::vector<U256>> peer_set = ParseElements(kMsgEncryptedSet, *msg);
  HSIS_RETURN_IF_ERROR(peer_set.status());

  p.peer_double_encrypted.resize(peer_set->size());
  p.cipher.EncryptBatch(*peer_set, p.peer_double_encrypted);
  std::vector<U256> reply;
  reply.reserve(peer_set->size() * (size_only ? 1 : 2));
  for (size_t i = 0; i < peer_set->size(); ++i) {
    if (!size_only) reply.push_back((*peer_set)[i]);
    reply.push_back(p.peer_double_encrypted[i]);
  }
  if (size_only) {
    rng.Shuffle(reply);
    return p.channel.Send(SerializeElements(kMsgDoubleEncryptedSet, reply));
  }
  // Fault injection (robustness tests): controlled protocol deviations.
  if (faults.omit_one_reply_pair && reply.size() >= 2) {
    reply.pop_back();
    reply.pop_back();
  }
  if (faults.swap_reply_pairs && reply.size() >= 4) {
    std::swap(reply[1], reply[3]);  // swap the double-encryptions only
  }
  uint8_t tag = faults.wrong_message_type ? kMsgEncryptedSet
                                          : kMsgDoubleEncryptedPairs;
  Bytes wire = SerializeElements(tag, reply);
  if (faults.corrupt_reply_count && reply.size() >= 2) {
    AppendUint32BE(wire, 0);  // garbage length suffix -> malformed frame
  }
  return p.channel.Send(wire);
}

/// Receives the peer's reply about our own set and resolves the
/// intersection.
Status ResolveIntersection(Participant& p, bool size_only,
                           IntersectionOutcome& outcome) {
  Result<Bytes> msg = p.channel.Receive();
  HSIS_RETURN_IF_ERROR(msg.status());

  // Multiset of the peer's tuples under both keys (we computed it).
  ElementMultiset peer(std::move(p.peer_double_encrypted));

  if (size_only) {
    Result<std::vector<U256>> own_dd =
        ParseElements(kMsgDoubleEncryptedSet, *msg);
    HSIS_RETURN_IF_ERROR(own_dd.status());
    if (own_dd->size() != p.data->size()) {
      return Status::ProtocolViolation("double-encrypted set size mismatch");
    }
    size_t matches = 0;
    for (const U256& v : *own_dd) matches += peer.Take(v) ? 1 : 0;
    outcome.intersection_size = matches;
    return Status::OK();
  }

  Result<std::vector<U256>> pairs =
      ParseElements(kMsgDoubleEncryptedPairs, *msg);
  HSIS_RETURN_IF_ERROR(pairs.status());
  if (pairs->size() != p.data->size() * 2) {
    return Status::ProtocolViolation("double-encrypted pair count mismatch");
  }
  HSIS_ASSIGN_OR_RETURN(
      outcome.intersection,
      ResolvePairs(*pairs, p.self_encrypted, p.data->tuples(), peer));
  outcome.intersection_size = outcome.intersection.size();
  return Status::OK();
}

}  // namespace

Status ValidateIntersectionOptions(const IntersectionOptions& options) {
  if (options.chunk_size == 0) {
    return Status::InvalidArgument(
        "IntersectionOptions.chunk_size must be >= 1");
  }
  if (options.pipeline_depth == 0) {
    return Status::InvalidArgument(
        "IntersectionOptions.pipeline_depth must be >= 1 "
        "(1 disables the crypto/wire overlap)");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument(
        "IntersectionOptions.threads must be >= 0 "
        "(0 selects hardware concurrency)");
  }
  return Status::OK();
}

Result<std::pair<IntersectionOutcome, IntersectionOutcome>>
RunTwoPartyIntersection(const Dataset& reported_a, const Dataset& reported_b,
                        const crypto::PrimeGroup& group,
                        const crypto::MultisetHashFamily& commitment_family,
                        Rng& rng, const IntersectionOptions& options) {
  // Session key for the channel (modeled as established out of band).
  Bytes session_key = rng.RandomBytes(32);
  Result<std::pair<ChannelEndpoint, ChannelEndpoint>> channel =
      SecureChannel::CreatePair(session_key, rng);
  HSIS_RETURN_IF_ERROR(channel.status());

  Result<crypto::CommutativeCipher> cipher_a =
      crypto::CommutativeCipher::Create(group, rng);
  HSIS_RETURN_IF_ERROR(cipher_a.status());
  Result<crypto::CommutativeCipher> cipher_b =
      crypto::CommutativeCipher::Create(group, rng);
  HSIS_RETURN_IF_ERROR(cipher_b.status());

  Participant a(reported_a, std::move(channel->first), std::move(*cipher_a));
  Participant b(reported_b, std::move(channel->second), std::move(*cipher_b));

  // Phase 1: commitments (Section 6 — reported alongside the data).
  HSIS_RETURN_IF_ERROR(SendCommitment(a, commitment_family));
  HSIS_RETURN_IF_ERROR(SendCommitment(b, commitment_family));
  HSIS_RETURN_IF_ERROR(ReceiveCommitment(a));
  HSIS_RETURN_IF_ERROR(ReceiveCommitment(b));

  // Phase 2: singly-encrypted sets.
  HSIS_RETURN_IF_ERROR(SendEncryptedSet(a, group, rng));
  HSIS_RETURN_IF_ERROR(SendEncryptedSet(b, group, rng));

  // Phase 3: each double-encrypts the peer's set. Fault injection (if
  // any) applies to party B's reply about A's set.
  HSIS_RETURN_IF_ERROR(EncryptPeerSet(a, options.size_only, rng));
  HSIS_RETURN_IF_ERROR(
      EncryptPeerSet(b, options.size_only, rng, options.fault_injection));
  if (options.fault_injection.corrupt_reply_frame_bit) {
    a.channel.CorruptNextInboundForTest();  // tamper with B's reply in flight
  }

  // Phase 4: resolve.
  IntersectionOutcome out_a, out_b;
  HSIS_RETURN_IF_ERROR(ResolveIntersection(a, options.size_only, out_a));
  HSIS_RETURN_IF_ERROR(ResolveIntersection(b, options.size_only, out_b));

  out_a.own_commitment = a.own_commitment;
  out_a.peer_commitment = a.peer_commitment;
  out_a.bytes_sent = a.channel.bytes_sent();
  out_b.own_commitment = b.own_commitment;
  out_b.peer_commitment = b.peer_commitment;
  out_b.bytes_sent = b.channel.bytes_sent();
  return std::make_pair(std::move(out_a), std::move(out_b));
}

}  // namespace hsis::sovereign
