// The two-party intersection protocol (RunTwoPartyIntersection; its
// contract is in intersection_protocol.h). Every element list travels as
// a chunk-framed stream (sovereign/stream_frame.h), and every per-tuple
// modexp runs through the parallel batch stages of
// crypto/parallel_modexp.h. All randomness is drawn from the session
// `Rng` on the calling thread, never inside a batch stage, which is why
// the transcript is bit-identical at every thread count.

#include "sovereign/intersection_protocol.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/parallel.h"
#include "crypto/commutative_cipher.h"
#include "crypto/parallel_modexp.h"
#include "sovereign/channel.h"
#include "sovereign/session_core.h"
#include "sovereign/stream_frame.h"

namespace hsis::sovereign {

namespace {

/// Per-party protocol state.
struct Participant {
  Participant(const Dataset& reported, ChannelEndpoint endpoint,
              crypto::CommutativeCipher cipher_in)
      : data(&reported),
        channel(std::move(endpoint)),
        cipher(std::move(cipher_in)) {}

  const Dataset* data;
  ChannelEndpoint channel;
  crypto::CommutativeCipher cipher;

  // E_self(h(t)), aligned with data->tuples().
  std::vector<U256> self_encrypted;
  // Multiset {E_self(E_peer(h(peer tuple)))}, accumulated frame by frame.
  std::vector<U256> peer_double_encrypted;

  Bytes own_commitment;
  Bytes peer_commitment;
};

Status SendCommitment(Participant& p, const crypto::MultisetHashFamily& family,
                      int threads) {
  // Tiles hashed on the pool and united in order: equal to the whole-set
  // hash by the multiset hash's incrementality (pinned by
  // tests/sovereign/commitment_stream_property_test.cc).
  p.own_commitment = CommitTuples(family, p.data->tuples(), threads);
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

/// Receives the next frame of an in-flight stream; a drained channel
/// mid-stream is a protocol violation (the peer promised more chunks),
/// and channel-layer errors (tamper -> IntegrityViolation) pass through.
Status ReceiveFrame(ChannelEndpoint& channel, Bytes* frame) {
  if (!channel.HasPending()) {
    return Status::ProtocolViolation("element stream ended early");
  }
  Result<Bytes> msg = channel.Receive();
  HSIS_RETURN_IF_ERROR(msg.status());
  *frame = std::move(*msg);
  return Status::OK();
}

/// Frame `index` of a `total`-element stream of `kind`.
Bytes SerializeFrame(uint8_t kind, size_t index, size_t total,
                     std::span<const U256> elements) {
  return index == 0 ? SerializeFirstFrame(kind, static_cast<uint32_t>(total),
                                          elements)
                    : SerializeContinuationFrame(
                          kind, static_cast<uint32_t>(index), elements);
}

/// Sends a flat element list in frames of `per_frame` elements (at least
/// one frame, even when empty). `corrupt_count` appends a garbage length
/// suffix to the opening frame (fault injection).
Status SendFramed(ChannelEndpoint& channel, uint8_t kind,
                  std::span<const U256> flat, size_t per_frame,
                  bool corrupt_count = false) {
  size_t sent = 0;
  size_t index = 0;
  do {
    const size_t count = std::min(per_frame, flat.size() - sent);
    Bytes wire =
        SerializeFrame(kind, index, flat.size(), flat.subspan(sent, count));
    if (corrupt_count && index == 0) AppendUint32BE(wire, 0);
    HSIS_RETURN_IF_ERROR(channel.Send(wire));
    sent += count;
    ++index;
  } while (sent < flat.size());
  return Status::OK();
}

/// Phase 2: draws the whole-set send order from the session `rng`, then
/// hashes and encrypts the set in that order, frame by frame, through
/// the parallel modexp stage. Frame c carries E(h(t_order[c·k + j])); the
/// results are also scattered into `self_encrypted`, aligned with the
/// tuples, for phase 4.
Status SendEncryptedSet(Participant& p, Rng& rng, size_t chunk_size,
                        int threads) {
  const std::vector<Tuple>& tuples = p.data->tuples();
  const size_t n = tuples.size();
  // Rng::Shuffle makes the same swaps for every element type, so the
  // frames concatenate to exactly the shuffle of the encrypted set.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  rng.Shuffle(order);
  p.self_encrypted.resize(n);
  if (n == 0) {
    return p.channel.Send(SerializeFirstFrame(kMsgEncryptedSet, 0, {}));
  }
  std::vector<U256> frame;
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    const size_t* ids = order.data() + begin;
    frame.resize(std::min(chunk_size, n - begin));
    crypto::HashEncryptBatch(
        p.cipher, frame.size(),
        [&](size_t i) -> const Bytes& { return tuples[ids[i]].value; }, frame,
        threads);
    for (size_t i = 0; i < frame.size(); ++i) {
      p.self_encrypted[ids[i]] = frame[i];
    }
    HSIS_RETURN_IF_ERROR(p.channel.Send(
        SerializeFrame(kMsgEncryptedSet, begin / chunk_size, n, frame)));
  }
  return Status::OK();
}

/// Phase 3: consumes the peer's singly-encrypted stream frame by frame,
/// double-encrypts each window through the parallel batch stage, and
/// records the double-encrypted multiset. The honest full-mode reply —
/// (v, E(v)) pairs — streams back per received frame. The size-only
/// reply is the whole multiset shuffled with the session `rng` once the
/// stream is complete, then framed at `chunk_size`. A faulted full-mode
/// reply (robustness testing) is buffered flat, mutated, and re-framed.
Status EncryptPeerSet(Participant& p, bool size_only, Rng& rng,
                      size_t chunk_size, int threads,
                      const FaultInjection& faults = {}) {
  ElementStreamReader reader(kMsgEncryptedSet);
  const bool stream_reply = !size_only && !faults.AnyActive();
  std::vector<U256> buffered;
  std::vector<U256> pairs;
  size_t frame_no = 0;
  do {
    Bytes frame;
    HSIS_RETURN_IF_ERROR(ReceiveFrame(p.channel, &frame));
    HSIS_RETURN_IF_ERROR(reader.Consume(frame));
    const size_t begin = reader.last_frame_begin();
    const size_t count = reader.elements().size() - begin;
    std::span<const U256> window(reader.elements().data() + begin, count);
    p.peer_double_encrypted.resize(begin + count);
    std::span<U256> dd(p.peer_double_encrypted.data() + begin, count);
    crypto::EncryptBatch(p.cipher, window, dd, threads);
    if (size_only) continue;

    pairs.clear();
    for (size_t i = 0; i < count; ++i) {
      pairs.push_back(window[i]);
      pairs.push_back(dd[i]);
    }
    if (stream_reply) {
      HSIS_RETURN_IF_ERROR(p.channel.Send(SerializeFrame(
          kMsgDoubleEncryptedPairs, frame_no++, reader.total() * size_t{2},
          pairs)));
    } else {
      buffered.insert(buffered.end(), pairs.begin(), pairs.end());
    }
  } while (!reader.complete());

  if (stream_reply) return Status::OK();
  if (size_only) {
    // The reply order is independent of the sender's frames, so the
    // peer learns only the size of the match, not where it lies.
    rng.Shuffle(p.peer_double_encrypted);
    return SendFramed(p.channel, kMsgDoubleEncryptedSet,
                      p.peer_double_encrypted, chunk_size);
  }

  // Fault injection: controlled protocol deviations on the flat list.
  if (faults.omit_one_reply_pair && buffered.size() >= 2) {
    buffered.pop_back();
    buffered.pop_back();
  }
  if (faults.swap_reply_pairs && buffered.size() >= 4) {
    std::swap(buffered[1], buffered[3]);  // swap the double-encryptions only
  }
  const uint8_t kind = faults.wrong_message_type ? kMsgEncryptedSet
                                                 : kMsgDoubleEncryptedPairs;
  return SendFramed(p.channel, kind, buffered, chunk_size * 2,
                    faults.corrupt_reply_count && buffered.size() >= 2);
}

/// Phase 4: consumes the peer's reply stream about our own set and
/// resolves the intersection through sovereign/session_core.h. Size-only
/// replies are matched frame by frame; a pair stream is resolved once it
/// is complete.
Status ResolveIntersection(Participant& p, bool size_only,
                           IntersectionOutcome& outcome) {
  const size_t n = p.data->size();
  // Keyed with our own secret: the peer can predict these values.
  ElementMultiset peer(std::move(p.peer_double_encrypted),
                       DeriveResolveKey(p.cipher.key()));

  if (size_only) {
    ElementStreamReader reader(kMsgDoubleEncryptedSet);
    size_t matches = 0;
    do {
      Bytes frame;
      HSIS_RETURN_IF_ERROR(ReceiveFrame(p.channel, &frame));
      const bool first = !reader.header_seen();
      HSIS_RETURN_IF_ERROR(reader.Consume(frame));
      if (first && reader.total() != n) {
        return Status::ProtocolViolation(
            "double-encrypted set size mismatch");
      }
      for (size_t i = reader.last_frame_begin(); i < reader.elements().size();
           ++i) {
        matches += peer.Take(reader.elements()[i]) ? 1 : 0;
      }
    } while (!reader.complete());
    outcome.intersection_size = matches;
    return Status::OK();
  }

  ElementStreamReader reader(kMsgDoubleEncryptedPairs);
  do {
    Bytes frame;
    HSIS_RETURN_IF_ERROR(ReceiveFrame(p.channel, &frame));
    const bool first = !reader.header_seen();
    HSIS_RETURN_IF_ERROR(reader.Consume(frame));
    if (first && reader.total() != n * 2) {
      return Status::ProtocolViolation(
          "double-encrypted pair count mismatch");
    }
  } while (!reader.complete());
  HSIS_ASSIGN_OR_RETURN(outcome.intersection,
                        ResolvePairs(reader.elements(), p.self_encrypted,
                                     p.data->tuples(), peer));
  outcome.intersection_size = outcome.intersection.size();
  return Status::OK();
}

}  // namespace

Status ValidateIntersectionOptions(const IntersectionOptions& options) {
  if (options.chunk_size == 0) {
    return Status::InvalidArgument(
        "IntersectionOptions.chunk_size must be >= 1");
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
  HSIS_RETURN_IF_ERROR(ValidateIntersectionOptions(options));
  if (reported_a.size() > UINT32_MAX / 2 ||
      reported_b.size() > UINT32_MAX / 2) {
    return Status::InvalidArgument(
        "dataset exceeds the 32-bit element counts of the wire format");
  }
  const int threads = common::ResolveThreadCount(options.threads);
  const size_t chunk = options.chunk_size;

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
  HSIS_RETURN_IF_ERROR(SendCommitment(a, commitment_family, threads));
  HSIS_RETURN_IF_ERROR(SendCommitment(b, commitment_family, threads));
  HSIS_RETURN_IF_ERROR(ReceiveCommitment(a));
  HSIS_RETURN_IF_ERROR(ReceiveCommitment(b));

  // Phase 2: singly-encrypted sets, each in a whole-set send order.
  HSIS_RETURN_IF_ERROR(SendEncryptedSet(a, rng, chunk, threads));
  HSIS_RETURN_IF_ERROR(SendEncryptedSet(b, rng, chunk, threads));

  // Phase 3: each double-encrypts the peer's stream. Fault injection (if
  // any) applies to party B's reply about A's set.
  HSIS_RETURN_IF_ERROR(
      EncryptPeerSet(a, options.size_only, rng, chunk, threads));
  HSIS_RETURN_IF_ERROR(EncryptPeerSet(b, options.size_only, rng, chunk,
                                      threads, options.fault_injection));
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
