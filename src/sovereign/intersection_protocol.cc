// The two-party intersection protocol (RunTwoPartyIntersection; its
// contract is in intersection_protocol.h). Every element list travels as
// a chunk-framed stream (sovereign/stream_frame.h); every per-tuple
// modexp runs through the parallel batch stages of
// crypto/parallel_modexp.h, and every frame is serialized, sealed and
// opened on the same pool (sovereign/channel.h). The phases run in
// lockstep, so each inbox holds exactly one stream when it is read, and
// each stream is received whole (ReceiveStream). All randomness is drawn
// on the calling thread, never inside a pooled stage, which is why the
// transcript is bit-identical at every thread count.

#include "sovereign/intersection_protocol.h"

#include <algorithm>
#include <numeric>
#include <optional>
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

  // E_self(h(t)), aligned with data->tuples(); h(t) itself between
  // phases 1 and 2 when `hashed`.
  std::vector<U256> self_encrypted;
  bool hashed = false;
  // Multiset {E_self(E_peer(h(peer tuple)))}, in the peer's wire order.
  std::vector<U256> peer_double_encrypted;

  Bytes own_commitment;
  Bytes peer_commitment;
};

/// Phase 1. With a kMu family over the session group, each h(t) the
/// commitment multiplies in is exactly the value phase 2 encrypts, so it
/// is hashed once, into `self_encrypted`, and `hashed` is set.
Status SendCommitment(Participant& p, const crypto::MultisetHashFamily& family,
                      int threads) {
  // Tiles hashed on the pool and united in order: equal to the whole-set
  // hash by the multiset hash's incrementality (pinned by
  // tests/sovereign/commitment_stream_property_test.cc).
  if (SharesTupleHash(family, p.cipher.group())) {
    p.self_encrypted.resize(p.data->size());
    p.own_commitment = CommitAndHashTuples(family, p.data->tuples(),
                                           p.self_encrypted, threads);
    p.hashed = true;
  } else {
    p.own_commitment = CommitTuples(family, p.data->tuples(), threads);
  }
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

/// The one stream receiver: drains `channel` (ReceivePending, opened on
/// `threads` workers) and reads what it delivered as one `kind` stream
/// of elements of `group` (ReadElementStream: headers in wire order,
/// payloads decoded and range-checked on the pool).
Result<ReceivedStream> ReceiveStream(
    ChannelEndpoint& channel, uint8_t kind, const crypto::PrimeGroup& group,
    int threads, std::optional<DeclaredTotal> expected = std::nullopt) {
  std::vector<Bytes> frames;
  const Status received = channel.ReceivePending(threads, frames);
  return ReadElementStream(frames, received, kind, group.modulus(), threads,
                           expected);
}

/// Frame boundaries of a `total`-element stream cut into frames of
/// `per_frame` elements: frame f carries elements [bounds[f],
/// bounds[f + 1]). A stream has at least one frame, even when empty.
std::vector<size_t> FixedFrames(size_t total, size_t per_frame) {
  std::vector<size_t> bounds{0};
  do {
    bounds.push_back(std::min(total, bounds.back() + per_frame));
  } while (bounds.back() < total);
  return bounds;
}

/// The one frame sender: streams `element(0) .. element(total - 1)` as
/// `kind` frames cut at `bounds` (see FixedFrames), each frame
/// serialized straight into its sealed buffer and sealed on `threads`
/// pool workers (ChannelEndpoint::SendMany). `corrupt_count` appends a
/// garbage 4-byte length suffix to the opening frame (fault injection).
template <typename Get>
Status SendStream(ChannelEndpoint& channel, uint8_t kind,
                  const std::vector<size_t>& bounds, const Get& element,
                  int threads, bool corrupt_count = false) {
  constexpr size_t kCorruptSuffix = 4;
  const size_t total = bounds.back();
  std::vector<size_t> sizes(bounds.size() - 1);
  for (size_t f = 0; f < sizes.size(); ++f) {
    sizes[f] = FrameSize(f, bounds[f + 1] - bounds[f]);
  }
  if (corrupt_count) sizes[0] += kCorruptSuffix;
  return channel.SendMany(
      sizes,
      [&](size_t f, std::span<uint8_t> out) {
        const size_t begin = bounds[f];
        const size_t count = bounds[f + 1] - begin;
        const size_t size = FrameSize(f, count);
        WriteFrame(
            kind, f, total, count,
            [&](size_t j) -> const U256& { return element(begin + j); },
            out.first(size));
        std::fill(out.begin() + static_cast<ptrdiff_t>(size), out.end(),
                  uint8_t{0});
      },
      threads);
}

/// Phase 2: draws the whole-set send order from the session `rng`,
/// hashes (unless phase 1 did) and encrypts the set in tuple order into
/// `self_encrypted` (kept for phase 4) through the parallel modexp
/// stage, and streams it in the send order: frame c carries
/// E(h(t_order[c·k + j])).
Status SendEncryptedSet(Participant& p, Rng& rng, size_t chunk_size,
                        int threads) {
  const std::vector<Tuple>& tuples = p.data->tuples();
  const size_t n = tuples.size();
  // Rng::Shuffle makes the same swaps for every element type, so the
  // frames concatenate to exactly the shuffle of the encrypted set.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  rng.Shuffle(order);
  if (p.hashed) {
    crypto::EncryptBatch(p.cipher, p.self_encrypted, p.self_encrypted,
                         threads);
  } else {
    p.self_encrypted.resize(n);
    crypto::HashEncryptBatch(
        p.cipher, n, [&](size_t i) -> const Bytes& { return tuples[i].value; },
        p.self_encrypted, threads);
  }
  return SendStream(
      p.channel, kMsgEncryptedSet, FixedFrames(n, chunk_size),
      [&](size_t i) -> const U256& { return p.self_encrypted[order[i]]; },
      threads);
}

/// Phase 3, first half: receives the peer's singly-encrypted stream
/// whole and double-encrypts it in one parallel batch stage into the
/// multiset {E_self(E_peer(h(peer tuple)))}, in the peer's wire order.
/// Returns the received stream, which the reply pairs up.
Result<ReceivedStream> EncryptPeerSet(Participant& p, int threads) {
  HSIS_ASSIGN_OR_RETURN(ReceivedStream received,
                        ReceiveStream(p.channel, kMsgEncryptedSet,
                                      p.cipher.group(), threads));
  p.peer_double_encrypted.resize(received.elements.size());
  crypto::EncryptBatch(p.cipher, received.elements, p.peer_double_encrypted,
                       threads);
  return received;
}

/// Phase 3, second half: sends the reply about the peer's set; the
/// `received` stream is released once it is sent. The honest full-mode
/// reply — (v, E(v)) pairs — streams back in frames that pair exactly
/// the received frames' elements. The size-only reply is the whole
/// multiset shuffled with the session `rng`, framed at `chunk_size`. A
/// faulted full-mode reply (robustness testing) is built flat, mutated,
/// and framed at `2 * chunk_size`.
Status SendReply(Participant& p, ReceivedStream received, bool size_only,
                 Rng& rng, size_t chunk_size, int threads,
                 const FaultInjection& faults = {}) {
  if (size_only) {
    // The reply order is independent of the sender's frames, so the
    // peer learns only the size of the match, not where it lies.
    rng.Shuffle(p.peer_double_encrypted);
    return SendStream(
        p.channel, kMsgDoubleEncryptedSet,
        FixedFrames(p.peer_double_encrypted.size(), chunk_size),
        [&](size_t i) -> const U256& { return p.peer_double_encrypted[i]; },
        threads);
  }
  const std::vector<U256>& doubled = p.peer_double_encrypted;
  auto pair = [&](size_t i) -> const U256& {
    return i % 2 == 0 ? received.elements[i / 2] : doubled[i / 2];
  };
  if (!faults.AnyActive()) {
    std::vector<size_t> pair_bounds{0};
    for (size_t end : received.frame_ends) pair_bounds.push_back(2 * end);
    return SendStream(p.channel, kMsgDoubleEncryptedPairs, pair_bounds, pair,
                      threads);
  }

  // Fault injection: controlled protocol deviations on the flat list.
  std::vector<U256> flat(received.elements.size() * 2);
  for (size_t i = 0; i < flat.size(); ++i) flat[i] = pair(i);
  if (faults.omit_one_reply_pair && flat.size() >= 2) {
    flat.pop_back();
    flat.pop_back();
  }
  if (faults.swap_reply_pairs && flat.size() >= 4) {
    std::swap(flat[1], flat[3]);  // swap the double-encryptions only
  }
  const uint8_t kind = faults.wrong_message_type ? kMsgEncryptedSet
                                                 : kMsgDoubleEncryptedPairs;
  return SendStream(
      p.channel, kind, FixedFrames(flat.size(), chunk_size * 2),
      [&](size_t i) -> const U256& { return flat[i]; }, threads,
      faults.corrupt_reply_count && flat.size() >= 2);
}

/// Phase 4: receives the peer's reply about our own set whole and
/// resolves the intersection through sovereign/session_core.h, with
/// both keyed tables partitioned over the pool.
Status ResolveIntersection(Participant& p, bool size_only, int threads,
                           IntersectionOutcome& outcome) {
  const size_t n = p.data->size();
  // Keyed with our own secret: the peer can predict these values.
  ElementMultiset peer(std::move(p.peer_double_encrypted),
                       DeriveResolveKey(p.cipher.key()), threads);

  const DeclaredTotal expected =
      size_only ? DeclaredTotal{n, "double-encrypted set size mismatch"}
                : DeclaredTotal{2 * n, "double-encrypted pair count mismatch"};
  HSIS_ASSIGN_OR_RETURN(
      ReceivedStream reply,
      ReceiveStream(p.channel,
                    size_only ? kMsgDoubleEncryptedSet
                              : kMsgDoubleEncryptedPairs,
                    p.cipher.group(), threads, expected));
  if (size_only) {
    outcome.intersection_size = peer.TakeAll(reply.elements, threads);
    return Status::OK();
  }
  HSIS_ASSIGN_OR_RETURN(outcome.intersection,
                        ResolvePairs(reply.elements, p.self_encrypted,
                                     p.data->tuples(), peer, threads));
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

  // Phase 3, in lockstep: both receive and double-encrypt (A, then B),
  // then both reply (A, then B), the order the sets were sent in. Fault
  // injection (if any) applies to party B's reply about A's set.
  HSIS_ASSIGN_OR_RETURN(ReceivedStream at_a, EncryptPeerSet(a, threads));
  HSIS_ASSIGN_OR_RETURN(ReceivedStream at_b, EncryptPeerSet(b, threads));
  HSIS_RETURN_IF_ERROR(SendReply(a, std::move(at_a), options.size_only, rng,
                                 chunk, threads));
  HSIS_RETURN_IF_ERROR(SendReply(b, std::move(at_b), options.size_only, rng,
                                 chunk, threads, options.fault_injection));
  if (options.fault_injection.corrupt_reply_frame_bit) {
    a.channel.CorruptNextInboundForTest();  // tamper with B's reply in flight
  }

  // Phase 4: resolve.
  IntersectionOutcome out_a, out_b;
  HSIS_RETURN_IF_ERROR(
      ResolveIntersection(a, options.size_only, threads, out_a));
  HSIS_RETURN_IF_ERROR(
      ResolveIntersection(b, options.size_only, threads, out_b));

  out_a.own_commitment = a.own_commitment;
  out_a.peer_commitment = a.peer_commitment;
  out_a.bytes_sent = a.channel.bytes_sent();
  out_b.own_commitment = b.own_commitment;
  out_b.peer_commitment = b.peer_commitment;
  out_b.bytes_sent = b.channel.bytes_sent();
  return std::make_pair(std::move(out_a), std::move(out_b));
}

}  // namespace hsis::sovereign
