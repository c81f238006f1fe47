// The streamed/batched two-party intersection pipeline
// (RunTwoPartyIntersectionStreamed, declared in intersection_protocol.h).
//
// Same protocol, same four phases, but every element list travels as a
// chunk-framed stream (sovereign/stream_frame.h) and every per-tuple
// modexp runs through the parallel batch stages of
// crypto/parallel_modexp.h. Shuffles draw from per-chunk
// `Rng::ForIndex` streams — a pure function of (seed, party, phase,
// chunk index) — so the wire transcript is bit-identical at every
// thread count, and the outcome is bit-identical to the legacy
// whole-set path at every chunk size (the differential contract of
// tests/sovereign/streamed_protocol_test.cc).

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <thread>

#include "common/parallel.h"
#include "crypto/commutative_cipher.h"
#include "crypto/parallel_modexp.h"
#include "sovereign/channel.h"
#include "sovereign/intersection_protocol.h"
#include "sovereign/session_core.h"
#include "sovereign/stream_frame.h"

namespace hsis::sovereign {

namespace {

// Shuffle-stream namespaces: Rng::ForIndex(seed, (purpose << 32) | chunk)
// gives every (party, phase, chunk) triple an independent deterministic
// stream, so frame-local shuffles never depend on thread count or on
// each other.
constexpr uint64_t kShuffleSendA = 0;
constexpr uint64_t kShuffleSendB = 1;
constexpr uint64_t kShuffleReplyA = 2;
constexpr uint64_t kShuffleReplyB = 3;

Rng ChunkRng(uint64_t seed, uint64_t purpose, uint64_t chunk) {
  return Rng::ForIndex(seed, (purpose << 32) | chunk);
}

/// Per-party pipeline state.
struct StreamParticipant {
  StreamParticipant(const Dataset& reported, ChannelEndpoint endpoint,
                    crypto::CommutativeCipher cipher_in, size_t chunk_size)
      : data(&reported),
        source(reported, chunk_size),
        channel(std::move(endpoint)),
        cipher(std::move(cipher_in)) {}

  const Dataset* data;
  DatasetSource source;
  ChannelEndpoint channel;
  crypto::CommutativeCipher cipher;

  // E_self(h(t)), aligned with data->tuples().
  std::vector<U256> self_encrypted;
  // Multiset {E_self(E_peer(h(peer tuple)))}, accumulated frame by frame.
  std::vector<U256> peer_double_encrypted;

  Bytes own_commitment;
  Bytes peer_commitment;
};

Status SendCommitmentStreamed(StreamParticipant& p,
                              const crypto::MultisetHashFamily& family,
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

Status ReceiveCommitmentStreamed(StreamParticipant& p) {
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

/// The crypto stage for one chunk of phase 2: hash + encrypt through
/// the parallel modexp stage into the participant's aligned
/// `self_encrypted` slots, shuffle a frame-local copy, serialize. Pure
/// function of (chunk index, seed, purpose) given the dataset and
/// cipher, which is why the pipelined and serial schedules below emit
/// identical wire bytes.
Bytes BuildEncryptedFrame(StreamParticipant& p, size_t c, int threads,
                          uint64_t seed, uint64_t purpose) {
  std::span<const Tuple> tuples = p.source.Chunk(c);
  std::span<U256> slots(p.self_encrypted.data() + c * p.source.chunk_size(),
                        tuples.size());
  crypto::HashEncryptBatch(
      p.cipher, tuples.size(),
      [tuples](size_t i) -> const Bytes& { return tuples[i].value; }, slots,
      threads);
  std::vector<U256> frame(slots.begin(), slots.end());
  Rng shuffle_rng = ChunkRng(seed, purpose, c);
  shuffle_rng.Shuffle(frame);
  return c == 0 ? SerializeFirstFrame(kMsgEncryptedSet,
                                      static_cast<uint32_t>(p.source.total()),
                                      frame)
                : SerializeContinuationFrame(kMsgEncryptedSet,
                                             static_cast<uint32_t>(c), frame);
}

/// Phase 2, send side: hash + encrypt each chunk through the parallel
/// modexp stage, shuffle it frame-locally, ship it. The aligned
/// `self_encrypted` copy is kept for phase 4.
///
/// With `depth` >= 2 the crypto stage runs on a producer thread that
/// stays up to `depth` finished frames ahead, so the ParallelFor modexp
/// workers for chunk k+1 overlap the AEAD seal + channel transfer of
/// chunk k on the caller thread. The hand-off is a bounded in-order
/// queue: frames enter in chunk order, the caller seals and sends them
/// in chunk order, so the transcript is byte-identical to the serial
/// schedule (`depth` only bounds how far the producer may run ahead).
Status SendEncryptedSetStreamed(StreamParticipant& p, int threads,
                                uint64_t seed, uint64_t purpose,
                                size_t depth) {
  const size_t n = p.source.total();
  p.self_encrypted.resize(n);
  const size_t chunks = p.source.chunk_count();
  if (chunks == 0) {
    return p.channel.Send(SerializeFirstFrame(
        kMsgEncryptedSet, 0, std::vector<U256>()));
  }
  if (depth <= 1 || chunks == 1) {
    for (size_t c = 0; c < chunks; ++c) {
      HSIS_RETURN_IF_ERROR(
          p.channel.Send(BuildEncryptedFrame(p, c, threads, seed, purpose)));
    }
    return Status::OK();
  }

  std::mutex mu;
  std::condition_variable room_freed;   // consumer -> producer
  std::condition_variable frame_ready;  // producer -> consumer
  std::deque<Bytes> ready;              // finished frames, chunk order
  bool abort = false;                   // consumer hit a send error

  std::thread producer([&] {
    for (size_t c = 0; c < chunks; ++c) {
      Bytes frame = BuildEncryptedFrame(p, c, threads, seed, purpose);
      std::unique_lock<std::mutex> lock(mu);
      room_freed.wait(lock, [&] { return ready.size() < depth || abort; });
      if (abort) return;
      ready.push_back(std::move(frame));
      frame_ready.notify_one();
    }
  });

  Status status = Status::OK();
  for (size_t c = 0; c < chunks; ++c) {
    Bytes wire;
    {
      std::unique_lock<std::mutex> lock(mu);
      frame_ready.wait(lock, [&] { return !ready.empty(); });
      wire = std::move(ready.front());
      ready.pop_front();
      room_freed.notify_one();
    }
    status = p.channel.Send(wire);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      abort = true;
      room_freed.notify_one();
      break;
    }
  }
  // The join is also the memory barrier that publishes the producer's
  // `self_encrypted` writes to the caller before phase 4 reads them.
  producer.join();
  return status;
}

/// Phase 3: consumes the peer's singly-encrypted stream frame by frame,
/// double-encrypts each window through the parallel batch stage, records
/// the double-encrypted multiset, and streams the reply back — (v, E(v))
/// pairs in full mode, frame-locally shuffled bare values in size-only
/// mode. `faults` (robustness testing) makes this participant deviate:
/// the faulted reply is buffered flat, mutated with the legacy path's
/// exact semantics, and re-framed.
Status EncryptPeerSetStreamed(StreamParticipant& p, bool size_only,
                              int threads, size_t chunk_size, uint64_t seed,
                              uint64_t reply_purpose,
                              const FaultInjection& faults = {}) {
  ElementStreamReader reader(kMsgEncryptedSet);
  const bool buffer_reply = !size_only && faults.AnyActive();
  std::vector<U256> buffered;
  uint64_t frame_no = 0;
  do {
    Bytes frame;
    HSIS_RETURN_IF_ERROR(ReceiveFrame(p.channel, &frame));
    HSIS_RETURN_IF_ERROR(reader.Consume(frame));
    const size_t begin = reader.last_frame_begin();
    const size_t count = reader.elements().size() - begin;
    std::span<const U256> window(reader.elements().data() + begin, count);
    std::vector<U256> dd(count);
    crypto::EncryptBatch(p.cipher, window, dd, threads);
    p.peer_double_encrypted.insert(p.peer_double_encrypted.end(), dd.begin(),
                                   dd.end());

    std::vector<U256> reply;
    if (size_only) {
      reply = dd;
      Rng shuffle_rng = ChunkRng(seed, reply_purpose, frame_no);
      shuffle_rng.Shuffle(reply);
    } else {
      reply.reserve(count * 2);
      for (size_t i = 0; i < count; ++i) {
        reply.push_back(window[i]);
        reply.push_back(dd[i]);
      }
    }
    if (buffer_reply) {
      buffered.insert(buffered.end(), reply.begin(), reply.end());
    } else {
      const uint32_t reply_total = static_cast<uint32_t>(
          size_only ? reader.total() : reader.total() * 2);
      Bytes wire =
          frame_no == 0
              ? SerializeFirstFrame(size_only ? kMsgDoubleEncryptedSet
                                              : kMsgDoubleEncryptedPairs,
                                    reply_total, reply)
              : SerializeContinuationFrame(
                    size_only ? kMsgDoubleEncryptedSet
                              : kMsgDoubleEncryptedPairs,
                    static_cast<uint32_t>(frame_no), reply);
      HSIS_RETURN_IF_ERROR(p.channel.Send(wire));
    }
    ++frame_no;
  } while (!reader.complete());

  if (!buffer_reply) return Status::OK();

  // Fault injection, legacy semantics on the flat pair list.
  if (faults.omit_one_reply_pair && buffered.size() >= 2) {
    buffered.pop_back();
    buffered.pop_back();
  }
  if (faults.swap_reply_pairs && buffered.size() >= 4) {
    std::swap(buffered[1], buffered[3]);  // swap the double-encryptions only
  }
  const uint8_t tag = faults.wrong_message_type ? kMsgEncryptedSet
                                                : kMsgDoubleEncryptedPairs;
  const size_t per_frame = chunk_size * 2;  // whole pairs per frame
  uint32_t index = 0;
  size_t sent = 0;
  do {
    const size_t count = std::min(per_frame, buffered.size() - sent);
    std::vector<U256> frame(buffered.begin() + static_cast<ptrdiff_t>(sent),
                            buffered.begin() +
                                static_cast<ptrdiff_t>(sent + count));
    Bytes wire =
        index == 0
            ? SerializeFirstFrame(tag, static_cast<uint32_t>(buffered.size()),
                                  frame)
            : SerializeContinuationFrame(tag, index, frame);
    if (faults.corrupt_reply_count && index == 0 && buffered.size() >= 2) {
      AppendUint32BE(wire, 0);  // garbage length suffix -> malformed frame
    }
    HSIS_RETURN_IF_ERROR(p.channel.Send(wire));
    sent += count;
    ++index;
  } while (sent < buffered.size());
  return Status::OK();
}

/// Phase 4: consumes the peer's reply stream about our own set and
/// resolves the intersection through the legacy resolve's helpers
/// (sovereign/session_core.h), so the matching rule and error taxonomy
/// are the same. Size-only replies are matched frame by frame; a pair
/// stream is resolved once it is complete.
Status ResolveIntersectionStreamed(StreamParticipant& p, bool size_only,
                                   IntersectionOutcome& outcome) {
  const size_t n = p.data->size();
  ElementMultiset peer(std::move(p.peer_double_encrypted));

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

Result<std::pair<IntersectionOutcome, IntersectionOutcome>>
RunTwoPartyIntersectionStreamed(
    const Dataset& reported_a, const Dataset& reported_b,
    const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family, Rng& rng,
    const IntersectionOptions& options) {
  HSIS_RETURN_IF_ERROR(ValidateIntersectionOptions(options));
  if (reported_a.size() > UINT32_MAX / 2 ||
      reported_b.size() > UINT32_MAX / 2) {
    return Status::InvalidArgument(
        "dataset exceeds the 32-bit element counts of the wire format");
  }
  const int threads = common::ResolveThreadCount(options.threads);

  // Session setup: the same shared-stream draw order as the legacy path.
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
  // One seed spawns every frame-local shuffle stream (see ChunkRng).
  const uint64_t shuffle_seed = rng.NextUint64();

  StreamParticipant a(reported_a, std::move(channel->first),
                      std::move(*cipher_a), options.chunk_size);
  StreamParticipant b(reported_b, std::move(channel->second),
                      std::move(*cipher_b), options.chunk_size);

  // Phase 1: commitments, hashed tile by tile on the pool.
  HSIS_RETURN_IF_ERROR(SendCommitmentStreamed(a, commitment_family, threads));
  HSIS_RETURN_IF_ERROR(SendCommitmentStreamed(b, commitment_family, threads));
  HSIS_RETURN_IF_ERROR(ReceiveCommitmentStreamed(a));
  HSIS_RETURN_IF_ERROR(ReceiveCommitmentStreamed(b));

  // Phase 2: chunk-framed singly-encrypted streams, with the crypto
  // stage optionally pipelined `pipeline_depth` frames ahead of the
  // wire stage.
  HSIS_RETURN_IF_ERROR(SendEncryptedSetStreamed(
      a, threads, shuffle_seed, kShuffleSendA, options.pipeline_depth));
  HSIS_RETURN_IF_ERROR(SendEncryptedSetStreamed(
      b, threads, shuffle_seed, kShuffleSendB, options.pipeline_depth));

  // Phase 3: each double-encrypts the peer's stream chunk by chunk.
  // Fault injection (if any) applies to party B's reply about A's set.
  HSIS_RETURN_IF_ERROR(EncryptPeerSetStreamed(a, options.size_only, threads,
                                              options.chunk_size,
                                              shuffle_seed, kShuffleReplyA));
  HSIS_RETURN_IF_ERROR(EncryptPeerSetStreamed(
      b, options.size_only, threads, options.chunk_size, shuffle_seed,
      kShuffleReplyB, options.fault_injection));
  if (options.fault_injection.corrupt_reply_frame_bit) {
    a.channel.CorruptNextInboundForTest();  // tamper with B's reply in flight
  }

  // Phase 4: resolve incrementally.
  IntersectionOutcome out_a, out_b;
  HSIS_RETURN_IF_ERROR(
      ResolveIntersectionStreamed(a, options.size_only, out_a));
  HSIS_RETURN_IF_ERROR(
      ResolveIntersectionStreamed(b, options.size_only, out_b));

  out_a.own_commitment = a.own_commitment;
  out_a.peer_commitment = a.peer_commitment;
  out_a.bytes_sent = a.channel.bytes_sent();
  out_b.own_commitment = b.own_commitment;
  out_b.peer_commitment = b.peer_commitment;
  out_b.bytes_sent = b.channel.bytes_sent();
  return std::make_pair(std::move(out_a), std::move(out_b));
}

}  // namespace hsis::sovereign
