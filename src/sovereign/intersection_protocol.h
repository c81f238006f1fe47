#ifndef HSIS_SOVEREIGN_INTERSECTION_PROTOCOL_H_
#define HSIS_SOVEREIGN_INTERSECTION_PROTOCOL_H_

#include "common/random.h"
#include "common/result.h"
#include "crypto/group.h"
#include "crypto/multiset_hash.h"
#include "sovereign/dataset.h"

namespace hsis::sovereign {

/// Protocol-level fault injection for robustness testing: party B is
/// made to deviate from the protocol in controlled ways, and the tests
/// assert that party A detects the deviation (ProtocolViolation) rather
/// than computing a wrong result. All flags default to off.
struct FaultInjection {
  /// B omits one (value, double-encrypted) pair from its phase-3 reply.
  bool omit_one_reply_pair = false;
  /// B swaps the double-encryptions of two reply pairs (a targeted
  /// attempt to misreport which of A's tuples matched).
  bool swap_reply_pairs = false;
  /// B claims a wrong element count in a list header.
  bool corrupt_reply_count = false;
  /// B sends a malformed (wrong-type) message in phase 3.
  bool wrong_message_type = false;
  /// A bit of B's reply is flipped *on the wire* (a tampering network,
  /// not a deviating peer): the channel AEAD must reject the frame with
  /// IntegrityViolation before any payload reaches the parser.
  bool corrupt_reply_frame_bit = false;

  bool AnyActive() const {
    return omit_one_reply_pair || swap_reply_pairs || corrupt_reply_count ||
           wrong_message_type || corrupt_reply_frame_bit;
  }
};

/// Default frame size (tuples per wire chunk).
inline constexpr size_t kDefaultIntersectionChunkSize = 4096;

/// Options for a sovereign set-intersection run.
struct IntersectionOptions {
  /// When set, run the intersection-*size* variant (the paper's footnote
  /// 3): parties learn |D_A ∩ D_B| but not which tuples are common.
  bool size_only = false;
  /// Frame size in tuples: each party hashes, encrypts, and ships its
  /// set in frames of at most this many tuples, which bounds the memory
  /// of one frame. Must be >= 1. The send order is drawn over the whole
  /// set, so the chunk size changes the framing only, never what a
  /// party learns.
  size_t chunk_size = kDefaultIntersectionChunkSize;
  /// Worker threads for the parallel modexp and commitment stages
  /// (crypto/parallel_modexp.h), the channel's seal/open fan-out
  /// (sovereign/channel.h), the frame decode and the partitioned
  /// resolve (sovereign/session_core.h): 0 = hardware concurrency,
  /// negative is InvalidArgument — the `ParseThreadsValue` flag
  /// contract. Results are bit-identical for every thread count.
  int threads = 1;
  /// Robustness-testing hooks (see FaultInjection).
  FaultInjection fault_injection;
};

/// Validates the knobs: `chunk_size == 0` and `threads < 0` are
/// InvalidArgument, mirroring the `ParseThreadsValue` /
/// `ParseShardsValue` flag contract (0 threads = hardware concurrency).
/// `RunTwoPartyIntersection` calls this before touching the channel.
Status ValidateIntersectionOptions(const IntersectionOptions& options);

/// What one party walks away with after the protocol.
struct IntersectionOutcome {
  /// The common tuples, expressed as this party's own tuples (empty in
  /// size-only mode).
  Dataset intersection;

  /// |D̂_A ∩ D̂_B| (multiset semantics) — also filled in full mode.
  size_t intersection_size = 0;

  /// Serialized incremental multiset hash of the dataset this party
  /// reported — the commitment H_i(D̂_i) of Section 6 that the auditing
  /// device later checks against its accumulated HV_i.
  Bytes own_commitment;

  /// The peer's commitment H_j(D̂_j), as received over the channel.
  Bytes peer_commitment;

  /// Sealed bytes this party placed on the wire.
  size_t bytes_sent = 0;
};

/// Runs the Agrawal–Evfimievski–Srikant commutative-encryption set
/// intersection between two parties reporting `reported_a` and
/// `reported_b`, entirely over authenticated-encrypted channels:
///
///   1. Both parties exchange multiset-hash commitments of their
///      reported datasets (the Section 6 extension of the protocol).
///   2. Each draws a whole-set send order from `rng`, hashes its tuples
///      into the group and sends the singly encrypted, shuffled set
///      {E_i(h(t))}.
///   3. Each encrypts the peer's set under its own key and returns it —
///      paired with the input values in full mode (so the peer can map
///      matches back to its tuples), shuffled over the whole set and
///      unpaired in size-only mode. The phase runs in lockstep: both
///      parties receive and encrypt (A, then B), then both reply (A,
///      then B), so each party's inbox holds one stream when it is read.
///   4. Each party intersects {E_j(E_i(h(own)))} with {E_i(E_j(h(peer)))},
///      equal by commutativity exactly on the common tuples.
///
/// Neither party's cleartext tuples ever cross the channel. Returns the
/// outcome for (party A, party B).
///
/// Ideal output, per party (multiset semantics):
///   - full mode: both set sizes |D̂_A| and |D̂_B|, and the
///     intersection D̂_A ∩ D̂_B;
///   - size-only mode: both set sizes and |D̂_A ∩ D̂_B|.
/// The whole-set send order and the size-only reply shuffles keep a
/// received element's position from revealing its rank in the sender's
/// sorted set (pinned by tests/sovereign/protocol_leakage_test.cc).
/// Beyond the ideal output each party receives the peer's commitment
/// H_j(D̂_j), which binds the peer's report for the auditing device.
///
/// Every element list travels as a chunk-framed stream of
/// `options.chunk_size` tuples (sovereign/stream_frame.h) and is
/// received whole: frames after the complete stream are a
/// ProtocolViolation. The per-tuple modexps, the commitments, the
/// frames' seal, open and decode, and the resolve run on
/// `options.threads` workers. The contract
/// (pinned by tests/sovereign/streamed_protocol_test.cc):
///   - `intersection`, `intersection_size` and both commitments depend
///     on neither the chunk size nor the thread count;
///   - `rng` draws, in order: the channel key and fork, two keys, A's
///     then B's send order (a `Shuffle` of |A| then |B|), and in
///     size-only mode the reply shuffles (|B| then |A|) — so the end
///     state of `rng` depends on neither knob either;
///   - `bytes_sent` is identical across thread counts. A single-frame
///     stream (`chunk_size >= |D|` for both parties) is one whole-set
///     message per list; smaller chunks add exactly 10 header bytes plus
///     one AEAD seal per continuation frame.
Result<std::pair<IntersectionOutcome, IntersectionOutcome>>
RunTwoPartyIntersection(const Dataset& reported_a, const Dataset& reported_b,
                        const crypto::PrimeGroup& group,
                        const crypto::MultisetHashFamily& commitment_family,
                        Rng& rng, const IntersectionOptions& options = {});

/// The earlier name of `RunTwoPartyIntersection`, kept for existing
/// callers.
inline Result<std::pair<IntersectionOutcome, IntersectionOutcome>>
RunTwoPartyIntersectionStreamed(
    const Dataset& reported_a, const Dataset& reported_b,
    const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family, Rng& rng,
    const IntersectionOptions& options = {}) {
  return RunTwoPartyIntersection(reported_a, reported_b, group,
                                 commitment_family, rng, options);
}

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_INTERSECTION_PROTOCOL_H_
