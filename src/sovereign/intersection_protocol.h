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

/// Default frame size (tuples per wire chunk) of the streamed path.
inline constexpr size_t kDefaultIntersectionChunkSize = 4096;

/// Options for a sovereign set-intersection run.
struct IntersectionOptions {
  /// When set, run the intersection-*size* variant (the paper's footnote
  /// 3): parties learn |D_A ∩ D_B| but not which tuples are common.
  bool size_only = false;
  /// Streamed-path frame size in tuples (`RunTwoPartyIntersectionStreamed`):
  /// each party hashes, encrypts, shuffles, and ships its set in frames
  /// of at most this many tuples. Must be >= 1 there; the legacy
  /// whole-set `RunTwoPartyIntersection` ignores it.
  size_t chunk_size = kDefaultIntersectionChunkSize;
  /// Worker threads for the streamed path's parallel modexp stages
  /// (crypto/parallel_modexp.h): 0 = hardware concurrency, negative is
  /// InvalidArgument — the `ParseThreadsValue` flag contract. Results
  /// are bit-identical for every thread count. Ignored by the legacy
  /// path.
  int threads = 1;
  /// Streamed-path crypto/wire overlap: number of encrypted frames that
  /// may be in flight between the modexp stage and the AEAD/channel
  /// stage. 1 (the default) is the serial hand-off; depth >= 2 runs the
  /// encryption of chunk k+1 on a producer thread while chunk k is being
  /// sealed and shipped, buffering at most `pipeline_depth` finished
  /// frames. Frames are produced and sent strictly in order, so the wire
  /// transcript and the outcome are byte-identical at every depth. Must
  /// be >= 1 (validated like `chunk_size`); the legacy path ignores it.
  size_t pipeline_depth = 1;
  /// Robustness-testing hooks (see FaultInjection).
  FaultInjection fault_injection;
};

/// Validates the streamed-path knobs: `chunk_size == 0`,
/// `pipeline_depth == 0`, and `threads < 0` are InvalidArgument,
/// mirroring the `ParseThreadsValue` / `ParseShardsValue` flag contract
/// (0 threads = hardware concurrency).
/// `RunTwoPartyIntersectionStreamed` calls this before touching the
/// channel.
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
///   2. Each hashes its tuples into the group and sends the singly
///      encrypted, shuffled set {E_i(h(t))}.
///   3. Each encrypts the peer's set under its own key and returns it —
///      paired with the input values in full mode (so the peer can map
///      matches back to its tuples), shuffled and unpaired in size-only
///      mode.
///   4. Each party intersects {E_j(E_i(h(own)))} with {E_i(E_j(h(peer)))},
///      equal by commutativity exactly on the common tuples.
///
/// Neither party's cleartext tuples ever cross the channel; each learns
/// only the result (plus the upper bound |D̂_j| inherent to the
/// protocol). Returns the outcome for (party A, party B).
Result<std::pair<IntersectionOutcome, IntersectionOutcome>>
RunTwoPartyIntersection(const Dataset& reported_a, const Dataset& reported_b,
                        const crypto::PrimeGroup& group,
                        const crypto::MultisetHashFamily& commitment_family,
                        Rng& rng, const IntersectionOptions& options = {});

/// The streamed/batched pipeline over the same protocol: datasets are
/// iterated in fixed-size frames (`DatasetSource`), each frame is
/// hashed-to-group and encrypted by the parallel modexp stage
/// (crypto/parallel_modexp.h, `options.threads` workers), shuffled
/// frame-locally under a per-chunk `Rng::ForIndex` stream, and shipped
/// as a chunk-framed element stream (sovereign/stream_frame.h) that the
/// receiver reassembles and double-encrypts chunk by chunk. Commitments
/// are hashed tile by tile on the same pool and united in tile order —
/// bit-identical to the whole-set hash by the multiset hash's
/// incrementality (sovereign/session_core.h).
///
/// The differential contract against the legacy whole-set path (pinned
/// by tests/sovereign/streamed_protocol_test.cc): for every chunk size
/// and thread count, `intersection`, `intersection_size`,
/// `own_commitment`, and `peer_commitment` are byte-identical to
/// `RunTwoPartyIntersection` on the same inputs, and `bytes_sent` is
/// identical across thread counts. A single-chunk stream (`chunk_size
/// >= |D|` for both parties) is wire-size-identical to the legacy path,
/// so `bytes_sent` matches it exactly; smaller chunks add exactly 10
/// header bytes plus one AEAD seal per continuation frame.
///
/// Privacy note: the whole-set shuffle becomes frame-local, so the
/// hiding set for "which transmitted ciphertext is which tuple" narrows
/// from the dataset to the frame; pick `chunk_size` with that in mind
/// (the default 4096 keeps the hiding set large while bounding frame
/// memory).
Result<std::pair<IntersectionOutcome, IntersectionOutcome>>
RunTwoPartyIntersectionStreamed(
    const Dataset& reported_a, const Dataset& reported_b,
    const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family, Rng& rng,
    const IntersectionOptions& options = {});

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_INTERSECTION_PROTOCOL_H_
