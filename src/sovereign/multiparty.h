#ifndef HSIS_SOVEREIGN_MULTIPARTY_H_
#define HSIS_SOVEREIGN_MULTIPARTY_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "crypto/group.h"
#include "crypto/multiset_hash.h"
#include "sovereign/dataset.h"

namespace hsis::sovereign {

/// Result of the n-party sovereign intersection for one party.
struct MultiPartyOutcome {
  /// Tuples present in every party's reported dataset, as this party's
  /// own tuples.
  Dataset intersection;
  /// Commitment H_i(D̂_i) this party published (Section 6).
  Bytes own_commitment;
};

/// Execution and fault-injection knobs for the n-party protocol.
struct MultiPartyOptions {
  /// common/parallel.h knob for the per-party hot paths (ring-pass
  /// encryption, commitments, match map-back): 1 = serial (default),
  /// 0 = hardware concurrency, N = exactly N workers. Key generation
  /// and the global min-multiplicity reduction stay serial, so results
  /// are bit-identical for every thread count. Negative values are
  /// InvalidArgument.
  int threads = 1;
  struct FaultInjection {
    /// Index of a party that drops out mid-round (its encryption hops
    /// in the ring pass never complete), or -1 for none. The protocol
    /// aborts with kProtocolViolation; the reported error is the one a
    /// serial run would hit first, independent of thread count.
    int party_fails_mid_round = -1;
  } fault_injection;
};

/// N-party sovereign set intersection by commutative ring encryption:
/// each party's hashed set is passed around the ring and encrypted under
/// every party's key; under full encryption equal tuples collide, so each
/// party intersects all n fully-encrypted multisets and maps matches back
/// through its own ring position. No party sees another's cleartext
/// tuples.
///
/// Ideal output, per party: every party's set size |D̂_i| and the n-way
/// intersection D̂_1 ∩ … ∩ D̂_n (multiset semantics). Today's ring
/// reveals more: no hop shuffles, so every set keeps its owner's sorted
/// order through the ring and a party learns the ranks at which the
/// common tuples sit in each peer's set (open in ROADMAP.md, "a ring
/// that shuffles").
///
/// `reported` holds each party's (claimed) dataset; parties are indexed
/// by position. Requires n >= 2.
Result<std::vector<MultiPartyOutcome>> RunMultiPartyIntersection(
    const std::vector<Dataset>& reported, const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family, Rng& rng,
    const MultiPartyOptions& options = {});

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_MULTIPARTY_H_
