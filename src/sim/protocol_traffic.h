#ifndef HSIS_SIM_PROTOCOL_TRAFFIC_H_
#define HSIS_SIM_PROTOCOL_TRAFFIC_H_

#include <cstdint>
#include <cstddef>

#include "common/result.h"
#include "crypto/group.h"
#include "crypto/multiset_hash.h"

/// \file
/// \brief Heavy-traffic campaigns over the two-party intersection protocol.
///
/// Drives many concurrent two-party sessions — a mixed population of
/// honest parties, withholders, probers (Section 1's "inserting some
/// additional names"), and post-hoc commitment audits — through
/// `RunTwoPartyIntersection`. The campaign is the sim-layer
/// stress harness for the protocol path: every session is seeded by
/// `Rng::ForIndex(seed, session)`, so the aggregate statistics are a
/// pure function of the options, independent of how many worker threads
/// execute the sessions.

namespace hsis::sim {

/// Knobs for one traffic campaign.
struct ProtocolTrafficOptions {
  /// Number of two-party intersection sessions to run.
  size_t sessions = 8;
  /// True tuples per party per session (private + common).
  size_t tuples_per_party = 64;
  /// Ground-truth overlap per session (must be <= tuples_per_party).
  size_t common_tuples = 16;
  /// Probability that party B withholds ~10% of its set in a session.
  /// Each of the three probabilities must be in [0, 1].
  double withhold_fraction = 0.25;
  /// Probability that party B pads its set with a probe list.
  double probe_fraction = 0.25;
  /// Probability that the session's commitments are audited afterwards.
  double audit_fraction = 0.5;
  /// Protocol frame size (IntersectionOptions.chunk_size); >= 1.
  size_t chunk_size = 32;
  /// Modexp worker threads inside each session (0 = hardware); >= 0.
  int threads = 1;
  /// Worker threads across sessions (0 = hardware); >= 0. Statistics are
  /// bit-identical for every value.
  int session_threads = 1;
  /// Run the intersection-size-only protocol variant.
  bool size_only = false;
  /// Campaign seed; session i derives `Rng::ForIndex(seed, i)`.
  uint64_t seed = 7;
};

/// Aggregate results of a campaign.
struct ProtocolTrafficStats {
  size_t sessions = 0;          ///< Sessions completed (incl. failures).
  size_t honest = 0;            ///< Sessions where B reported truthfully.
  size_t withheld = 0;          ///< Sessions where B withheld tuples.
  size_t probed = 0;            ///< Sessions where B inserted probes.
  size_t audited = 0;           ///< Sessions whose commitments were audited.
  size_t audit_flags = 0;       ///< Audits where B's commitment mismatched
                                ///< the multiset hash of B's true dataset.
  size_t tuples_processed = 0;  ///< Reported tuples pushed through the pipe.
  size_t intersections_total = 0;  ///< Sum of intersection sizes (A's view).
  size_t bytes_on_wire = 0;     ///< Sealed bytes, both directions, all runs.
  size_t protocol_failures = 0;  ///< Sessions that ended in an error status.
};

/// Runs `options.sessions` independent two-party intersection sessions
/// and aggregates their statistics. Sessions run under
/// `options.session_threads` workers; per-session seeding makes the
/// returned stats thread-count invariant. Individual session protocol
/// errors are *counted* (`protocol_failures`), not returned; only
/// invalid options fail the campaign itself, with an InvalidArgument
/// naming the field.
Result<ProtocolTrafficStats> RunProtocolTrafficCampaign(
    const ProtocolTrafficOptions& options, const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family);

}  // namespace hsis::sim

#endif  // HSIS_SIM_PROTOCOL_TRAFFIC_H_
