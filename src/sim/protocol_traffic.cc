#include "sim/protocol_traffic.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "sim/workload.h"
#include "sovereign/intersection_protocol.h"

namespace hsis::sim {

namespace {

using sovereign::Dataset;
using sovereign::Tuple;

/// One session's contribution to the campaign stats.
ProtocolTrafficStats RunOneSession(const ProtocolTrafficOptions& opt,
                                   const crypto::PrimeGroup& group,
                                   const crypto::MultisetHashFamily& family,
                                   size_t session) {
  ProtocolTrafficStats s;
  s.sessions = 1;
  Rng rng = Rng::ForIndex(opt.seed, session);

  const size_t priv = opt.tuples_per_party - opt.common_tuples;
  TwoFirmWorkload workload =
      MakeTwoFirmWorkload(priv, priv, opt.common_tuples, rng);
  Dataset true_a = Dataset::FromStrings(workload.firm_a);
  Dataset true_b = Dataset::FromStrings(workload.firm_b);

  // Party B's (possibly dishonest) reported dataset. Behavior draws
  // come before the protocol run so the session stays a pure function
  // of (seed, session).
  const bool withhold = rng.Bernoulli(opt.withhold_fraction);
  const bool probe = rng.Bernoulli(opt.probe_fraction);
  const bool audit = rng.Bernoulli(opt.audit_fraction);
  Dataset reported_b = true_b;
  if (withhold) {
    reported_b.RemoveRandom(std::max<size_t>(1, true_b.size() / 10), rng);
    s.withheld = 1;
  }
  if (probe) {
    for (const std::string& guess : MakeProbeList(
             workload.a_private, std::max<size_t>(1, true_a.size() / 10),
             0.5, rng)) {
      reported_b.Add(Tuple::FromString(guess));
    }
    s.probed = 1;
  }
  if (!withhold && !probe) s.honest = 1;

  sovereign::IntersectionOptions options;
  options.size_only = opt.size_only;
  options.chunk_size = opt.chunk_size;
  options.threads = opt.threads;
  Result<std::pair<sovereign::IntersectionOutcome,
                   sovereign::IntersectionOutcome>>
      run = sovereign::RunTwoPartyIntersection(
          true_a, reported_b, group, family, rng, options);
  if (!run.ok()) {
    s.protocol_failures = 1;
    return s;
  }
  s.tuples_processed = true_a.size() + reported_b.size();
  s.intersections_total = run->first.intersection_size;
  s.bytes_on_wire = run->first.bytes_sent + run->second.bytes_sent;

  if (audit) {
    // The auditing device's check (Section 6): B's in-protocol
    // commitment vs the multiset hash of B's *true* dataset. Any
    // withholding or probing makes the reported multiset differ, so the
    // commitment cannot match.
    s.audited = 1;
    std::unique_ptr<crypto::MultisetHash> truth = family.NewHash();
    for (const Tuple& t : true_b.tuples()) truth->Add(t.value);
    if (run->first.peer_commitment != truth->Serialize()) s.audit_flags = 1;
  }
  return s;
}

/// A probability field must lie in [0, 1]; NaN fails the range test.
Status CheckFraction(const char* field, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(std::string("ProtocolTrafficOptions.") +
                                   field + " must be in [0, 1]");
  }
  return Status::OK();
}

Status ValidateOptions(const ProtocolTrafficOptions& options) {
  if (options.common_tuples > options.tuples_per_party) {
    return Status::InvalidArgument(
        "ProtocolTrafficOptions.common_tuples must be <= tuples_per_party");
  }
  HSIS_RETURN_IF_ERROR(
      CheckFraction("withhold_fraction", options.withhold_fraction));
  HSIS_RETURN_IF_ERROR(
      CheckFraction("probe_fraction", options.probe_fraction));
  HSIS_RETURN_IF_ERROR(
      CheckFraction("audit_fraction", options.audit_fraction));
  if (options.chunk_size == 0) {
    return Status::InvalidArgument(
        "ProtocolTrafficOptions.chunk_size must be >= 1");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument(
        "ProtocolTrafficOptions.threads must be >= 0 "
        "(0 selects hardware concurrency)");
  }
  if (options.session_threads < 0) {
    return Status::InvalidArgument(
        "ProtocolTrafficOptions.session_threads must be >= 0 "
        "(0 selects hardware concurrency)");
  }
  return Status::OK();
}

void Accumulate(ProtocolTrafficStats& into, const ProtocolTrafficStats& s) {
  into.sessions += s.sessions;
  into.honest += s.honest;
  into.withheld += s.withheld;
  into.probed += s.probed;
  into.audited += s.audited;
  into.audit_flags += s.audit_flags;
  into.tuples_processed += s.tuples_processed;
  into.intersections_total += s.intersections_total;
  into.bytes_on_wire += s.bytes_on_wire;
  into.protocol_failures += s.protocol_failures;
}

}  // namespace

Result<ProtocolTrafficStats> RunProtocolTrafficCampaign(
    const ProtocolTrafficOptions& options, const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family) {
  HSIS_RETURN_IF_ERROR(ValidateOptions(options));

  // Sessions land in ordered slots and are reduced in session order, so
  // the aggregate is independent of the worker-thread count.
  std::vector<ProtocolTrafficStats> per_session(options.sessions);
  common::ParallelFor(options.session_threads, options.sessions,
                      [&](size_t i) {
                        per_session[i] = RunOneSession(
                            options, group, commitment_family, i);
                      });
  ProtocolTrafficStats total;
  for (const ProtocolTrafficStats& s : per_session) Accumulate(total, s);
  return total;
}

}  // namespace hsis::sim
