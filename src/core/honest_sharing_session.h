#ifndef HSIS_CORE_HONEST_SHARING_SESSION_H_
#define HSIS_CORE_HONEST_SHARING_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditing_device.h"
#include "audit/secure_coprocessor.h"
#include "audit/tuple_generator.h"
#include "common/random.h"
#include "common/result.h"
#include "crypto/group.h"
#include "crypto/multiset_hash.h"
#include "sovereign/dataset.h"
#include "sovereign/intersection_protocol.h"

namespace hsis::core {

/// Configuration of an audited sovereign-sharing deployment.
struct SessionConfig {
  /// Audit terms (f, P) — pick them with `MechanismDesigner`.
  double audit_frequency = 1.0;
  double penalty = 0.0;
  /// Multiset hash scheme the tuple generators announce. kMu (default)
  /// is the right choice against cheating *participants*; keyed schemes
  /// need `scheme_key`.
  crypto::MultisetHashScheme hash_scheme = crypto::MultisetHashScheme::kMu;
  Bytes scheme_key;
  /// Group for the intersection protocol and the Mu hash; null = the
  /// library's 256-bit safe-prime group.
  const crypto::PrimeGroup* group = nullptr;
  uint64_t seed = 1;
};

/// How a party alters its report this exchange (empty plan = honest).
struct CheatPlan {
  /// Fabricated tuples inserted to probe the peer (Section 1's attack).
  std::vector<std::string> fabricate;
  /// Number of true tuples withheld, chosen at random.
  size_t withhold = 0;

  bool IsHonest() const { return fabricate.empty() && withhold == 0; }
};

/// One party's view of an exchange.
struct ExchangeStats {
  size_t reported_size = 0;
  size_t intersection_size = 0;
  sovereign::Dataset intersection;
  /// Audit outcome for this party.
  bool audited = false;
  bool detected = false;
  double penalty_paid = 0.0;
  /// Fabricated probes that matched the peer's report — private peer
  /// tuples this party illegitimately learned.
  size_t probe_hits = 0;
  /// This party's tuples exposed to the peer through the peer's probes.
  size_t leaked_tuples = 0;
};

/// Both parties' views.
struct ExchangeResult {
  ExchangeStats a;
  ExchangeStats b;
};

/// Result of an n-party exchange; `parties` is aligned with the name
/// list passed to `RunMultiPartyExchange`.
struct MultiExchangeResult {
  std::vector<ExchangeStats> parties;
};

/// The library's one-stop orchestration of the paper's full system:
/// tuple generators feeding an auditing device hosted in a (simulated)
/// secure coprocessor, sovereign set intersections over authenticated
/// channels, Bernoulli audits at frequency f, and penalties P.
///
/// Typical use:
///   1. Create with audit terms from `MechanismDesigner`.
///   2. `AddParty` each participant; parties verify the device via
///      `Attest` / `expected_code_hash`.
///   3. Feed legal tuples through `IssueTuples` (the TG_i path).
///   4. `RunExchange` per sharing round, with optional `CheatPlan`s to
///      model adversarial behavior.
class HonestSharingSession {
 public:
  static Result<HonestSharingSession> Create(const SessionConfig& config);

  /// Registers a participant and its tuple generator.
  Status AddParty(const std::string& name);

  /// Issues legal tuples to `party` through its TG (updates HV_i): one
  /// `TupleGenerator::IssueAll` batch, merged into the party's data at
  /// once. All or nothing: on an error neither HV_i nor the data moved.
  /// Device state and `SaveState` bytes equal those of one call per
  /// value.
  Status IssueTuples(const std::string& party,
                     const std::vector<std::string>& values);

  /// The party's true database (everything its TG issued).
  Result<sovereign::Dataset> TrueData(const std::string& party) const;

  /// Remote attestation of the audit application, for participants to
  /// verify before trusting the device.
  Result<audit::SecureCoprocessor::AttestationReport> Attest(
      const Bytes& challenge) const;
  const Bytes& expected_code_hash() const { return code_hash_; }
  const Bytes& device_endorsement_key() const;

  /// Runs one audited sovereign intersection between two registered
  /// parties, applying the given cheat plans to their reports.
  Result<ExchangeResult> RunExchange(const std::string& party_a,
                                     const std::string& party_b,
                                     const CheatPlan& cheat_a = {},
                                     const CheatPlan& cheat_b = {});

  /// Runs one audited n-party sovereign intersection (ring protocol,
  /// Section 5's setting). `cheats` is either empty (everyone honest)
  /// or one plan per party, aligned with `names`. Each party's
  /// `leaked_tuples` counts its own true tuples that some *other*
  /// party's probe exposed through the global intersection.
  Result<MultiExchangeResult> RunMultiPartyExchange(
      const std::vector<std::string>& names,
      const std::vector<CheatPlan>& cheats = {});

  const audit::AuditingDevice& device() const { return *device_; }
  double TotalPenalties(const std::string& party) const {
    return device_->TotalPenalties(party);
  }

  /// Serializes the session's durable state — every party's issued
  /// dataset plus the auditing device's state — so a deployment can
  /// restart. Configuration (audit terms, hash scheme, group) is not
  /// part of the state; the restoring session must be created with the
  /// same configuration.
  Bytes SaveState() const;

  /// Restores state produced by `SaveState` into a freshly created
  /// session (no parties added yet). Recreates parties, datasets, and
  /// device accumulators; fails without partial effects on malformed
  /// input or when parties already exist.
  Status LoadState(const Bytes& state);

 private:
  HonestSharingSession(const SessionConfig& config,
                       crypto::MultisetHashFamily family,
                       audit::SecureCoprocessor coprocessor,
                       std::unique_ptr<audit::AuditingDevice> device,
                       Bytes code_hash, Rng rng)
      : config_(config),
        family_(std::move(family)),
        coprocessor_(std::move(coprocessor)),
        device_(std::move(device)),
        code_hash_(std::move(code_hash)),
        rng_(std::move(rng)) {}

  struct PartyState {
    std::unique_ptr<audit::TupleGenerator> generator;
    sovereign::Dataset data;
  };

  SessionConfig config_;
  crypto::MultisetHashFamily family_;
  audit::SecureCoprocessor coprocessor_;
  std::unique_ptr<audit::AuditingDevice> device_;
  Bytes code_hash_;
  Rng rng_;
  std::map<std::string, PartyState> parties_;
};

}  // namespace hsis::core

#endif  // HSIS_CORE_HONEST_SHARING_SESSION_H_
