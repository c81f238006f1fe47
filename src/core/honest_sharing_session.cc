#include "core/honest_sharing_session.h"

#include <cmath>

#include "common/wire.h"
#include "sovereign/multiparty.h"

namespace hsis::core {

namespace {

/// Stand-in for the certified audit-application binary the secure
/// coprocessor measures; participants pin its hash.
const char kAuditApplicationCode[] =
    "hsis-auditing-device v1.0: maintain HV_i via incremental multiset "
    "hash; audit with frequency f; fine P on mismatch";

/// The dataset a party reports under `plan`: its true `data` less
/// `plan.withhold` tuples drawn from `rng`, plus the fabricated probes.
sovereign::Dataset ApplyCheat(const sovereign::Dataset& data,
                              const CheatPlan& plan, Rng& rng) {
  sovereign::Dataset reported = data;
  reported.RemoveRandom(plan.withhold, rng);
  for (const std::string& f : plan.fabricate) {
    reported.Add(sovereign::Tuple::FromString(f));
  }
  return reported;
}

/// The device checks `name`'s reported `commitment` against HV_i with
/// probability f (one draw from `rng`); the outcome goes into `stats`.
Status RecordAudit(audit::AuditingDevice& device, const std::string& name,
                   const Bytes& commitment, Rng& rng, ExchangeStats& stats) {
  HSIS_ASSIGN_OR_RETURN(audit::AuditOutcome outcome,
                        device.MaybeAudit(name, commitment, rng));
  stats.audited = outcome.audited;
  stats.detected = outcome.cheating_detected;
  stats.penalty_paid = outcome.penalty_applied;
  return Status::OK();
}

/// Probe accounting: a fabricated tuple of `plan` that shows up in the
/// cheater's `intersection` is a peer tuple it illegitimately learned.
size_t CountProbeHits(const CheatPlan& plan,
                      const sovereign::Dataset& intersection) {
  size_t hits = 0;
  for (const std::string& f : plan.fabricate) {
    if (intersection.Contains(sovereign::Tuple::FromString(f))) ++hits;
  }
  return hits;
}

}  // namespace

Result<HonestSharingSession> HonestSharingSession::Create(
    const SessionConfig& config) {
  // Written so that NaN, which compares false, fails too.
  if (!(config.audit_frequency >= 0 && config.audit_frequency <= 1)) {
    return Status::InvalidArgument(
        "SessionConfig.audit_frequency must be in [0, 1]");
  }
  // The device stores penalty totals as integer milli-units.
  if (!(config.penalty >= 0 && std::isfinite(config.penalty))) {
    return Status::InvalidArgument(
        "SessionConfig.penalty must be finite and >= 0");
  }
  const crypto::PrimeGroup& group =
      config.group != nullptr ? *config.group : crypto::PrimeGroup::Default();

  Result<crypto::MultisetHashFamily> family =
      config.hash_scheme == crypto::MultisetHashScheme::kMu
          ? crypto::MultisetHashFamily::CreateMu(group)
          : crypto::MultisetHashFamily::Create(config.hash_scheme,
                                               config.scheme_key);
  HSIS_RETURN_IF_ERROR(family.status());

  Result<audit::AuditingDevice> device =
      audit::AuditingDevice::Create(config.audit_frequency, config.penalty);
  HSIS_RETURN_IF_ERROR(device.status());

  Rng rng(config.seed);
  audit::SecureCoprocessor coprocessor =
      audit::SecureCoprocessor::Manufacture(rng);
  Bytes code = ToBytes(kAuditApplicationCode);
  coprocessor.InstallApplication(code);

  SessionConfig resolved = config;
  resolved.group = &group;
  return HonestSharingSession(
      resolved, std::move(*family), std::move(coprocessor),
      std::make_unique<audit::AuditingDevice>(std::move(*device)),
      audit::SecureCoprocessor::MeasureCode(code), std::move(rng));
}

Status HonestSharingSession::AddParty(const std::string& name) {
  if (parties_.count(name) != 0) {
    return Status::AlreadyExists("party already exists: " + name);
  }
  Result<audit::TupleGenerator> generator =
      audit::TupleGenerator::Create(name, family_, device_.get());
  HSIS_RETURN_IF_ERROR(generator.status());
  PartyState state;
  state.generator =
      std::make_unique<audit::TupleGenerator>(std::move(*generator));
  parties_.emplace(name, std::move(state));
  return Status::OK();
}

Status HonestSharingSession::IssueTuples(
    const std::string& party, const std::vector<std::string>& values) {
  auto it = parties_.find(party);
  if (it == parties_.end()) {
    return Status::NotFound("unknown party: " + party);
  }
  std::vector<sovereign::Tuple> tuples;
  tuples.reserve(values.size());
  for (const std::string& v : values) {
    tuples.push_back(sovereign::Tuple::FromString(v));
  }
  HSIS_RETURN_IF_ERROR(it->second.generator->IssueAll(tuples));
  it->second.data.InsertAll(std::move(tuples));
  return Status::OK();
}

Result<sovereign::Dataset> HonestSharingSession::TrueData(
    const std::string& party) const {
  auto it = parties_.find(party);
  if (it == parties_.end()) {
    return Status::NotFound("unknown party: " + party);
  }
  return it->second.data;
}

Result<audit::SecureCoprocessor::AttestationReport>
HonestSharingSession::Attest(const Bytes& challenge) const {
  return coprocessor_.Attest(challenge);
}

const Bytes& HonestSharingSession::device_endorsement_key() const {
  return coprocessor_.endorsement_key();
}

Result<ExchangeResult> HonestSharingSession::RunExchange(
    const std::string& party_a, const std::string& party_b,
    const CheatPlan& cheat_a, const CheatPlan& cheat_b) {
  auto it_a = parties_.find(party_a);
  auto it_b = parties_.find(party_b);
  if (it_a == parties_.end() || it_b == parties_.end()) {
    return Status::NotFound("unknown party in exchange");
  }
  if (party_a == party_b) {
    return Status::InvalidArgument("a party cannot exchange with itself");
  }

  sovereign::Dataset reported_a = ApplyCheat(it_a->second.data, cheat_a, rng_);
  sovereign::Dataset reported_b = ApplyCheat(it_b->second.data, cheat_b, rng_);

  HSIS_ASSIGN_OR_RETURN(
      auto outcomes,
      sovereign::RunTwoPartyIntersection(reported_a, reported_b,
                                         *config_.group, family_, rng_));

  ExchangeResult result;
  result.a.reported_size = reported_a.size();
  result.b.reported_size = reported_b.size();
  result.a.intersection = std::move(outcomes.first.intersection);
  result.b.intersection = std::move(outcomes.second.intersection);
  result.a.intersection_size = outcomes.first.intersection_size;
  result.b.intersection_size = outcomes.second.intersection_size;

  HSIS_RETURN_IF_ERROR(RecordAudit(*device_, party_a,
                                   outcomes.first.own_commitment, rng_,
                                   result.a));
  HSIS_RETURN_IF_ERROR(RecordAudit(*device_, party_b,
                                   outcomes.second.own_commitment, rng_,
                                   result.b));
  result.a.probe_hits = CountProbeHits(cheat_a, result.a.intersection);
  result.b.probe_hits = CountProbeHits(cheat_b, result.b.intersection);
  result.a.leaked_tuples = result.b.probe_hits;
  result.b.leaked_tuples = result.a.probe_hits;
  return result;
}

Result<MultiExchangeResult> HonestSharingSession::RunMultiPartyExchange(
    const std::vector<std::string>& names,
    const std::vector<CheatPlan>& cheats) {
  if (names.size() < 2) {
    return Status::InvalidArgument("multi-party exchange needs >= 2 parties");
  }
  if (!cheats.empty() && cheats.size() != names.size()) {
    return Status::InvalidArgument(
        "cheat plans must be empty or one per party");
  }
  std::vector<const PartyState*> states;
  states.reserve(names.size());
  for (const std::string& name : names) {
    auto it = parties_.find(name);
    if (it == parties_.end()) {
      return Status::NotFound("unknown party: " + name);
    }
    states.push_back(&it->second);
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      if (names[i] == names[j]) {
        return Status::InvalidArgument("duplicate party in exchange");
      }
    }
  }

  static const CheatPlan kHonestPlan;
  auto plan_for = [&](size_t i) -> const CheatPlan& {
    return cheats.empty() ? kHonestPlan : cheats[i];
  };

  std::vector<sovereign::Dataset> reported;
  reported.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    reported.push_back(ApplyCheat(states[i]->data, plan_for(i), rng_));
  }

  HSIS_ASSIGN_OR_RETURN(
      std::vector<sovereign::MultiPartyOutcome> outcomes,
      sovereign::RunMultiPartyIntersection(reported, *config_.group, family_,
                                           rng_));

  MultiExchangeResult result;
  result.parties.resize(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    ExchangeStats& stats = result.parties[i];
    stats.reported_size = reported[i].size();
    stats.intersection = std::move(outcomes[i].intersection);
    stats.intersection_size = stats.intersection.size();
    HSIS_RETURN_IF_ERROR(RecordAudit(*device_, names[i],
                                     outcomes[i].own_commitment, rng_, stats));
    stats.probe_hits = CountProbeHits(plan_for(i), stats.intersection);
  }
  // Leakage: party p's true tuples exposed by any other party's probes
  // that survived into the global intersection.
  for (size_t p = 0; p < names.size(); ++p) {
    for (size_t q = 0; q < names.size(); ++q) {
      if (p == q) continue;
      for (const std::string& f : plan_for(q).fabricate) {
        sovereign::Tuple probe = sovereign::Tuple::FromString(f);
        if (states[p]->data.Contains(probe) &&
            result.parties[q].intersection.Contains(probe)) {
          ++result.parties[p].leaked_tuples;
        }
      }
    }
  }
  return result;
}

namespace {
constexpr uint32_t kSessionStateVersion = 1;
}  // namespace

Bytes HonestSharingSession::SaveState() const {
  Bytes out;
  AppendUint32BE(out, kSessionStateVersion);
  AppendUint32BE(out, static_cast<uint32_t>(parties_.size()));
  for (const auto& [name, state] : parties_) {
    AppendLengthPrefixed(out, ToBytes(name));
    AppendUint32BE(out, static_cast<uint32_t>(state.data.size()));
    for (const sovereign::Tuple& t : state.data.tuples()) {
      AppendLengthPrefixed(out, t.value);
    }
  }
  AppendLengthPrefixed(out, device_->SerializeState());
  return out;
}

Status HonestSharingSession::LoadState(const Bytes& state) {
  if (!parties_.empty()) {
    return Status::FailedPrecondition(
        "LoadState requires a fresh session with no parties");
  }
  WireReader wire(state, StatusCode::kInvalidArgument, "session state");
  HSIS_ASSIGN_OR_RETURN(uint32_t version, wire.U32());
  if (version != kSessionStateVersion) return wire.Fail("unsupported version");
  HSIS_ASSIGN_OR_RETURN(uint32_t party_count, wire.U32());

  // Parse fully before mutating the session.
  std::vector<std::pair<std::string, sovereign::Dataset>> parsed;
  for (uint32_t p = 0; p < party_count; ++p) {
    HSIS_ASSIGN_OR_RETURN(auto name_bytes, wire.LengthPrefixed());
    HSIS_ASSIGN_OR_RETURN(uint32_t tuple_count, wire.U32());
    sovereign::Dataset data;
    for (uint32_t t = 0; t < tuple_count; ++t) {
      HSIS_ASSIGN_OR_RETURN(auto value, wire.LengthPrefixed());
      data.Add(sovereign::Tuple(Bytes(value.begin(), value.end())));
    }
    std::string name(name_bytes.begin(), name_bytes.end());
    for (const auto& [existing, unused] : parsed) {
      if (existing == name) return wire.Fail("duplicate party");
    }
    parsed.emplace_back(std::move(name), std::move(data));
  }
  HSIS_ASSIGN_OR_RETURN(auto device_bytes, wire.LengthPrefixed());
  HSIS_RETURN_IF_ERROR(wire.Finish());

  for (auto& [name, data] : parsed) {
    HSIS_RETURN_IF_ERROR(AddParty(name));
    parties_.at(name).data = std::move(data);
  }
  Status restored =
      device_->RestoreState(Bytes(device_bytes.begin(), device_bytes.end()));
  if (!restored.ok()) {
    for (auto& [name, data] : parsed) parties_.erase(name);
    return restored;
  }
  return Status::OK();
}

}  // namespace hsis::core
