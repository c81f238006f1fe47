#include "audit/auditing_device.h"

#include "common/wire.h"

namespace hsis::audit {

Result<AuditingDevice> AuditingDevice::Create(double audit_frequency,
                                              double penalty) {
  // Written so that NaN, which compares false, fails too.
  if (!(audit_frequency >= 0 && audit_frequency <= 1)) {
    return Status::InvalidArgument("audit frequency must be in [0, 1]");
  }
  if (!(penalty >= 0)) {
    return Status::InvalidArgument("penalty must be non-negative");
  }
  return AuditingDevice(audit_frequency, penalty);
}

Status AuditingDevice::RegisterPlayer(
    const std::string& player, const crypto::MultisetHashFamily& family) {
  if (players_.count(player) != 0) {
    return Status::AlreadyExists("player already registered: " + player);
  }
  PlayerState state;
  state.family = std::make_unique<crypto::MultisetHashFamily>(family);
  state.accumulated = family.NewHash();
  players_.emplace(player, std::move(state));
  return Status::OK();
}

bool AuditingDevice::IsRegistered(const std::string& player) const {
  return players_.count(player) != 0;
}

Status AuditingDevice::RecordTupleHash(const std::string& player,
                                       const Bytes& tuple_hash) {
  auto it = players_.find(player);
  if (it == players_.end()) {
    return Status::NotFound("unknown player: " + player);
  }
  Result<std::unique_ptr<crypto::MultisetHash>> incoming =
      it->second.family->Deserialize(tuple_hash);
  HSIS_RETURN_IF_ERROR(incoming.status());
  return it->second.accumulated->Union(**incoming);
}

Result<AuditOutcome> AuditingDevice::Audit(const std::string& player,
                                           const Bytes& reported_commitment) {
  auto it = players_.find(player);
  if (it == players_.end()) {
    return Status::NotFound("unknown player: " + player);
  }
  Result<std::unique_ptr<crypto::MultisetHash>> reported =
      it->second.family->Deserialize(reported_commitment);

  AuditOutcome outcome;
  outcome.audited = true;
  // A malformed commitment counts as cheating: the player was required
  // to report a valid H_i(D̂_i) alongside its data.
  outcome.cheating_detected =
      !reported.ok() || !it->second.accumulated->Equivalent(**reported);
  if (outcome.cheating_detected) {
    outcome.penalty_applied = penalty_;
    it->second.total_penalties += penalty_;
  }
  log_.push_back({next_sequence_++, player, outcome.cheating_detected,
                  outcome.penalty_applied});
  return outcome;
}

Result<AuditOutcome> AuditingDevice::MaybeAudit(
    const std::string& player, const Bytes& reported_commitment, Rng& rng) {
  if (!rng.Bernoulli(audit_frequency_)) {
    if (players_.count(player) == 0) {
      return Status::NotFound("unknown player: " + player);
    }
    return AuditOutcome{};
  }
  return Audit(player, reported_commitment);
}

double AuditingDevice::TotalPenalties(const std::string& player) const {
  auto it = players_.find(player);
  return it == players_.end() ? 0.0 : it->second.total_penalties;
}

uint64_t AuditingDevice::RecordedTupleCount(const std::string& player) const {
  auto it = players_.find(player);
  return it == players_.end() ? 0 : it->second.accumulated->count();
}

size_t AuditingDevice::StateBytes() const {
  size_t total = 0;
  for (const auto& [name, state] : players_) {
    total += state.accumulated->Serialize().size();
  }
  return total;
}

Bytes AuditingDevice::SerializeState() const {
  Bytes out;
  AppendUint64BE(out, next_sequence_);
  AppendUint32BE(out, static_cast<uint32_t>(players_.size()));
  for (const auto& [name, state] : players_) {
    AppendLengthPrefixed(out, ToBytes(name));
    AppendLengthPrefixed(out, state.accumulated->Serialize());
    // Store the penalty total as a scaled integer (milli-units) to keep
    // the wire format byte-exact.
    AppendUint64BE(out,
                   static_cast<uint64_t>(state.total_penalties * 1000.0 + 0.5));
  }
  return out;
}

Status AuditingDevice::RestoreState(const Bytes& state) {
  WireReader wire(state, StatusCode::kInvalidArgument, "device state");
  HSIS_ASSIGN_OR_RETURN(uint64_t sequence, wire.U64());
  HSIS_ASSIGN_OR_RETURN(uint32_t count, wire.U32());
  // Stage into a scratch map so a malformed blob cannot half-apply.
  std::map<std::string, std::pair<std::unique_ptr<crypto::MultisetHash>, double>>
      staged;
  for (uint32_t i = 0; i < count; ++i) {
    HSIS_ASSIGN_OR_RETURN(auto name_bytes, wire.LengthPrefixed());
    HSIS_ASSIGN_OR_RETURN(auto hash_bytes, wire.LengthPrefixed());
    HSIS_ASSIGN_OR_RETURN(uint64_t penalties_milli, wire.U64());

    std::string name(name_bytes.begin(), name_bytes.end());
    auto it = players_.find(name);
    if (it == players_.end()) {
      return Status::NotFound("state references unregistered player: " + name);
    }
    HSIS_ASSIGN_OR_RETURN(std::unique_ptr<crypto::MultisetHash> accumulated,
                          it->second.family->Deserialize(
                              Bytes(hash_bytes.begin(), hash_bytes.end())));
    staged.emplace(std::move(name),
                   std::make_pair(std::move(accumulated),
                                  static_cast<double>(penalties_milli) / 1000.0));
  }
  HSIS_RETURN_IF_ERROR(wire.Finish());
  for (auto& [name, payload] : staged) {
    PlayerState& player = players_.at(name);
    player.accumulated = std::move(payload.first);
    player.total_penalties = payload.second;
  }
  next_sequence_ = sequence;
  return Status::OK();
}

}  // namespace hsis::audit
