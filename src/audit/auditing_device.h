#ifndef HSIS_AUDIT_AUDITING_DEVICE_H_
#define HSIS_AUDIT_AUDITING_DEVICE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "crypto/multiset_hash.h"

namespace hsis::audit {

/// Result of one audit decision.
struct AuditOutcome {
  bool audited = false;            // did the device check this time?
  bool cheating_detected = false;  // commitment failed to match HV_i
  double penalty_applied = 0.0;    // P when detected, else 0
};

/// One line of the device's tamper-evident audit log.
struct AuditLogEntry {
  uint64_t sequence = 0;
  std::string player;
  bool cheating_detected = false;
  double penalty_applied = 0.0;
};

/// The auditing device (AD) of Section 6.2.
///
/// For each registered player i the device maintains HV_i — the
/// incremental multiset hash of every legal tuple the player's tuple
/// generator TG_i has issued. At audit time it compares HV_i with the
/// commitment H_i(D̂_i) the player reported during the sovereign
/// computation; any insertion or deletion makes the comparison fail.
///
/// Privacy and efficiency, per the paper's requirements:
///  * the device's API accepts only serialized hash values — no tuple
///    ever reaches it;
///  * per-player state is one accumulator (O(1) space) and each update
///    is one +H operation (O(1) time).
///
/// A TG -> AD message may carry H_i of a batch of tuples rather than of
/// one. By incrementality that hash is ==H the +H of the batch's
/// singletons, so HV_i ends the same either way, and the device learns
/// no more from it than from the singletons.
class AuditingDevice {
 public:
  /// Creates a device that audits with relative frequency
  /// `audit_frequency` in [0,1] and fines detected cheaters `penalty`.
  static Result<AuditingDevice> Create(double audit_frequency, double penalty);

  /// Registers player i with the hash family its TG_i announced.
  /// Initializes HV_i to the hash of the empty multiset.
  Status RegisterPlayer(const std::string& player,
                        const crypto::MultisetHashFamily& family);

  bool IsRegistered(const std::string& player) const;

  /// TG_i -> AD message (H_i(t), i): folds the hash of newly issued
  /// tuples into HV_i. `tuple_hash` is a serialized accumulator from the
  /// player's family, of one tuple or of a batch.
  Status RecordTupleHash(const std::string& player, const Bytes& tuple_hash);

  /// Unconditionally audits `player` against its reported commitment
  /// H_i(D̂_i): checks HV_i ==H H_i(D̂_i), fines on mismatch, and logs.
  Result<AuditOutcome> Audit(const std::string& player,
                             const Bytes& reported_commitment);

  /// The per-round audit decision: with probability `audit_frequency`
  /// (drawn from `rng`), performs `Audit`; otherwise returns an
  /// un-audited outcome.
  Result<AuditOutcome> MaybeAudit(const std::string& player,
                                  const Bytes& reported_commitment, Rng& rng);

  double audit_frequency() const { return audit_frequency_; }
  double penalty() const { return penalty_; }

  /// Cumulative fines charged to `player` (0 if unknown).
  double TotalPenalties(const std::string& player) const;

  /// Number of tuples folded into HV_i so far (0 if unknown).
  uint64_t RecordedTupleCount(const std::string& player) const;

  const std::vector<AuditLogEntry>& log() const { return log_; }

  /// Serialized size of all per-player accumulators — the device's
  /// entire data-dependent state (for the space-efficiency benches).
  size_t StateBytes() const;

  /// Serializes the device's data-dependent state (per-player HV_i,
  /// penalty totals, log cursor) for sealed storage in the secure
  /// coprocessor. Hash *families* (scheme choice, keys, group) are
  /// configuration, not state, and are re-supplied at restore time.
  Bytes SerializeState() const;

  /// Restores state produced by `SerializeState` into a device whose
  /// players are already registered with the same families. Fails on
  /// unknown players or malformed bytes.
  Status RestoreState(const Bytes& state);

 private:
  AuditingDevice(double audit_frequency, double penalty)
      : audit_frequency_(audit_frequency), penalty_(penalty) {}

  struct PlayerState {
    std::unique_ptr<crypto::MultisetHashFamily> family;
    std::unique_ptr<crypto::MultisetHash> accumulated;  // HV_i
    double total_penalties = 0.0;
  };

  double audit_frequency_;
  double penalty_;
  std::map<std::string, PlayerState> players_;
  std::vector<AuditLogEntry> log_;
  uint64_t next_sequence_ = 0;
};

}  // namespace hsis::audit

#endif  // HSIS_AUDIT_AUDITING_DEVICE_H_
