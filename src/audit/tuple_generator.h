#ifndef HSIS_AUDIT_TUPLE_GENERATOR_H_
#define HSIS_AUDIT_TUPLE_GENERATOR_H_

#include <span>
#include <string>

#include "audit/auditing_device.h"
#include "crypto/multiset_hash.h"
#include "sovereign/dataset.h"

namespace hsis::audit {

/// The tuple generator TG_i of Section 6.2 — the trusted process through
/// which legal tuples enter player i's database (e.g. customer
/// registration).
///
/// On construction it "picks H_i and announces it publicly" (the hash
/// family). For each new tuple it (a) computes the singleton hash
/// H_i({t}), (b) sends (H_i(t), i) to the auditing device, and (c) hands
/// the tuple to the player. The player cannot influence TG_i — tuples
/// fabricated by the player never pass through here, which is exactly
/// what makes them detectable at audit time.
///
/// One TG -> AD message may carry H_i of a batch of tuples (`IssueAll`).
/// Because H_i is incremental, H_i of a batch is ==H the +H of its
/// singletons, so HV_i ends the same, and the device learns no more
/// from it: a hash of several tuples, never a tuple.
class TupleGenerator {
 public:
  /// Creates a generator for `player`, announcing `family`, wired to the
  /// auditing device (registers the player there).
  static Result<TupleGenerator> Create(std::string player,
                                       crypto::MultisetHashFamily family,
                                       AuditingDevice* device);

  /// The announced hash family H_i (public).
  const crypto::MultisetHashFamily& family() const { return family_; }

  const std::string& player() const { return player_; }

  /// Issues a batch of legal tuples in one TG -> AD message carrying
  /// H_i(batch) (`sovereign::CommitTuples` at one thread): HV_i, the
  /// device's count and `issued()` end as after issuing them one by one.
  /// The caller delivers `tuples` to the player. An empty batch sends
  /// nothing.
  Status IssueAll(std::span<const sovereign::Tuple> tuples);

  /// Issues one legal tuple (a one-tuple `IssueAll`) and returns it for
  /// delivery to the player.
  Result<sovereign::Tuple> Issue(Bytes value);

  /// Convenience for string-valued tuples.
  Result<sovereign::Tuple> IssueString(std::string_view value);

  /// Number of tuples issued so far.
  uint64_t issued() const { return issued_; }

 private:
  TupleGenerator(std::string player, crypto::MultisetHashFamily family,
                 AuditingDevice* device)
      : player_(std::move(player)),
        family_(std::move(family)),
        device_(device) {}

  std::string player_;
  crypto::MultisetHashFamily family_;
  AuditingDevice* device_;  // not owned
  uint64_t issued_ = 0;
};

}  // namespace hsis::audit

#endif  // HSIS_AUDIT_TUPLE_GENERATOR_H_
