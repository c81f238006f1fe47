#include "sovereign/multiparty.h"

#include "common/parallel.h"
#include "crypto/commutative_cipher.h"
#include "crypto/parallel_modexp.h"
#include "sovereign/session_core.h"

namespace hsis::sovereign {

Result<std::vector<MultiPartyOutcome>> RunMultiPartyIntersection(
    const std::vector<Dataset>& reported, const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family, Rng& rng,
    const MultiPartyOptions& options) {
  const size_t n = reported.size();
  if (n < 2) {
    return Status::InvalidArgument("multi-party intersection needs n >= 2");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument(
        "MultiPartyOptions.threads must be >= 0 "
        "(0 selects hardware concurrency)");
  }
  const int fail_party = options.fault_injection.party_fails_mid_round;
  if (fail_party < -1 || fail_party >= static_cast<int>(n)) {
    return Status::InvalidArgument(
        "MultiPartyOptions.fault_injection.party_fails_mid_round must be -1 "
        "or a valid party index");
  }

  // Each party holds a commutative key. Key generation draws from the
  // caller's shared stream, so it stays serial in party order — the
  // exact draws the pre-parallelism implementation made.
  std::vector<crypto::CommutativeCipher> ciphers;
  ciphers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Result<crypto::CommutativeCipher> c =
        crypto::CommutativeCipher::Create(group, rng);
    HSIS_RETURN_IF_ERROR(c.status());
    ciphers.push_back(std::move(*c));
  }

  // Ring pass: set s, starting at its owner, is encrypted by every party
  // in ring order. Each set stays aligned with its owner's sorted tuples
  // so the owner can map matches back; that alignment is the rank leak
  // multiparty.h states (open in ROADMAP.md, "a ring that shuffles").
  // The n owners' passes are independent of one another — each is pure
  // exponentiation under already-fixed keys — so they fan out across
  // `options.threads`; the error of the smallest owner index wins, the
  // same abort a serial ring would report. Hop 0 is the owner's own
  // commitment H_i(D̂_i) (Section 6) and hash-and-encrypt, on one thread
  // (the owners already fan out). With a kMu family over `group` the
  // commitment hashes each tuple to the very h(t) hop 0 encrypts, so
  // each tuple is hashed once (`CommitAndHashTuples`).
  const bool shared_hash = SharesTupleHash(commitment_family, group);
  std::vector<MultiPartyOutcome> outcomes(n);
  std::vector<std::vector<U256>> fully_encrypted(n);
  HSIS_RETURN_IF_ERROR(common::ParallelForWithStatus(
      options.threads, n, [&](size_t owner) -> Status {
        const std::vector<Tuple>& tuples = reported[owner].tuples();
        std::vector<U256> set(tuples.size());
        for (size_t hop = 0; hop < n; ++hop) {
          size_t encryptor = (owner + hop) % n;
          if (static_cast<int>(encryptor) == fail_party) {
            return Status::ProtocolViolation(
                "party dropped out mid-round during the ring pass");
          }
          if (hop == 0 && shared_hash) {
            outcomes[owner].own_commitment = CommitAndHashTuples(
                commitment_family, tuples, set, /*threads=*/1);
            ciphers[encryptor].EncryptBatch(set, set);  // in place
          } else if (hop == 0) {
            outcomes[owner].own_commitment =
                CommitTuples(commitment_family, tuples, /*threads=*/1);
            crypto::HashEncryptBatch(
                ciphers[encryptor], tuples.size(),
                [&](size_t i) -> const Bytes& { return tuples[i].value; },
                set, /*threads=*/1);
          } else {
            ciphers[encryptor].EncryptBatch(set, set);  // in place
          }
        }
        fully_encrypted[owner] = std::move(set);
        return Status::OK();
      }));

  // Global intersection under full encryption: a value survives with the
  // minimum multiplicity across all parties. Party 0's list is filtered
  // through each later party's multiset in turn.
  std::vector<U256> survivors = fully_encrypted[0];
  for (size_t i = 1; i < n; ++i) {
    ElementMultiset mine(fully_encrypted[i],
                         DeriveResolveKey(ciphers[i].key()));
    std::erase_if(survivors, [&](const U256& v) { return !mine.Take(v); });
  }

  // Each party maps the surviving values back to its own tuples in tuple
  // order — independent per party, each with its own table of the
  // (read-only) survivors.
  common::ParallelFor(options.threads, n, [&](size_t i) {
    ElementMultiset remaining(survivors, DeriveResolveKey(ciphers[i].key()));
    const std::vector<Tuple>& tuples = reported[i].tuples();
    for (size_t k = 0; k < tuples.size(); ++k) {
      if (remaining.Take(fully_encrypted[i][k])) {
        outcomes[i].intersection.Add(tuples[k]);
      }
    }
  });
  return outcomes;
}

}  // namespace hsis::sovereign
