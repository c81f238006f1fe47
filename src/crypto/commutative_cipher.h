#ifndef HSIS_CRYPTO_COMMUTATIVE_CIPHER_H_
#define HSIS_CRYPTO_COMMUTATIVE_CIPHER_H_

#include <span>

#include "common/random.h"
#include "common/result.h"
#include "common/u256.h"
#include "crypto/group.h"

namespace hsis::crypto {

/// SRA / Pohlig–Hellman commutative encryption over a safe-prime
/// quadratic-residue group: E_e(x) = x^e mod p.
///
/// For any two keys e1, e2: E_e1(E_e2(x)) == E_e2(E_e1(x)) — the property
/// the Agrawal–Evfimievski–Srikant sovereign set-intersection protocol is
/// built on. Because the subgroup order q is prime, every key in [1, q)
/// is valid and decryption uses d = e^{-1} mod q.
class CommutativeCipher {
 public:
  /// Creates a cipher with a uniformly random key drawn from `rng`.
  static Result<CommutativeCipher> Create(const PrimeGroup& group, Rng& rng);

  /// Creates a cipher with an explicit key e; fails unless 1 <= e < q.
  static Result<CommutativeCipher> CreateWithKey(const PrimeGroup& group,
                                                 const U256& key);

  /// Encrypts a group element: element^e mod p. Runs on the cached
  /// sliding-window schedule for e (bit-identical to `group().Exp`).
  U256 Encrypt(const U256& element) const;

  /// out[i] = Encrypt(in[i]) for every i, on this thread, through
  /// `FixedExponentContext::ModExpBatch` (sixteen elements per
  /// Montgomery step on IFMA hosts). `out.size()` must equal `in.size()` (checked,
  /// fatal); `out` may be `in` itself but must not partially overlap it.
  void EncryptBatch(std::span<const U256> in, std::span<U256> out) const;

  /// Inverts `Encrypt`: element^{e^{-1} mod q} mod p, also windowed.
  U256 Decrypt(const U256& element) const;

  /// Convenience: hash arbitrary bytes into the group, then encrypt.
  U256 EncryptBytes(const Bytes& data) const;

  const PrimeGroup& group() const { return group_; }
  const U256& key() const { return key_; }

 private:
  CommutativeCipher(PrimeGroup group, U256 key, U256 inverse_key,
                    FixedExponentContext encrypt_ctx,
                    FixedExponentContext decrypt_ctx)
      : group_(std::move(group)),
        key_(key),
        inverse_key_(inverse_key),
        encrypt_ctx_(std::move(encrypt_ctx)),
        decrypt_ctx_(std::move(decrypt_ctx)) {}

  PrimeGroup group_;
  U256 key_;
  U256 inverse_key_;
  // Per-key window schedules, computed once at creation and replayed for
  // every element of every stream the cipher touches. Self-contained
  // (they copy the Montgomery context), so moving the cipher is safe.
  FixedExponentContext encrypt_ctx_;
  FixedExponentContext decrypt_ctx_;
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_COMMUTATIVE_CIPHER_H_
