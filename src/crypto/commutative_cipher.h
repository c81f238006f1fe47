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
  /// sliding-window schedule for the even representative of e mod q
  /// (bit-identical to `group().Exp(element, key())` on every element).
  /// Any other word lands in the subgroup, the same for e and e + q, so
  /// the reply carries no bit of the key's parity.
  U256 Encrypt(const U256& element) const;

  /// out[i] = Encrypt(in[i]) for every i, on this thread, through
  /// `FixedExponentContext::ModExpBatch` (sixteen elements per
  /// Montgomery step on IFMA hosts). `out.size()` must equal `in.size()` (checked,
  /// fatal); `out` may be `in` itself but must not partially overlap it.
  void EncryptBatch(std::span<const U256> in, std::span<U256> out) const;

  /// Inverts `Encrypt`: element^{e^{-1} mod q} mod p. Derives the
  /// inverse key on every call: no protocol decrypts, so keygen does
  /// not pay for it.
  U256 Decrypt(const U256& element) const;

  /// Convenience: hash arbitrary bytes into the group, then encrypt.
  U256 EncryptBytes(const Bytes& data) const;

  const PrimeGroup& group() const { return group_; }
  const U256& key() const { return key_; }

 private:
  CommutativeCipher(PrimeGroup group, U256 key,
                    FixedExponentContext encrypt_ctx)
      : group_(std::move(group)),
        key_(key),
        encrypt_ctx_(std::move(encrypt_ctx)) {}

  PrimeGroup group_;
  U256 key_;
  // The key's window schedule, computed once at creation and replayed
  // for every element of every stream the cipher touches.
  // Self-contained (it copies the Montgomery context), so moving the
  // cipher is safe.
  FixedExponentContext encrypt_ctx_;
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_COMMUTATIVE_CIPHER_H_
