#include "crypto/commutative_cipher.h"

namespace hsis::crypto {

Result<CommutativeCipher> CommutativeCipher::Create(const PrimeGroup& group,
                                                    Rng& rng) {
  U256 key = group.RandomExponent(rng);
  return CreateWithKey(group, key);
}

Result<CommutativeCipher> CommutativeCipher::CreateWithKey(
    const PrimeGroup& group, const U256& key) {
  if (key.IsZero() || key >= group.order()) {
    return Status::InvalidArgument("commutative key must be in [1, q)");
  }
  // Exponentiate by the even representative e' of e mod q (e' < 2q < p).
  // x^e' = x^e on the order-q subgroup, so honest replies are unchanged;
  // a word outside it (Z_p^* has order 2q) loses the sign that an odd
  // exponent would keep, and with it the parity of e.
  const U256 even_key = key.IsOdd() ? key + group.order() : key;
  HSIS_ASSIGN_OR_RETURN(FixedExponentContext encrypt_ctx,
                        group.FixedExp(even_key));
  return CommutativeCipher(group, key, std::move(encrypt_ctx));
}

U256 CommutativeCipher::Encrypt(const U256& element) const {
  return encrypt_ctx_.ModExp(element);
}

void CommutativeCipher::EncryptBatch(std::span<const U256> in,
                                     std::span<U256> out) const {
  encrypt_ctx_.ModExpBatch(in, out);
}

U256 CommutativeCipher::Decrypt(const U256& element) const {
  // The key lies in [1, q) and q is prime, so the inverse exists.
  return group_.Exp(element, group_.InverseExponent(key_).value());
}

U256 CommutativeCipher::EncryptBytes(const Bytes& data) const {
  return Encrypt(group_.HashToElement(data));
}

}  // namespace hsis::crypto
