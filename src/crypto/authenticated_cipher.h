#ifndef HSIS_CRYPTO_AUTHENTICATED_CIPHER_H_
#define HSIS_CRYPTO_AUTHENTICATED_CIPHER_H_

#include <span>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/hmac_sha256.h"

namespace hsis::crypto {

/// Authenticated encryption with associated data, built as
/// ChaCha20 + HMAC-SHA-256 encrypt-then-MAC.
///
/// The paper's communication model calls for authenticated encryption
/// providing "both message privacy and message authenticity" (it cites
/// OCB). We substitute the generically-secure encrypt-then-MAC
/// composition, implemented entirely from the primitives in this
/// directory; the contract — confidentiality plus ciphertext integrity —
/// is the one the paper relies on.
///
/// Wire format of a sealed message: nonce (12) || ciphertext || tag (32).
/// The MAC covers aad_len || aad || nonce || ciphertext. There is one
/// implementation, in place: `SealInPlace` encrypts the middle of a
/// caller-sized buffer and writes the tag after it, `OpenInPlace`
/// verifies the tag and decrypts the middle where it lies, and the MAC
/// streams the parts through one HMAC keyed at `Create`. `Seal` and
/// `Open` are thin wrappers that copy into a fresh buffer first. The
/// in-place pair allocates nothing message-sized, which is what lets the
/// channel seal and open frames on pool workers (sovereign/channel.h).
class AuthenticatedCipher {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;
  static constexpr size_t kTagSize = 32;

  /// Creates a cipher from a 32-byte master key; independent encryption
  /// and MAC subkeys are derived internally.
  static Result<AuthenticatedCipher> Create(const Bytes& master_key);

  /// Encrypts and authenticates. `nonce` must be 12 bytes and unique per
  /// message under this key; `aad` is authenticated but not encrypted.
  Result<Bytes> Seal(const Bytes& nonce, const Bytes& plaintext,
                     const Bytes& aad) const;

  /// Verifies and decrypts a message produced by `Seal`. Returns
  /// `IntegrityViolation` on any tamper (tag mismatch, truncation).
  Result<Bytes> Open(const Bytes& sealed, const Bytes& aad) const;

  /// The in-place seal. `message` is nonce (12) || plaintext || room for
  /// the tag (32); the plaintext is encrypted where it lies and the tag
  /// written into the last 32 bytes. Sealing an opened message again
  /// under the same `aad` restores its sealed bytes exactly.
  /// InvalidArgument when `message` is shorter than nonce plus tag.
  Status SealInPlace(std::span<uint8_t> message, const Bytes& aad) const;

  /// The in-place open of a sealed message: verifies the tag, then
  /// decrypts the ciphertext where it lies, leaving nonce || plaintext ||
  /// tag. `IntegrityViolation` on any tamper leaves `message` untouched.
  Status OpenInPlace(std::span<uint8_t> message, const Bytes& aad) const;

 private:
  AuthenticatedCipher(Bytes enc_key, const Bytes& mac_key)
      : enc_key_(std::move(enc_key)), mac_(mac_key) {}

  /// HMAC over aad_len || aad || nonce || ciphertext, where the nonce
  /// and ciphertext are the first `kNonceSize + ciphertext_len` bytes at
  /// `nonce_and_ciphertext`.
  Bytes ComputeTag(const uint8_t* nonce_and_ciphertext, size_t ciphertext_len,
                   const Bytes& aad) const;

  Bytes enc_key_;
  HmacSha256Stream mac_;  // keyed with the MAC subkey, nothing absorbed
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_AUTHENTICATED_CIPHER_H_
