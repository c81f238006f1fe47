#ifndef HSIS_CRYPTO_HMAC_SHA256_H_
#define HSIS_CRYPTO_HMAC_SHA256_H_

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace hsis::crypto {

/// Incremental HMAC-SHA-256 whose key schedule runs once: the constructor
/// absorbs the ipad and opad blocks, so a keyed instance copied per
/// message MACs it with no per-message key work and no concatenation of
/// the message parts.
class HmacSha256Stream {
 public:
  explicit HmacSha256Stream(const Bytes& key);

  /// Absorbs the next part of the message.
  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  void Update(const Bytes& data) { inner_.Update(data); }

  /// Writes the 32-byte MAC of everything absorbed into `out`, with no
  /// allocation. Single use, like `Sha256::Finish`.
  void Finish(Sha256::Digest& out);

  /// `Finish` into a fresh 32-byte buffer.
  Bytes Finish();

 private:
  Sha256 inner_;  // has absorbed key ^ ipad
  Sha256 outer_;  // has absorbed key ^ opad
};

/// HMAC-SHA-256 (RFC 2104). Keys longer than the block size are hashed
/// first; shorter keys are zero-padded, per the spec.
Bytes HmacSha256(const Bytes& key, const Bytes& message);

/// HMAC keyed pseudo-random function with a domain-separation tag byte —
/// the keyed hash H_K(tag, b) used by the MSet-XOR / MSet-Add multiset
/// hashes (Clarke et al., Asiacrypt 2003).
Bytes HmacPrf(const Bytes& key, uint8_t tag, const Bytes& message);

/// HKDF-style key derivation: HMAC(master, label) truncated/expanded to
/// `out_len` bytes by counter-mode iteration. Used to split one session
/// master secret into independent encryption and MAC keys.
Bytes DeriveKey(const Bytes& master, std::string_view label, size_t out_len);

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_HMAC_SHA256_H_
