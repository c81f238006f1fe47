#include "crypto/authenticated_cipher.h"

#include <algorithm>

#include "crypto/chacha20.h"

namespace hsis::crypto {

Result<AuthenticatedCipher> AuthenticatedCipher::Create(
    const Bytes& master_key) {
  if (master_key.size() != kKeySize) {
    return Status::InvalidArgument("master key must be 32 bytes");
  }
  Bytes enc_key = DeriveKey(master_key, "hsis.aead.enc", kKeySize);
  Bytes mac_key = DeriveKey(master_key, "hsis.aead.mac", kKeySize);
  return AuthenticatedCipher(std::move(enc_key), std::move(mac_key));
}

Bytes AuthenticatedCipher::ComputeTag(const uint8_t* nonce_and_ciphertext,
                                      size_t ciphertext_len,
                                      const Bytes& aad) const {
  const uint64_t aad_size = aad.size();
  uint8_t aad_len[8];
  for (int i = 0; i < 8; ++i) {
    aad_len[i] = static_cast<uint8_t>(aad_size >> (56 - 8 * i));
  }
  HmacSha256Stream mac = mac_;
  mac.Update(aad_len, sizeof(aad_len));
  mac.Update(aad);
  mac.Update(nonce_and_ciphertext, kNonceSize + ciphertext_len);
  return mac.Finish();
}

Status AuthenticatedCipher::SealInPlace(std::span<uint8_t> message,
                                        const Bytes& aad) const {
  if (message.size() < kNonceSize + kTagSize) {
    return Status::InvalidArgument("sealed message buffer too short");
  }
  const size_t plaintext_len = message.size() - kNonceSize - kTagSize;
  uint8_t* text = message.data() + kNonceSize;
  HSIS_ASSIGN_OR_RETURN(ChaCha20 cipher,
                        ChaCha20::Create(enc_key_, message.first(kNonceSize)));
  HSIS_RETURN_IF_ERROR(cipher.Process(text, text, plaintext_len));
  Bytes tag = ComputeTag(message.data(), plaintext_len, aad);
  std::copy(tag.begin(), tag.end(), text + plaintext_len);
  return Status::OK();
}

Status AuthenticatedCipher::OpenInPlace(std::span<uint8_t> message,
                                        const Bytes& aad) const {
  if (message.size() < kNonceSize + kTagSize) {
    return Status::IntegrityViolation("sealed message truncated");
  }
  const size_t ciphertext_len = message.size() - kNonceSize - kTagSize;
  uint8_t* text = message.data() + kNonceSize;
  Bytes expected = ComputeTag(message.data(), ciphertext_len, aad);
  if (!ConstantTimeEqual(text + ciphertext_len, expected.data(), kTagSize)) {
    return Status::IntegrityViolation("authentication tag mismatch");
  }
  HSIS_ASSIGN_OR_RETURN(ChaCha20 cipher,
                        ChaCha20::Create(enc_key_, message.first(kNonceSize)));
  return cipher.Process(text, text, ciphertext_len);
}

Result<Bytes> AuthenticatedCipher::Seal(const Bytes& nonce,
                                        const Bytes& plaintext,
                                        const Bytes& aad) const {
  if (nonce.size() != kNonceSize) {
    return Status::InvalidArgument("nonce must be 12 bytes");
  }
  Bytes sealed(kNonceSize + plaintext.size() + kTagSize);
  std::copy(nonce.begin(), nonce.end(), sealed.begin());
  std::copy(plaintext.begin(), plaintext.end(), sealed.begin() + kNonceSize);
  HSIS_RETURN_IF_ERROR(SealInPlace(sealed, aad));
  return sealed;
}

Result<Bytes> AuthenticatedCipher::Open(const Bytes& sealed,
                                        const Bytes& aad) const {
  Bytes message = sealed;
  HSIS_RETURN_IF_ERROR(OpenInPlace(message, aad));
  return Bytes(message.begin() + kNonceSize, message.end() - kTagSize);
}

}  // namespace hsis::crypto
