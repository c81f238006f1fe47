#include "crypto/hmac_sha256.h"

#include <algorithm>
#include <array>

namespace hsis::crypto {

HmacSha256Stream::HmacSha256Stream(const Bytes& key) {
  constexpr size_t kBlock = Sha256::kBlockSize;

  std::array<uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    Sha256::Digest digest;
    Sha256::Hash(key, digest);
    std::copy(digest.begin(), digest.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<uint8_t, kBlock> pad;
  for (size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  inner_.Update(pad.data(), kBlock);
  for (size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  outer_.Update(pad.data(), kBlock);
}

void HmacSha256Stream::Finish(Sha256::Digest& out) {
  Sha256::Digest inner;
  inner_.Finish(inner);
  outer_.Update(inner.data(), inner.size());
  outer_.Finish(out);
}

Bytes HmacSha256Stream::Finish() {
  Sha256::Digest mac;
  Finish(mac);
  return Bytes(mac.begin(), mac.end());
}

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  HmacSha256Stream mac(key);
  mac.Update(message);
  return mac.Finish();
}

Bytes HmacPrf(const Bytes& key, uint8_t tag, const Bytes& message) {
  HmacSha256Stream mac(key);
  mac.Update(&tag, 1);
  mac.Update(message);
  return mac.Finish();
}

Bytes DeriveKey(const Bytes& master, std::string_view label, size_t out_len) {
  Bytes out;
  out.reserve(out_len);
  uint32_t counter = 1;
  while (out.size() < out_len) {
    Bytes input = ToBytes(label);
    AppendUint32BE(input, counter++);
    Bytes block = HmacSha256(master, input);
    size_t take = std::min(block.size(), out_len - out.size());
    out.insert(out.end(), block.begin(), block.begin() + static_cast<ptrdiff_t>(take));
  }
  return out;
}

}  // namespace hsis::crypto
