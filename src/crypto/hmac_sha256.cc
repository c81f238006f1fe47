#include "crypto/hmac_sha256.h"

namespace hsis::crypto {

HmacSha256Stream::HmacSha256Stream(const Bytes& key) {
  constexpr size_t kBlock = Sha256::kBlockSize;

  Bytes k = key;
  if (k.size() > kBlock) k = Sha256::Hash(k);
  k.resize(kBlock, 0);

  Bytes ipad(kBlock), opad(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  inner_.Update(ipad);
  outer_.Update(opad);
}

Bytes HmacSha256Stream::Finish() {
  outer_.Update(inner_.Finish());
  return outer_.Finish();
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
